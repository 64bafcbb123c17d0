//! End-to-end Static Bubble recovery tests: staged deadlocks, organic
//! deadlocks under load, false positives, and multi-cycle scenarios.

use sb_routing::MinimalRouting;
use sb_sim::{
    NewPacket, NoTraffic, NullPlugin, Packet, PacketId, SimConfig, Simulator, UniformTraffic,
};
use sb_topology::{Direction, FaultKind, FaultModel, Mesh, NodeId, Topology};
use static_bubble::{FsmState, StaticBubblePlugin};

type SbSim<T> = Simulator<StaticBubblePlugin, T>;

/// Build a Static Bubble simulator over `topo` with detection threshold
/// `tdd`.
fn sb_sim<T: sb_sim::TrafficSource>(
    topo: &Topology,
    cfg: SimConfig,
    tdd: u64,
    traffic: T,
    seed: u64,
) -> SbSim<T> {
    Simulator::new(
        topo,
        cfg,
        Box::new(MinimalRouting::new(topo)),
        StaticBubblePlugin::new(topo, tdd),
        traffic,
        seed,
    )
}

/// Stage the textbook 4-packet clockwise ring deadlock on a 2×2 mesh.
/// Node (1,1) is the only placement node and sits on the cycle.
fn stage_ring(sim: &mut SbSim<NoTraffic>) -> [NodeId; 4] {
    use Direction::*;
    let mesh = sim.core().topology().mesh();
    let (a, b, c, d) = (
        mesh.node_at(0, 0),
        mesh.node_at(0, 1),
        mesh.node_at(1, 1),
        mesh.node_at(1, 0),
    );
    let place = |sim: &mut SbSim<NoTraffic>,
                 router: NodeId,
                 port: Direction,
                 id: u64,
                 dst: NodeId,
                 route: Vec<Direction>| {
        let pkt = Packet::new(
            PacketId(id + 1000),
            NewPacket {
                src: router,
                dst,
                vnet: 0,
                len_flits: 5,
            },
            sb_routing::Route::new(route),
            0,
        );
        sim.core_mut().place_packet(
            sb_sim::VcRef {
                router,
                port,
                vc: 0,
            },
            pkt,
            0,
        );
    };
    place(sim, b, South, 1, d, vec![East, South]);
    place(sim, c, West, 2, a, vec![South, West]);
    place(sim, d, North, 3, b, vec![West, North]);
    place(sim, a, East, 4, c, vec![North, East]);
    [a, b, c, d]
}

#[test]
fn staged_ring_deadlock_is_fully_recovered() {
    let mesh = Mesh::new(2, 2);
    let topo = Topology::full(mesh);
    let mut sim = sb_sim(&topo, SimConfig::tiny(), 5, NoTraffic, 0);
    stage_ring(&mut sim);
    assert!(sim.deadlocked_now(), "staging should create a deadlock");

    assert!(
        sim.run_until_drained(2_000),
        "Static Bubble failed to drain the ring: {} in flight",
        sim.core().in_flight()
    );
    let stats = sim.core().stats().clone();
    assert_eq!(stats.delivered_packets, 4, "all four ring packets deliver");
    assert!(stats.probes_sent >= 1);
    assert!(
        stats.deadlocks_recovered >= 1,
        "recovery must have triggered"
    );
    // Let the enable finish circulating, then check that all restrictions
    // are lifted, the bubble is off and the FSM is back to detection/idle.
    sim.run(200);
    assert_eq!(sim.plugin().frozen_routers(), 0);
    let sb_node = mesh.node_at(1, 1);
    let fsm = sim.plugin().fsm(sb_node).expect("SB node has FSM");
    assert!(matches!(fsm.state, FsmState::SOff | FsmState::SDd));
    assert!(sim.core().bubble_attach(sb_node).is_none());
}

#[test]
fn recovery_uses_all_four_special_message_classes() {
    let mesh = Mesh::new(2, 2);
    let topo = Topology::full(mesh);
    let mut sim = sb_sim(&topo, SimConfig::tiny(), 5, NoTraffic, 0);
    stage_ring(&mut sim);
    assert!(sim.run_until_drained(2_000));
    // The enable circulates after the last packet drains; let it finish.
    sim.run(400);
    let s = sim.core().stats();
    for class in sb_sim::SpecialClass::ALL {
        assert!(
            s.special_link_flits[class.index()] > 0,
            "{class:?} never traversed a link"
        );
    }
    // No special messages left circulating once the protocol settles.
    sim.run(200);
    assert_eq!(sim.plugin().in_flight_messages(), 0);
}

#[test]
fn organic_deadlocks_under_load_always_recover() {
    // Full 8x8 mesh at the deadlock-onset injection rate (the paper's
    // Fig. 3 regime): deadlocks form organically and Static Bubble must
    // keep the network functional — after stopping traffic everything
    // drains. (Sustained operation far beyond saturation eventually wedges
    // any recovery scheme of this class; see DESIGN.md §limitations.)
    let mesh = Mesh::new(8, 8);
    let topo = Topology::full(mesh);
    let mut sim = sb_sim(
        &topo,
        SimConfig::single_vnet(),
        34,
        UniformTraffic::new(0.35).single_vnet(),
        42,
    );
    sim.run(2_500);
    assert!(
        sim.core().stats().deadlocks_recovered > 0,
        "expected organic deadlocks at this load (probes={})",
        sim.core().stats().probes_sent,
    );
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(
        sim.run_until_drained(200_000),
        "network failed to drain: {} in flight, {} queued, {} frozen",
        sim.core().in_flight(),
        sim.core().queued(),
        sim.plugin().frozen_routers(),
    );
    let s = sim.core().stats();
    assert_eq!(s.delivered_packets + s.dropped_packets, s.offered_packets);
}

#[test]
fn irregular_topologies_recover_too() {
    // Router and link faults; deadlock-prone minimal routing; SB recovers.
    let mesh = Mesh::new(8, 8);
    for (kind, faults, seed) in [
        (FaultKind::Links, 10, 1u64),
        (FaultKind::Links, 25, 2),
        (FaultKind::Routers, 6, 3),
        (FaultKind::Routers, 12, 4),
    ] {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = FaultModel::new(kind, faults).inject(mesh, &mut rng);
        let mut sim = sb_sim(
            &topo,
            SimConfig::single_vnet(),
            34,
            UniformTraffic::new(0.25).single_vnet(),
            seed,
        );
        sim.run(1_500);
        let mut sim = sim.replace_traffic(NoTraffic);
        assert!(
            sim.run_until_drained(200_000),
            "{kind:?} x{faults} seed {seed}: stuck with {} in flight",
            sim.core().in_flight()
        );
    }
}

#[test]
fn congestion_false_positive_is_harmless() {
    // A tiny tdd fires probes during plain congestion. Correctness must be
    // unaffected: everything still drains, and no restrictions linger.
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    let mut sim = sb_sim(
        &topo,
        SimConfig::single_vnet(),
        2, // absurdly aggressive detection
        UniformTraffic::new(0.3).single_vnet(),
        7,
    );
    sim.run(3_000);
    assert!(sim.core().stats().probes_sent > 0, "tdd=2 must fire probes");
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(50_000));
    assert_eq!(sim.plugin().frozen_routers(), 0);
}

#[test]
fn static_bubble_matches_null_plugin_when_no_deadlocks() {
    // At low load with plenty of VCs nothing ever times out: SB must be
    // performance-transparent (identical delivered count & latency to a
    // plain network with the same seed).
    let mesh = Mesh::new(8, 8);
    let topo = Topology::full(mesh);
    let mk_stats = |with_sb: bool| {
        let traffic = UniformTraffic::new(0.05).single_vnet();
        if with_sb {
            let mut sim = Simulator::new(
                &topo,
                SimConfig::single_vnet(),
                Box::new(MinimalRouting::new(&topo)),
                StaticBubblePlugin::new(&topo, 34),
                traffic,
                99,
            );
            sim.run(4_000);
            sim.core().stats().clone()
        } else {
            let mut sim = Simulator::new(
                &topo,
                SimConfig::single_vnet(),
                Box::new(MinimalRouting::new(&topo)),
                NullPlugin,
                traffic,
                99,
            );
            sim.run(4_000);
            sim.core().stats().clone()
        }
    };
    let with_sb = mk_stats(true);
    let without = mk_stats(false);
    assert_eq!(with_sb.delivered_packets, without.delivered_packets);
    assert_eq!(with_sb.latency_sum, without.latency_sum);
}

#[test]
fn two_simultaneous_deadlocks_resolve_in_parallel() {
    // Two disjoint 2x2 rings on an 8x8 mesh, each passing through its own
    // SB node: (1,1)..(2,2) block and (5,5)..(6,6) block.
    use Direction::*;
    let mesh = Mesh::new(8, 8);
    let topo = Topology::full(mesh);
    let mut sim = sb_sim(&topo, SimConfig::tiny(), 5, NoTraffic, 0);
    let mut id = 0u64;
    let mut ring = |sim: &mut SbSim<NoTraffic>, x0: u16, y0: u16| {
        let (a, b, c, d) = (
            mesh.node_at(x0, y0),
            mesh.node_at(x0, y0 + 1),
            mesh.node_at(x0 + 1, y0 + 1),
            mesh.node_at(x0 + 1, y0),
        );
        for (router, port, dst, route) in [
            (b, South, d, vec![East, South]),
            (c, West, a, vec![South, West]),
            (d, North, b, vec![West, North]),
            (a, East, c, vec![North, East]),
        ] {
            id += 1;
            let pkt = Packet::new(
                PacketId(5000 + id),
                NewPacket {
                    src: router,
                    dst,
                    vnet: 0,
                    len_flits: 5,
                },
                sb_routing::Route::new(route),
                0,
            );
            sim.core_mut().place_packet(
                sb_sim::VcRef {
                    router,
                    port,
                    vc: 0,
                },
                pkt,
                0,
            );
        }
    };
    ring(&mut sim, 1, 1);
    ring(&mut sim, 5, 5);
    assert!(sim.deadlocked_now());
    assert!(sim.run_until_drained(5_000));
    assert_eq!(sim.core().stats().delivered_packets, 8);
    assert!(sim.core().stats().deadlocks_recovered >= 2);
    // Let the enables finish circulating before checking clean state.
    sim.run(400);
    assert_eq!(sim.plugin().frozen_routers(), 0);
}
