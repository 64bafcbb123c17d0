//! Tests for the probe/latch gaps closed in DESIGN.md §12: forking on a
//! multi-branch knot, the busy-FSM probe-drop counter, and the explicit
//! rejection of disables at in-recovery nodes.

use sb_routing::{MinimalRouting, Route};
use sb_sim::{
    NewPacket, NoTraffic, Packet, PacketId, Plugin, SimConfig, Simulator, UniformTraffic, VcRef,
};
use sb_topology::{Direction, FaultKind, FaultModel, Mesh, NodeId, Topology};
use static_bubble::{FsmState, SbOptions, StaticBubblePlugin};

type SbSim = Simulator<StaticBubblePlugin, NoTraffic>;

fn two_vc_config() -> SimConfig {
    SimConfig {
        vnets: 1,
        vcs_per_vnet: 2,
        max_packet_flits: 5,
    }
}

/// Stage a two-loop knot on a 4×4 mesh with 2 VCs per port.
///
/// Loop 1 is the textbook square ring (1,1)→(1,2)→(2,2)→(2,1) through the
/// static-bubble routers (1,1) and (2,2); loop 2 hangs off the *same*
/// input port (1,2).South via its second VC and closes through
/// (0,2)/(0,1). Every port on both loops carries two blocked packets, so
/// probes pass the all-VCs-occupied forwarding test everywhere — but at
/// the shared port the two VCs want *different* outputs (vc0 East into
/// loop 1, vc1 West into loop 2). A non-forking probe must give up there;
/// a forking probe splits and its loop-1 copy completes the lap.
fn stage_knot(sim: &mut SbSim) {
    use Direction::*;
    let mesh = sim.core().topology().mesh();
    let at = |x, y| mesh.node_at(x, y);
    let (a, b, c, d) = (at(1, 1), at(1, 2), at(2, 2), at(2, 1));
    let (e, f) = (at(0, 2), at(0, 1));
    let mut id = 0u64;
    let mut place = |sim: &mut SbSim, router: NodeId, port, vc, dst, route: Vec<Direction>| {
        id += 1;
        let pkt = Packet::new(
            PacketId(9000 + id),
            NewPacket {
                src: router,
                dst,
                vnet: 0,
                len_flits: 5,
            },
            Route::new(route),
            0,
        );
        sim.core_mut()
            .place_packet(VcRef { router, port, vc }, pkt, 0);
    };
    // Loop 1 (all wants point at full ports; duplicates fill both VCs).
    place(sim, a, East, 0, c, vec![North, East]);
    place(sim, a, East, 1, c, vec![North, East]);
    place(sim, b, South, 0, d, vec![East, South]); // the divergence port:
    place(sim, b, South, 1, f, vec![West, South]); // vc0 East, vc1 West
    place(sim, c, West, 0, a, vec![South, West]);
    place(sim, c, West, 1, a, vec![South, West]);
    place(sim, d, North, 0, b, vec![West, North]);
    place(sim, d, North, 1, b, vec![West, North]);
    // Loop 2, closing back into (1,2).South through (1,1)'s West port.
    place(sim, e, East, 0, a, vec![South, East]);
    place(sim, e, East, 1, a, vec![South, East]);
    place(sim, f, North, 0, b, vec![East, North]);
    place(sim, f, North, 1, b, vec![East, North]);
    place(sim, a, West, 0, c, vec![North, East]);
    place(sim, a, West, 1, c, vec![North, East]);
}

fn knot_sim(opts: SbOptions) -> SbSim {
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        two_vc_config(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_options(&topo, 5, opts),
        NoTraffic,
        0,
    );
    stage_knot(&mut sim);
    assert!(sim.deadlocked_now(), "staging must create a deadlock");
    sim
}

#[test]
fn forking_resolves_the_two_loop_knot() {
    let mut sim = knot_sim(SbOptions::default());
    assert!(
        sim.run_until_drained(20_000),
        "forking probe failed to recover the knot: {} in flight",
        sim.core().in_flight()
    );
    let stats = sim.core().stats();
    assert_eq!(stats.delivered_packets, 14, "all knot packets deliver");
    assert!(stats.deadlocks_recovered >= 1, "recovery must have latched");
}

#[test]
fn non_forking_cannot_latch_the_knot() {
    let mut sim = knot_sim(SbOptions {
        forking: false,
        ..SbOptions::default()
    });
    sim.plugin_mut().set_tracing(true);
    assert!(
        !sim.run_until_drained(20_000),
        "the knot should be unrecoverable without forking"
    );
    let stats = sim.core().stats().clone();
    assert!(stats.probes_sent > 0, "detection must keep firing probes");
    assert_eq!(
        stats.deadlocks_recovered, 0,
        "no probe can complete its lap, so nothing may latch"
    );
    // The probes died at the divergence port, and the trace says so.
    let trace = sim.plugin_mut().trace_lines().join("\n");
    assert!(
        trace.contains("NonForkingDivergence"),
        "expected divergence drops in the probe trace:\n{trace}"
    );
    // Both detectors on the knot saw it and are still stuck in detection.
    let mesh = sim.core().topology().mesh();
    for node in [mesh.node_at(1, 1), mesh.node_at(2, 2)] {
        let fsm = sim.plugin().fsm(node).expect("SB node has an FSM");
        assert_eq!(
            fsm.state,
            FsmState::SDd,
            "n{} should be parked in detection",
            node.0
        );
    }
}

#[test]
fn busy_fsm_probe_drop_is_counted_and_surfaced() {
    // In the forking run the probe forks at the divergence port and *both*
    // copies eventually return to the sender; the first latches, the later
    // one finds the FSM mid-recovery and is dropped — the drop that used
    // to be silent and is now a first-class statistic.
    let mut sim = knot_sim(SbOptions::default());
    assert!(sim.run_until_drained(20_000));
    let stats = sim.core().stats().clone();
    assert!(
        stats.probes_dropped >= 1,
        "the second returning fork must be dropped at the busy FSM"
    );
    assert_eq!(
        sim.plugin().counters().probes_dropped_busy,
        stats.probes_dropped,
        "plugin counter and Stats must agree"
    );
    // The counter is part of the forensic report's plugin lines.
    let lines = sim.plugin().forensic_lines(sim.core()).join("\n");
    assert!(
        lines.contains("dropped_busy="),
        "proto counters missing from forensic lines:\n{lines}"
    );
}

#[test]
fn overlapping_recoveries_reject_disables_cleanly() {
    // An irregular topology driven past saturation with aggressive
    // detection: multiple detectors latch concurrently and some disable
    // walks cross nodes that are themselves mid-recovery. Those disables
    // must be rejected on the release path (counted, nothing mutated) —
    // and the protocol must still converge: invariants hold and the
    // network drains.
    use rand::SeedableRng;
    let mesh = Mesh::new(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let topo = FaultModel::new(FaultKind::Links, 12).inject(mesh, &mut rng);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_options(&topo, 12, SbOptions::default()),
        UniformTraffic::new(0.3).single_vnet(),
        7,
    );
    sim.run(6_000);
    assert!(
        sim.plugin().counters().drops_disable_in_recovery > 0,
        "expected disable-vs-recovery races at this load: {}",
        sim.plugin().counters().summary()
    );
    assert!(
        sim.audit_now().is_none(),
        "invariants must hold after races"
    );
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(50_000), "network must still drain");
    assert_eq!(sim.plugin().frozen_routers(), 0);
}
