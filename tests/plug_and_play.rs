//! The paper's "plug-and-play" claim, exercised end-to-end: Static Bubble
//! is configured **once at design time** and survives arbitrary runtime
//! topology changes without any reconfiguration of its own state — only the
//! minimal route tables are recomputed (which every design needs). The
//! spanning-tree baselines must rebuild their trees; the escape-VC baseline
//! must rebuild its escape tables (i.e. its plugin).

mod fig6;

use rand::SeedableRng;
use static_bubble_repro::core::{placement, FsmState, StaticBubblePlugin};
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{NoTraffic, SimConfig, Simulator, UniformTraffic};
use static_bubble_repro::topology::{FaultKind, FaultModel, Mesh, Topology};

#[test]
fn static_bubble_survives_a_lifetime_of_faults() {
    let mesh = Mesh::new(8, 8);
    let mut topo = Topology::full(mesh);
    // Design time: bubbles and the plugin are fixed here, once.
    let bubbles = placement::placement(mesh);
    let mut sim = Simulator::with_bubbles(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(mesh, 34),
        UniformTraffic::new(0.12).single_vnet(),
        11,
        &bubbles,
    );

    // Lifetime: four successive fault events, each killing more links. The
    // SAME plugin instance keeps running; only the route planner changes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for epoch in 0..4 {
        sim.run(2_000);
        let model = FaultModel::new(FaultKind::Links, 6);
        // Layer new faults on the current topology.
        let fresh = model.inject(mesh, &mut rng);
        for link in Topology::full(mesh).alive_links() {
            if !fresh.link_alive(link.node, link.dir) {
                topo.remove_link(link.node, link.dir);
            }
        }
        sim.reconfigure(&topo, Box::new(MinimalRouting::new(&topo)));
        // Coverage still holds on every derived topology (the corollary).
        assert!(
            placement::coverage_holds_on(&topo),
            "epoch {epoch}: coverage lost"
        );
    }
    sim.run(2_000);
    let delivered_under_faults = sim.core().stats().delivered_packets;
    assert!(delivered_under_faults > 3_000, "network stayed productive");

    // Drain completely: nothing may be wedged after 4 reconfigurations.
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(
        sim.run_until_drained(200_000),
        "drain failed with {} in flight / {} queued / {} frozen",
        sim.core().in_flight(),
        sim.core().queued(),
        sim.plugin().frozen_routers(),
    );
    let s = sim.core().stats();
    assert_eq!(
        s.offered_packets,
        s.delivered_packets + s.dropped_packets + s.lost_packets
    );
}

#[test]
fn dead_bubble_routers_are_harmless() {
    // "Even if the nodes with static bubbles are themselves faulty/turned
    // off, the dependence chain gets broken and the network will still be
    // deadlock free."
    let mesh = Mesh::new(8, 8);
    let mut topo = Topology::full(mesh);
    // Kill a third of the bubble routers themselves.
    let all_bubbles = placement::placement(mesh);
    for b in all_bubbles.iter().step_by(3) {
        topo.remove_router(*b);
    }
    assert!(placement::coverage_holds_on(&topo));
    let alive = placement::alive_bubbles(&topo);
    assert!(alive.len() < all_bubbles.len());

    let mut sim = Simulator::with_bubbles(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(mesh, 34),
        UniformTraffic::new(0.15).single_vnet(),
        13,
        &alive,
    );
    sim.run(4_000);
    assert!(sim.core().stats().delivered_packets > 2_000);
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(200_000));
}

#[test]
fn a_fault_in_the_middle_of_a_recovery_round_is_cleaned_up() {
    // Safe behaviour while the fault map changes (Stroobant et al.,
    // FASHION): the link the round was latched on dies while the FSM waits
    // in SDisable for its disable to come back. The disable is cut off, and
    // the timeout's enable must not be sent over the dead link either —
    // the bounded enable retries end the round and the restriction TTL
    // lifts what the disable froze on its way.
    let (mut sim, node5) = fig6::build();
    for _ in 0..600 {
        sim.tick();
        if sim.plugin().fsm(node5).unwrap().state == FsmState::SDisable {
            break;
        }
    }
    let fsm = sim.plugin().fsm(node5).unwrap();
    assert_eq!(fsm.state, FsmState::SDisable, "probe latched");
    let (probe_out, tdd) = (fsm.probe_out, fsm.tdd);
    sim.tick();
    sim.tick(); // the disable reaches the first hop, which freezes
    assert!(sim.plugin().frozen_routers() > 0);

    let mut topo = sim.core().topology().clone();
    topo.remove_link(node5, probe_out);
    sim.reconfigure(&topo, Box::new(MinimalRouting::new(&topo)));
    let sent_before: u64 = sim.core().stats().special_link_flits.iter().sum();
    let in_flight_before = sim.plugin().in_flight_messages() as u64;

    // Nothing is accounted on the dead link: the messages sent from now on
    // are the onward hops of what was already in flight, at most one per
    // cycle, never an enable from node 5 (its only way out is `probe_out`).
    let ttl = 64 * tdd;
    let mut quiet = None;
    for t in 0..=ttl {
        sim.tick();
        let done = sim.plugin().frozen_routers() == 0
            && sim.plugin().in_flight_messages() == 0
            && !sim.plugin().fsm(node5).unwrap().in_recovery();
        if done {
            quiet = Some(t);
            break;
        }
    }
    assert!(
        quiet.is_some(),
        "within the TTL: {} frozen, {} in flight, FSM {:?}",
        sim.plugin().frozen_routers(),
        sim.plugin().in_flight_messages(),
        sim.plugin().fsm(node5).unwrap().state,
    );
    let enables = sim.core().stats().special_link_flits
        [static_bubble_repro::sim::SpecialClass::Enable.index()];
    assert_eq!(enables, 0, "every enable was refused at the dead link");
    let sent_after: u64 = sim.core().stats().special_link_flits.iter().sum();
    assert!(
        sent_after - sent_before <= 6 * in_flight_before,
        "only the disable already in flight kept travelling"
    );
    let fsm = sim.plugin().fsm(node5).unwrap();
    assert!(matches!(fsm.state, FsmState::SOff | FsmState::SDd));

    // The ring lost its only closing link, so nothing is deadlocked any
    // more: every packet is delivered, dropped or lost, none is stuck.
    assert!(
        sim.run_until_drained(200_000),
        "{} in flight / {} frozen",
        sim.core().in_flight(),
        sim.plugin().frozen_routers(),
    );
    // The 12 staged packets never passed an NI, so they stand in for
    // `offered_packets` in the conservation identity.
    let s = sim.core().stats();
    assert_eq!(12, s.delivered_packets + s.dropped_packets + s.lost_packets);
}
