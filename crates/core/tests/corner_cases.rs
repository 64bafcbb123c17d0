//! The Section IV-B corner cases, staged one by one ("The Devil is in the
//! Details").

use sb_routing::{MinimalRouting, Route};
use sb_sim::{NewPacket, NoTraffic, Packet, PacketId, SimConfig, Simulator, VcRef};
use sb_topology::{Direction, Mesh, NodeId, Topology};
use static_bubble::{FsmState, SbOptions, StaticBubblePlugin};

type Sim = Simulator<StaticBubblePlugin, NoTraffic>;

fn place(
    sim: &mut Sim,
    router: NodeId,
    port: Direction,
    vc: u8,
    id: u64,
    dst: NodeId,
    route: Vec<Direction>,
) {
    let pkt = Packet::new(
        PacketId(id),
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
}

/// Stage the standard clockwise 2×2 ring with corners at `(x0, y0)` using
/// single-VC ports; returns the four corner nodes (a, b, c, d).
fn stage_ring(sim: &mut Sim, mesh: Mesh, x0: u16, y0: u16, base_id: u64) -> [NodeId; 4] {
    use Direction::*;
    let (a, b, c, d) = (
        mesh.node_at(x0, y0),
        mesh.node_at(x0, y0 + 1),
        mesh.node_at(x0 + 1, y0 + 1),
        mesh.node_at(x0 + 1, y0),
    );
    place(sim, b, South, 0, base_id + 1, d, vec![East, South]);
    place(sim, c, West, 0, base_id + 2, a, vec![South, West]);
    place(sim, d, North, 0, base_id + 3, b, vec![West, North]);
    place(sim, a, East, 0, base_id + 4, c, vec![North, East]);
    [a, b, c, d]
}

/// "What happens if there are two or more static bubble nodes in a
/// deadlocked cycle and both send out probes? The static bubble node with
/// the higher id is responsible for resolving the deadlock."
#[test]
fn higher_id_bubble_owns_the_cycle() {
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    // Ring corners (1,1),(1,2),(2,2),(2,1) = ids 5, 9, 10, 6. Give BOTH 5
    // and 10 a bubble.
    let low = mesh.node_at(1, 1); // id 5
    let high = mesh.node_at(2, 2); // id 10
    let bubbles = [low, high];
    let mut sim = Simulator::new(
        &topo,
        SimConfig::tiny(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_bubble_nodes(mesh, 6, SbOptions::default(), &bubbles),
        NoTraffic,
        0,
    );
    stage_ring(&mut sim, mesh, 1, 1, 100);
    assert!(sim.deadlocked_now());

    let mut low_recovered = false;
    let mut high_recovered = false;
    for _ in 0..2_000 {
        sim.tick();
        low_recovered |= sim.plugin().fsm(low).unwrap().state == FsmState::SSbActive;
        high_recovered |= sim.plugin().fsm(high).unwrap().state == FsmState::SSbActive;
        if sim.core().in_flight() == 0 {
            break;
        }
    }
    assert_eq!(sim.core().stats().delivered_packets, 4);
    assert!(high_recovered, "the higher id must run the recovery");
    assert!(
        !low_recovered,
        "the lower id must defer (its probes are dropped)"
    );
}

/// "What if there are deadlocks in two cycles that are both sharing only
/// one static bubble? The static bubble will successfully resolve the
/// deadlocks one after the other."
#[test]
fn one_bubble_resolves_two_cycles_serially() {
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    // Two 2x2 rings that both pass through the hub router (1,1), which is
    // the only static bubble: ring A has corners (1,0),(1,1),(2,1),(2,0)
    // (the hub is its north-west corner), ring B has corners (0,1),(0,2),
    // (1,2),(1,1) (the hub is its south-east corner). The hub must resolve
    // them serially.
    let hub = mesh.node_at(1, 1);
    let bubbles = [hub];
    let mut sim = Simulator::new(
        &topo,
        SimConfig::tiny(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_bubble_nodes(mesh, 6, SbOptions::default(), &bubbles),
        NoTraffic,
        0,
    );
    stage_ring(&mut sim, mesh, 1, 0, 200); // ring A through the hub
    stage_ring(&mut sim, mesh, 0, 1, 300); // ring B through the hub
    assert!(sim.deadlocked_now());
    assert!(
        sim.run_until_drained(30_000),
        "{} packets stuck",
        sim.core().in_flight()
    );
    assert_eq!(sim.core().stats().delivered_packets, 8);
    // The hub resolved both cycles (serially: two separate disable returns).
    assert!(sim.core().stats().deadlocks_recovered >= 2);
}

/// A cycle with NO static bubble on it stays deadlocked — coverage is what
/// makes the placement matter (control experiment for the Lemma).
#[test]
fn uncovered_cycle_stays_deadlocked() {
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    // Bubble far away from the ring.
    let bubbles = [mesh.node_at(3, 3)];
    let mut sim = Simulator::new(
        &topo,
        SimConfig::tiny(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_bubble_nodes(mesh, 6, SbOptions::default(), &bubbles),
        NoTraffic,
        0,
    );
    stage_ring(&mut sim, mesh, 0, 0, 400);
    assert!(sim.deadlocked_now());
    assert!(!sim.run_until_drained(10_000));
    assert!(sim.deadlocked_now(), "no bubble on the cycle, no recovery");
    assert_eq!(sim.core().stats().delivered_packets, 0);
}

/// The paper's placement puts a bubble on *every* cycle, so the previous
/// scenario is impossible with the real placement: the same ring staged
/// anywhere recovers (sampled here at all four corner positions of the
/// mesh quadrant boundaries).
#[test]
fn real_placement_covers_every_staging() {
    let mesh = Mesh::new(8, 8);
    let topo = Topology::full(mesh);
    for (x0, y0) in [(0u16, 0u16), (3, 0), (0, 3), (5, 5), (6, 0), (0, 6)] {
        let mut sim = Simulator::new(
            &topo,
            SimConfig::tiny(),
            Box::new(MinimalRouting::new(&topo)),
            StaticBubblePlugin::new(&topo, 6),
            NoTraffic,
            0,
        );
        stage_ring(&mut sim, mesh, x0, y0, 500);
        assert!(sim.deadlocked_now());
        assert!(
            sim.run_until_drained(5_000),
            "ring at ({x0},{y0}) not recovered"
        );
        assert_eq!(sim.core().stats().delivered_packets, 4);
    }
}
