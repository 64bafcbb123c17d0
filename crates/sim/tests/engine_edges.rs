//! Engine edge cases: argument validation, vnet clamping, arbitration
//! fairness, hook defaults.

use sb_routing::XyRouting;
use sb_sim::{NetCore, NewPacket, NoTraffic, NullPlugin, Plugin, ScriptedTraffic, SimConfig};
use sb_sim::{Simulator, TrafficSource};
use sb_topology::{Mesh, NodeId, Topology};

/// A no-mechanism engine with XY routes over `topo`.
fn xy<T: TrafficSource>(topo: &Topology, cfg: SimConfig, traffic: T) -> Simulator<NullPlugin, T> {
    let planner = Box::new(XyRouting::new(topo));
    Simulator::new(topo, cfg, planner, NullPlugin, traffic, 0)
}

/// One packet from node 0 at cycle 0.
fn one_packet(dst: u16, vnet: u8, len_flits: u16) -> ScriptedTraffic {
    let (src, dst) = (NodeId(0), NodeId(dst));
    let packet = NewPacket {
        src,
        dst,
        vnet,
        len_flits,
    };
    ScriptedTraffic::new(vec![(0, packet)])
}

#[test]
#[should_panic(expected = "packet length")]
fn oversized_packets_are_rejected() {
    let topo = Topology::full(Mesh::new(2, 2));
    xy(&topo, SimConfig::tiny(), one_packet(3, 0, 6)).tick(); // max 5 flits
}

#[test]
#[should_panic(expected = "packet length")]
fn zero_length_packets_are_rejected() {
    let topo = Topology::full(Mesh::new(2, 2));
    xy(&topo, SimConfig::tiny(), one_packet(3, 0, 0)).tick();
}

#[test]
fn out_of_range_vnets_are_clamped() {
    let topo = Topology::full(Mesh::new(3, 1));
    // One vnet: vnet 7 is clamped to 0.
    let mut sim = xy(&topo, SimConfig::tiny(), one_packet(2, 7, 1));
    assert!(sim.run_until_drained(100));
    assert_eq!(sim.core().stats().delivered_packets, 1);
}

#[test]
fn round_robin_shares_a_contended_output() {
    // Two sources feed the same column; the shared link must serve both
    // within a factor ~2 of each other over a long window.
    let mesh = Mesh::new(3, 3);
    let topo = Topology::full(mesh);
    // Packets from (0,1) and (0,2)... both cross (1,1) -> (2,1) after an
    // XY turn; instead use two flows that share the final link into (2,1):
    // (0,1)->(2,1) and (1,0)... simplest: alternate injections from two
    // sources to one sink along the same row.
    let mut script = Vec::new();
    for i in 0..200u64 {
        script.push((
            i,
            NewPacket {
                src: mesh.node_at(0, 1),
                dst: mesh.node_at(2, 1),
                vnet: 0,
                len_flits: 1,
            },
        ));
        script.push((
            i,
            NewPacket {
                src: mesh.node_at(1, 2),
                dst: mesh.node_at(2, 1),
                vnet: 0,
                len_flits: 1,
            },
        ));
    }
    let mut sim = xy(
        &topo,
        SimConfig::single_vnet(),
        ScriptedTraffic::new(script),
    );
    assert!(sim.run_until_drained(20_000));
    assert_eq!(sim.core().stats().delivered_packets, 400);
}

/// The last inner batch is clamped to the remaining budget, so a check
/// interval that does not divide `max_cycles`, or exceeds it, still ends
/// exactly on budget — it used to round up to the next multiple of
/// `check_every`.
#[test]
fn run_until_deadlock_never_overshoots_the_budget() {
    let topo = Topology::full(Mesh::new(3, 3));
    for (budget, check_every) in [(100, 10), (100, 7), (42, 1_000)] {
        let mut sim = xy(&topo, SimConfig::single_vnet(), NoTraffic);
        assert_eq!(sim.run_until_deadlock(budget, check_every), None);
        assert_eq!(sim.time(), budget, "checking every {check_every}");
    }
}

#[test]
fn fairness_index_distinguishes_uniform_from_hotspot() {
    use sb_routing::MinimalRouting;
    use sb_sim::UniformTraffic;
    let mesh = Mesh::new(6, 6);
    let topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.1).single_vnet(),
        5,
    );
    sim.warmup(1_000);
    sim.run(5_000);
    let uniform_fairness = sim.core().delivery_fairness().unwrap();
    assert!(
        uniform_fairness > 0.9,
        "uniform traffic should serve nodes evenly, got {uniform_fairness}"
    );
    // A single-sink script is maximally unfair.
    let mut sink = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        ScriptedTraffic::new(
            (0..100)
                .map(|i| {
                    (
                        i,
                        NewPacket {
                            src: mesh.node_at(0, 0),
                            dst: mesh.node_at(5, 5),
                            vnet: 0,
                            len_flits: 1,
                        },
                    )
                })
                .collect(),
        ),
        5,
    );
    assert!(sink.run_until_drained(10_000));
    let sink_fairness = sink.core().delivery_fairness().unwrap();
    assert!(
        sink_fairness < 0.1,
        "one sink => fairness ~ 1/36, got {sink_fairness}"
    );
}

#[test]
fn fairness_is_none_before_any_delivery() {
    let topo = Topology::full(Mesh::new(2, 2));
    let sim = xy(&topo, SimConfig::tiny(), NoTraffic);
    assert_eq!(sim.core().delivery_fairness(), None);
}

/// A plugin with a private countdown that does not say when it fires.
#[derive(Default)]
struct Counting {
    cycles_seen: u64,
}

impl Plugin for Counting {
    fn before_cycle(&mut self, _core: &mut NetCore) {
        self.cycles_seen += 1;
    }
}

/// Both hook defaults veto skipping: a plugin that does not override
/// `next_timer` sees every cycle of an idle network, however the run is
/// cut into calls (`NullPlugin`, which has no timed state, says so and is
/// skipped over).
#[test]
fn a_plugin_without_next_timer_sees_every_cycle() {
    let topo = Topology::full(Mesh::new(4, 4));
    let n = 500;
    let seen = |chunk: u64| {
        let planner = Box::new(XyRouting::new(&topo));
        let cfg = SimConfig::tiny();
        let mut sim = Simulator::new(&topo, cfg, planner, Counting::default(), NoTraffic, 0);
        (0..n / chunk).for_each(|_| sim.run(chunk));
        assert_eq!(sim.core().active_count(), 0, "an idle network");
        assert_eq!(sim.time(), n);
        sim.plugin().cycles_seen
    };
    assert_eq!(seen(1), n);
    assert_eq!(seen(n), n);
}
