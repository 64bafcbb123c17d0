//! A static-bubble router is one unit: the extra buffer and the Fig. 5 FSM
//! that drives it sit at the same router. Whatever `BubbleSpec` a scenario
//! states, the routers holding an FSM are exactly the routers with a
//! buffer, and an explicit list reaches the protocol.

use static_bubble_repro::core::{placement, StaticBubblePlugin};
use static_bubble_repro::scenario::{BubbleSpec, Design, FaultSpec, Scenario, SimRunner};
use static_bubble_repro::topology::{FaultKind, NodeId, Topology};

/// 11 of the 21 placement routers of an 8×8: too few to break every
/// cycle, but each of them must still be able to recover a deadlock.
const ELEVEN: [u16; 11] = [9, 13, 18, 25, 29, 36, 43, 47, 54, 59, 63];

fn ids(nodes: &[u16]) -> Vec<NodeId> {
    nodes.iter().map(|&n| NodeId(n)).collect()
}

/// 8×8 pristine, UR 0.4 in one vnet, seed 3: deadlock-prone enough that a
/// bubble set that drives no FSM stays wedged.
fn scenario(bubbles: BubbleSpec) -> Scenario {
    Scenario::new("bubble-set", Design::StaticBubble)
        .with_rate(0.4)
        .with_seed(3)
        .with_bubbles(bubbles)
}

/// Build `sc` on `topo` and check that the routers holding an FSM and the
/// routers holding a buffer are both `expected`.
fn build_one_set(sc: &Scenario, topo: &Topology, expected: &[NodeId]) -> Box<dyn SimRunner> {
    let runner = sc.build_on(topo);
    let plugin = (runner.plugin_any().downcast_ref::<StaticBubblePlugin>())
        .expect("a Static Bubble runner holds the Static Bubble plugin");
    let core = runner.core();
    let nodes = || topo.mesh().nodes();
    let fsms: Vec<NodeId> = nodes().filter(|&n| plugin.fsm(n).is_some()).collect();
    let buffers: Vec<NodeId> = nodes().filter(|&n| core.has_bubble(n)).collect();
    assert_eq!(fsms, buffers, "{:?}: FSMs and buffers disagree", sc.bubbles);
    assert_eq!(fsms, expected, "{:?}", sc.bubbles);
    runner
}

#[test]
fn auto_is_the_alive_placement_on_a_router_faulty_topology() {
    let (kind, count, seed) = (FaultKind::Routers, 12, 5);
    let faults = FaultSpec::Model { kind, count, seed };
    let sc = scenario(BubbleSpec::Auto).with_faults(faults);
    let topo = sc.topology();
    let alive = placement::alive_bubbles(&topo);
    assert!(alive.len() < 21, "the faults must kill a placement router");
    build_one_set(&sc, &topo, &alive);
}

#[test]
fn an_explicit_list_is_the_bubble_set() {
    let sc = scenario(BubbleSpec::Explicit(ids(&[63, 0])));
    build_one_set(&sc, &sc.topology(), &ids(&[0, 63]));
}

#[test]
fn an_empty_list_has_no_bubble_and_sends_no_probe() {
    let sc = scenario(BubbleSpec::Explicit(Vec::new()));
    let mut runner = build_one_set(&sc, &sc.topology(), &[]);
    runner.run(3_000);
    assert_eq!(runner.stats().probes_sent, 0);
}

#[test]
fn eleven_of_the_placement_recover_deadlocks() {
    let sc = scenario(BubbleSpec::Explicit(ids(&ELEVEN)));
    let mut runner = build_one_set(&sc, &sc.topology(), &ids(&ELEVEN));
    runner.warmup(500);
    runner.run(8_000);
    let stats = runner.stats();
    assert!(stats.deadlocks_recovered > 0, "{stats:?}");
}
