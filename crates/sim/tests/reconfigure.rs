//! Runtime reconfiguration: the operation the resiliency and power-gating
//! domains perform when a component fails or gates off mid-run.

use sb_routing::MinimalRouting;
use sb_sim::UniformTraffic;
use sb_sim::{NewPacket, NoTraffic, NullPlugin, ScriptedTraffic, SimConfig, Simulator};
use sb_topology::{Direction, Mesh, Topology};

#[test]
fn link_failure_reroutes_in_flight_packets() {
    let mesh = Mesh::new(6, 6);
    let topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.1).single_vnet(),
        3,
    );
    sim.run(500);
    assert!(sim.core().in_flight() > 0, "need packets in flight");

    // A column of links fails at runtime.
    let mut faulty = topo.clone();
    for y in 0..6 {
        if y != 3 {
            faulty.remove_link(mesh.node_at(2, y), Direction::East);
        }
    }
    sim.reconfigure(&faulty, Box::new(MinimalRouting::new(&faulty)));

    // Still connected (one link survives): nothing is lost, everything
    // rerouted and eventually delivered.
    assert_eq!(sim.core().stats().lost_packets, 0);
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(50_000));
    let s = sim.core().stats();
    assert_eq!(s.delivered_packets + s.dropped_packets, s.offered_packets);
}

#[test]
fn router_failure_loses_its_resident_packets_only() {
    let mesh = Mesh::new(6, 6);
    let topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.15).single_vnet(),
        7,
    );
    sim.run(600);
    let dead = mesh.node_at(3, 3);
    let mut faulty = topo.clone();
    faulty.remove_router(dead);
    sim.reconfigure(&faulty, Box::new(MinimalRouting::new(&faulty)));
    // The network still drains; offered = delivered + dropped + lost.
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(50_000));
    let s = sim.core().stats();
    assert_eq!(
        s.offered_packets,
        s.delivered_packets + s.dropped_packets + s.lost_packets
    );
}

#[test]
fn partition_drops_unreachable_queued_packets() {
    let mesh = Mesh::new(4, 2);
    let topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.4).single_vnet(),
        5,
    );
    sim.run(300);
    // Split the mesh down the middle.
    let mut split = topo.clone();
    for y in 0..2 {
        split.remove_link(mesh.node_at(1, y), Direction::East);
    }
    sim.reconfigure(&split, Box::new(MinimalRouting::new(&split)));
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(50_000));
    let s = sim.core().stats();
    assert!(
        s.dropped_packets + s.lost_packets > 0,
        "cross-partition flows must have been culled"
    );
    assert_eq!(
        s.offered_packets,
        s.delivered_packets + s.dropped_packets + s.lost_packets
    );
}

/// A reconfiguration restamps the packet waiting at the head of an
/// injection queue, and the allocator follows the new route: a backlog at
/// one source whose only minimal first hop fails mid-run leaves by the
/// detour, audited every cycle, and all of it is delivered.
#[test]
fn a_queued_head_leaves_by_its_new_route() {
    let mesh = Mesh::new(3, 2);
    let topo = Topology::full(mesh);
    let (src, dst) = (mesh.node_at(0, 0), mesh.node_at(2, 0));
    let packet = NewPacket {
        src,
        dst,
        vnet: 0,
        len_flits: 5,
    };
    let burst = ScriptedTraffic::new(vec![(0, packet); 40]);
    let planner = Box::new(MinimalRouting::new(&topo));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        planner,
        NullPlugin,
        burst,
        1,
    );
    sim.set_audit(1);
    sim.run(20);
    assert!(sim.core().queued() > 10, "the burst backs up at its source");
    let mut faulty = topo.clone();
    faulty.remove_link(src, Direction::East);
    sim.reconfigure(&faulty, Box::new(MinimalRouting::new(&faulty)));
    assert!(
        sim.run_until_drained(10_000),
        "the backlog takes the detour"
    );
    let s = sim.core().stats();
    assert_eq!(
        (s.delivered_packets, s.dropped_packets, s.lost_packets),
        (40, 0, 0)
    );
}
