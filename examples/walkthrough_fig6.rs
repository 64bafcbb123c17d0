//! Watch the paper's Fig. 6 walk-through happen, phase by phase: a staged
//! six-router deadlock ring, the probe tracing it (recording L,L,S,L,L),
//! the disable freezing it, the bubble turning and draining it, and the
//! enable cleaning up.
//!
//! ```text
//! cargo run --release --example walkthrough_fig6
//! ```

use static_bubble_repro::core::{FsmState, SbOptions, StaticBubblePlugin};
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{
    NewPacket, NoTraffic, Packet, PacketId, SimConfig, Simulator, VcRef,
};
use static_bubble_repro::topology::{Direction, Mesh, NodeId, Topology};

fn main() {
    use Direction::*;
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    let node5 = mesh.node_at(1, 1);
    let cfg = SimConfig {
        vnets: 1,
        vcs_per_vnet: 2,
        max_packet_flits: 5,
    };
    let mut sim = Simulator::new(
        &topo,
        cfg,
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_bubble_nodes(mesh, 8, SbOptions::default(), &[node5]),
        NoTraffic,
        0,
    );

    let (n0, n1, n4, n8, n9) = (
        mesh.node_at(0, 0),
        mesh.node_at(1, 0),
        mesh.node_at(0, 1),
        mesh.node_at(0, 2),
        mesh.node_at(1, 2),
    );
    let place = |sim: &mut Simulator<StaticBubblePlugin, NoTraffic>,
                 router: NodeId,
                 port: Direction,
                 vc: u8,
                 name: char,
                 dst: NodeId,
                 route: Vec<Direction>| {
        let pkt = Packet::new(
            PacketId(name as u64),
            NewPacket {
                src: router,
                dst,
                vnet: 0,
                len_flits: 5,
            },
            static_bubble_repro::routing::Route::new(route),
            0,
        );
        sim.core_mut()
            .place_packet(VcRef { router, port, vc }, pkt, 0);
    };
    // The (A,B)→(C)→(E,F)→(G,H)→(I,J)→(K)→(A,B) ring of Fig. 6.
    place(&mut sim, node5, South, 1, 'I', n8, vec![North, West]);
    place(&mut sim, node5, South, 0, 'J', n8, vec![North, West]);
    place(&mut sim, n9, South, 0, 'K', n4, vec![West, South]);
    place(&mut sim, n9, South, 1, 'Z', n4, vec![West, South]);
    place(&mut sim, n8, East, 0, 'A', n0, vec![South, South]);
    place(&mut sim, n8, East, 1, 'B', n0, vec![South, South]);
    place(&mut sim, n4, North, 0, 'C', n1, vec![South, East]);
    place(&mut sim, n4, North, 1, 'D', n1, vec![South, East]);
    place(&mut sim, n0, North, 0, 'E', node5, vec![East, North]);
    place(&mut sim, n0, North, 1, 'F', node5, vec![East, North]);
    place(&mut sim, n1, West, 0, 'G', n9, vec![North, North]);
    place(&mut sim, n1, West, 1, 'H', n9, vec![North, North]);

    println!(
        "staged ring (12 packets, 2 per port); deadlocked: {}\n",
        sim.deadlocked_now()
    );
    println!("occupancy (node 5 = the static-bubble router, centre-left):");
    println!("{}", sim.core().occupancy_art());

    let mut last_state = FsmState::SOff;
    let mut last_frozen = 0;
    for _ in 0..2_000 {
        sim.tick();
        let fsm = sim.plugin().fsm(node5).expect("SB node");
        let frozen = sim.plugin().frozen_routers();
        if fsm.state != last_state || frozen != last_frozen {
            let turns: Vec<String> = fsm.turn_buffer.iter().map(|t| t.to_string()).collect();
            println!(
                "t={:4}  FSM {:?} -> {:?}  frozen={}  turn_buffer=[{}]  delivered={}",
                sim.time(),
                last_state,
                fsm.state,
                frozen,
                turns.join(","),
                sim.core().stats().delivered_packets,
            );
            last_state = fsm.state;
            last_frozen = frozen;
        }
        if sim.core().in_flight() == 0 && frozen == 0 {
            break;
        }
    }
    let s = sim.core().stats();
    println!(
        "\nrecovered: {} deadlock(s); {} packets delivered; probes={} disables+enables ran",
        s.deadlocks_recovered, s.delivered_packets, s.probes_sent
    );
    println!("final occupancy:\n{}", sim.core().occupancy_art());
}
