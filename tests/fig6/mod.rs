//! The Fig. 6 staging shared by `walkthrough.rs` and `plug_and_play.rs`: the
//! six-router ring of the paper's walk-through on a 4×4 mesh, two stuck
//! packets per ring port, one static bubble at "node 5".

use static_bubble_repro::core::{SbOptions, StaticBubblePlugin};
use static_bubble_repro::routing::{MinimalRouting, Route};
use static_bubble_repro::sim::{
    NewPacket, NoTraffic, Packet, PacketId, SimConfig, Simulator, VcRef,
};
use static_bubble_repro::topology::{Direction, Mesh, NodeId, Topology};

pub type Sim = Simulator<StaticBubblePlugin, NoTraffic>;

pub fn place(
    sim: &mut Sim,
    router: NodeId,
    port: Direction,
    vc: u8,
    name: char,
    dst: NodeId,
    route: Vec<Direction>,
) {
    let pkt = Packet::new(
        PacketId(name as u64),
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

pub fn build() -> (Sim, NodeId) {
    use Direction::*;
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    let node5 = mesh.node_at(1, 1); // id 5, like the paper
    let cfg = SimConfig {
        vnets: 1,
        vcs_per_vnet: 2, // the walkthrough draws VC1/VC0 pairs
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

    let (n0, n1, n4, n8, n9, n10) = (
        mesh.node_at(0, 0),
        mesh.node_at(1, 0),
        mesh.node_at(0, 1),
        mesh.node_at(0, 2),
        mesh.node_at(1, 2),
        mesh.node_at(2, 2),
    );
    // The deadlocked ring, two packets per chain VC pair. Each chain
    // packet's route continues *around the ring*, so the slack opened when
    // the side packets (Z, M, N) drain is absorbed and the knot settles
    // into a stable deadlock — the snapshot Fig. 6 draws.
    place(&mut sim, node5, South, 1, 'I', n8, vec![North, West]); // (I,J) want N
    place(&mut sim, node5, South, 0, 'J', n8, vec![North, West]);
    place(&mut sim, n9, South, 0, 'K', n4, vec![West, South]); // K wants W
    place(&mut sim, n9, South, 1, 'Z', n4, vec![West, South]); // Z rides with K
    place(&mut sim, n8, East, 0, 'A', n0, vec![South, South]); // (A,B) want S
    place(&mut sim, n8, East, 1, 'B', n0, vec![South, South]);
    place(&mut sim, n4, North, 0, 'C', n1, vec![South, East]); // (C,D) want S
    place(&mut sim, n4, North, 1, 'D', n1, vec![South, East]);
    place(&mut sim, n0, North, 0, 'E', node5, vec![East, North]); // (E,F) want E
    place(&mut sim, n0, North, 1, 'F', node5, vec![East, North]);
    place(&mut sim, n1, West, 0, 'G', n9, vec![North, North]); // (G,H) want N
    place(&mut sim, n1, West, 1, 'H', n9, vec![North, North]);
    let _ = n10;
    (sim, node5)
}
