//! The round-robin winner search against a downstream port whose buffers
//! are partly or wholly full: a vnet with no free buffer there is dropped
//! from the search after one refusal, and nothing that could be granted is
//! dropped with it.

use sb_routing::{Route, XyRouting};
use sb_sim::{
    EscapeVcPlugin, InputRef, NetCore, NewPacket, NoTraffic, NullPlugin, OutPort, Packet, PacketId,
    PacketMode, Plugin, SimConfig, Simulator, SlotRef, VcRef,
};
use sb_topology::{Direction, Mesh, NodeId, Topology};

/// The router under test: the centre of a 3x3 mesh. Its candidates want
/// East, so the downstream port is the West input of [`EAST`].
const CENTRE: NodeId = NodeId(4);
const EAST: NodeId = NodeId(5);
const OUT: OutPort = OutPort::Dir(Direction::East);

fn sim<P: Plugin>(cfg: SimConfig, plugin: P, bubbles: &[NodeId]) -> Simulator<P, NoTraffic> {
    let topo = Topology::full(Mesh::new(3, 3));
    let planner = Box::new(XyRouting::new(&topo));
    Simulator::with_bubbles(&topo, cfg, planner, plugin, NoTraffic, 0, bubbles)
}

fn packet(id: u64, vnet: u8, mode: PacketMode) -> Packet {
    let req = NewPacket {
        src: NodeId(3),
        dst: EAST,
        vnet,
        len_flits: 5,
    };
    let mut pkt = Packet::new(PacketId(id), req, Route::new(vec![Direction::East]), 0);
    if mode == PacketMode::Escape {
        pkt.restamp(Route::new(vec![Direction::East]), mode);
    }
    pkt
}

/// Park a packet in `vc` of [`EAST`]'s West port, still in its hop pipeline
/// so it occupies the buffer without competing for anything.
fn fill_downstream(core: &mut NetCore, vc: u8) {
    let slot = VcRef {
        router: EAST,
        port: Direction::West,
        vc,
    };
    core.place_packet(slot, packet(100 + vc as u64, 0, PacketMode::Normal), 1_000);
}

/// Put a switchable candidate wanting East into `vc` of [`CENTRE`]'s West
/// port.
fn candidate(core: &mut NetCore, vc: u8, pkt: Packet) -> InputRef {
    let slot = VcRef {
        router: CENTRE,
        port: Direction::West,
        vc,
    };
    core.place_packet(slot, pkt, 0);
    InputRef::Vc(slot)
}

/// What the allocator would grant at [`CENTRE`] towards East, searching
/// from round-robin pointer 0.
fn probe<P: Plugin>(sim: &Simulator<P, NoTraffic>) -> Option<(InputRef, Option<SlotRef>)> {
    let mut cand = [0u64; 5];
    sim.core().candidate_masks(CENTRE, &mut cand);
    let mask = cand[Direction::East.index()];
    sim.probe_winner(CENTRE, OUT, mask, 0)
        .map(|(_, input, slot)| (input, slot))
}

#[test]
fn a_live_vnet_behind_a_dead_one_is_still_granted() {
    // Table II: 3 vnets x 4 VCs. Downstream, vnet 0 (VCs 0..4) is full and
    // vnet 1 (VCs 4..8) is free.
    let mut sim = sim(SimConfig::default(), NullPlugin, &[]);
    let core = sim.core_mut();
    for vc in 0..4 {
        fill_downstream(core, vc);
        candidate(core, vc, packet(vc as u64, 0, PacketMode::Normal));
    }
    let behind = candidate(core, 4, packet(9, 1, PacketMode::Normal));
    assert_eq!(probe(&sim), Some((behind, Some(SlotRef::Regular(4)))));
    // One vnet-0 candidate settles all four; the vnet-1 one is the second.
    sim.tick();
    let k = sim.kernel_counters();
    assert_eq!(
        (k.winner_searches, k.candidates_examined, k.grants),
        (1, 2, 1)
    );
}

#[test]
fn a_full_single_vnet_port_costs_one_candidate() {
    let mut sim = sim(SimConfig::single_vnet(), NullPlugin, &[]);
    let core = sim.core_mut();
    for vc in 0..4 {
        fill_downstream(core, vc);
        candidate(core, vc, packet(vc as u64, 0, PacketMode::Normal));
    }
    assert_eq!(probe(&sim), None);
    sim.tick();
    let k = sim.kernel_counters();
    assert_eq!(
        (k.winner_searches, k.candidates_examined, k.grants),
        (1, 1, 0)
    );
}

#[test]
fn the_escape_vc_alone_keeps_its_vnet_in_the_search() {
    // 4 VCs: 0..3 regular, 3 the escape VC. Downstream only the escape VC
    // is free, so `Normal` candidates are refused while the vnet is alive —
    // the `Escape`-mode candidate behind them must still be reached.
    let topo = Topology::full(Mesh::new(3, 3));
    let mut sim = sim(
        SimConfig::single_vnet(),
        EscapeVcPlugin::new(&topo, 1_000_000),
        &[],
    );
    let core = sim.core_mut();
    for vc in 0..3 {
        fill_downstream(core, vc);
        candidate(core, vc, packet(vc as u64, 0, PacketMode::Normal));
    }
    let escaped = candidate(core, 3, packet(9, 0, PacketMode::Escape));
    assert_eq!(probe(&sim), Some((escaped, Some(SlotRef::Regular(3)))));
    sim.tick();
    let k = sim.kernel_counters();
    assert_eq!(
        (k.winner_searches, k.candidates_examined, k.grants),
        (1, 4, 1)
    );
}

/// Static Bubble's slot rule — first free regular VC, else the attached
/// bubble — narrowed, as the slot contract allows, to refuse odd packet
/// ids: a plugin that can say no while a buffer of the vnet is free.
struct PickyBubbleSlots;

impl Plugin for PickyBubbleSlots {
    fn pick_slot(
        &self,
        core: &NetCore,
        r: NodeId,
        port: Direction,
        pkt: &Packet,
    ) -> Option<SlotRef> {
        if pkt.id.0 % 2 == 1 {
            return None;
        }
        let regular = core.first_free_regular_vc(r, port, pkt.vnet);
        regular.map(SlotRef::Regular).or_else(|| {
            core.bubble_available(r, port, pkt.vnet)
                .then_some(SlotRef::Bubble)
        })
    }
}

#[test]
fn a_free_attached_bubble_keeps_its_vnet_in_the_search() {
    let mut sim = sim(SimConfig::single_vnet(), PickyBubbleSlots, &[EAST]);
    let core = sim.core_mut();
    for vc in 0..4 {
        fill_downstream(core, vc);
    }
    candidate(core, 0, packet(1, 0, PacketMode::Normal)); // refused: odd id
    let even = candidate(core, 1, packet(2, 0, PacketMode::Normal));
    // Every regular VC downstream is full: without a bubble the refusal of
    // the first candidate ends the search.
    assert_eq!(probe(&sim), None);
    sim.core_mut().bubble_activate(EAST, Direction::West, 0);
    assert_eq!(probe(&sim), Some((even, Some(SlotRef::Bubble))));
}
