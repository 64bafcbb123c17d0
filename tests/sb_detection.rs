//! The detection half of Fig. 5 as literal ticks, at one static-bubble
//! router of a 4×4 with t_DD = 5: the counter starts the tick after a VC
//! fills, counts while the watched packet waits for a mesh output, sends
//! the first probe on exactly the tick its count reaches `t_DD` plus the
//! router's `id % 7` stagger, moves past an ejecting occupant, and follows
//! a VC that is emptied and refilled between two ticks to its new packet.
//! The same schedule run with every cycle executed and with the dead ones
//! leaped leaves the same snapshot.

use static_bubble_repro::core::{FsmState, SbFsm, SbOptions, StaticBubblePlugin};
use static_bubble_repro::routing::{MinimalRouting, Route};
use static_bubble_repro::sim::{
    NewPacket, NoTraffic, Packet, PacketId, SimConfig, Simulator, VcRef,
};
use static_bubble_repro::topology::{Direction, Mesh, NodeId, Topology};

const TDD: u64 = 5;

/// The bubble router (interior: its stagger is `5 % 7 = 5`), its west
/// neighbour, where the watched packet starts, and its east neighbour, whose
/// west port the packet waits for.
const R: NodeId = NodeId(5);
const W: NodeId = NodeId(4);
const E: NodeId = NodeId(6);

/// R's detection threshold: `t_DD` plus the stagger.
const FIRST: u64 = TDD + R.0 as u64 % 7;

/// Where the packet that crosses from W lands at R.
const WATCHED: VcRef = VcRef {
    router: R,
    port: Direction::West,
    vc: 0,
};

/// Where the ejecting packet is put at R.
const EJECTING: VcRef = VcRef {
    router: R,
    port: Direction::North,
    vc: 0,
};

/// Not switchable before the test ends.
const NEVER: u64 = 1_000_000;

/// The cycle in whose allocation the packet from W is put into `WATCHED`.
const PUT: u64 = 0;

/// The tick that starts the count, and the tick it reaches `FIRST`.
const WATCH: u64 = PUT + 1;
const FIRE: u64 = WATCH + FIRST;

/// A cycle before `FIRE` at which the ejecting packet is put at R, and
/// the cycle at which the watched VC is emptied and refilled (and the
/// ejecting packet removed).
const EJECT_AT: u64 = WATCH + 3;
const REFILL_AT: u64 = FIRE + 4;

/// The cycles run in all.
const END: u64 = REFILL_AT + 3;

type Sim = Simulator<StaticBubblePlugin, NoTraffic>;

fn packet(id: u64, src: NodeId, dst: NodeId, route: Vec<Direction>) -> Packet {
    let req = NewPacket {
        src,
        dst,
        vnet: 0,
        len_flits: 5,
    };
    Packet::new(PacketId(id), req, Route::new(route), 0)
}

/// The 4×4 with R's east output blocked for good (E's west port full of
/// packets ejecting at E that are never switchable) and packet 1 at W,
/// switchable at once, bound through R to E.
fn build(full_scan: bool) -> Sim {
    let topo = Topology::full(Mesh::new(4, 4));
    let plugin =
        StaticBubblePlugin::with_bubble_nodes(topo.mesh(), TDD, SbOptions::default(), &[R]);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        plugin,
        NoTraffic,
        0,
    );
    sim.scan_all_routers(full_scan);
    let core = sim.core_mut();
    for vc in 0..core.config().vcs_per_port() as u8 {
        let full = VcRef {
            router: E,
            port: Direction::West,
            vc,
        };
        core.place_packet(full, packet(10 + vc as u64, R, E, vec![]), NEVER);
    }
    let start = VcRef {
        router: W,
        port: Direction::South,
        vc: 0,
    };
    let east = vec![Direction::East, Direction::East];
    core.place_packet(start, packet(1, W, E, east), 0);
    sim
}

/// The hand moves of the schedule due at cycle `t`, made before it runs.
fn hand_moves(sim: &mut Sim, t: u64) {
    let core = sim.core_mut();
    if t == EJECT_AT {
        core.place_packet(EJECTING, packet(2, W, R, vec![]), NEVER);
    }
    if t == REFILL_AT {
        core.remove_packet(EJECTING).expect("still parked");
        core.remove_packet(WATCHED).expect("still blocked");
        let east = vec![Direction::East];
        core.place_packet(WATCHED, packet(3, W, E, east), t);
    }
}

fn fsm(sim: &Sim) -> &SbFsm {
    sim.plugin().fsm(R).expect("R has the bubble")
}

/// Which packet the counter watches, and where.
fn watching(sim: &Sim) -> Option<(VcRef, PacketId)> {
    let w = fsm(sim).watching?;
    let vc = VcRef {
        router: R,
        port: w.port,
        vc: w.vc,
    };
    Some((vc, w.pkt))
}

fn json(sim: &Sim) -> String {
    sim.snapshot().expect("snapshot").to_json().expect("encode")
}

#[test]
fn detection_counts_fires_and_repoints_on_the_paper_ticks() {
    let mut stepped = build(true);
    for t in 0..END {
        assert_eq!(stepped.time(), t);
        hand_moves(&mut stepped, t);
        stepped.run(1);
        let (fsm, probes) = (fsm(&stepped), stepped.core().stats().probes_sent);
        match t {
            // The tick runs before the allocation that puts the packet.
            PUT => {
                assert!(stepped.core().vc_occupant(WATCHED).is_some(), "put at {t}");
                assert_eq!(fsm.state, FsmState::SOff, "tick {t}");
            }
            // Counting: one a tick from the tick after the put.
            WATCH..FIRE => {
                assert_eq!(fsm.state, FsmState::SDd, "tick {t}");
                assert_eq!(watching(&stepped), Some((WATCHED, PacketId(1))), "tick {t}");
                assert_eq!(fsm.count, t - WATCH, "tick {t}");
                assert_eq!(probes, 0, "probe before the count reached {FIRST}, at {t}");
            }
            // The probe leaves out of the output the packet waits for, and
            // the pointer moves on round-robin: to the ejecting packet.
            FIRE => {
                assert_eq!(probes, 1, "no probe at {t}");
                assert_eq!(fsm.probe_out, Direction::East);
                assert_eq!(fsm.count, 0);
                assert_eq!(fsm.probe_backoff, 1);
                assert_eq!(watching(&stepped), Some((EJECTING, PacketId(2))));
            }
            // It does not wait for a mesh output: the pointer moves past it
            // at once, and the counter restarts on the blocked packet.
            _ if t == FIRE + 1 => {
                assert_eq!(watching(&stepped), Some((WATCHED, PacketId(1))), "tick {t}");
                assert_eq!((fsm.count, fsm.probe_backoff), (0, 0), "tick {t}");
            }
            // Emptied and refilled between two ticks: the new packet is
            // watched from a count of zero.
            _ if t == REFILL_AT => {
                assert_eq!(fsm.state, FsmState::SDd);
                assert_eq!(watching(&stepped), Some((WATCHED, PacketId(3))), "tick {t}");
                assert_eq!(fsm.count, 0, "tick {t}");
            }
            _ => {}
        }
    }
    assert_eq!(stepped.core().stats().probes_sent, 1);
    assert_eq!(fsm(&stepped).count, END - 1 - REFILL_AT);

    // The same schedule with the dead cycles leaped between the hand moves.
    let mut leaped = build(false);
    for at in [EJECT_AT, REFILL_AT, END] {
        let now = leaped.time();
        leaped.run(at - now);
        hand_moves(&mut leaped, at);
    }
    assert_eq!(leaped.time(), stepped.time());
    assert_eq!(json(&leaped), json(&stepped));
}
