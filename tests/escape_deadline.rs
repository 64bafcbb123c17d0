//! The escape-VC baseline's timeout (Section II-B) as a literal tick: a
//! Normal packet stalled in a VC from `ready_at` on moves to the escape
//! network at exactly `ready_at + t_DD − 1`, the tick its stall reaches
//! `t_DD` cycles, whether the engine executes every cycle or leaps over the
//! dead ones. The plugin stores no stall clock (it reads the stall off the
//! VC's ready time), so this pins the derivation, the sweep bound and the
//! timer the leap obeys.

use static_bubble_repro::routing::{MinimalRouting, Route};
use static_bubble_repro::sim::{
    EscapeVcPlugin, NewPacket, NoTraffic, Packet, PacketId, PacketMode, SimConfig, Simulator, VcRef,
};
use static_bubble_repro::topology::{Direction, Mesh, NodeId, Topology};

const TDD: u64 = 5;

/// The stalled packet's router (an interior one of the 4×4) and slot.
const R: NodeId = NodeId(5);
const SLOT: VcRef = VcRef {
    router: R,
    port: Direction::West,
    vc: 0,
};

/// Cycles run after the packet is placed: four more `t_DD` periods past
/// the escalation, ending on a tick that is not one of its multiples, so a
/// leap that skipped the escalation tick would not land on another.
const RUN: u64 = 4 * TDD + 2;

/// A 4×4 where, after one executed tick, every VC of the port the packet at
/// `SLOT` wants is full of packets that are not switchable for a long
/// while, and the packet itself is placed switchable at once. Returns the
/// simulator and the packet's `ready_at`.
fn stalled(full_scan: bool) -> (Simulator<EscapeVcPlugin, NoTraffic>, u64) {
    let topo = Topology::full(Mesh::new(4, 4));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        EscapeVcPlugin::new(&topo, TDD),
        NoTraffic,
        0,
    );
    sim.scan_all_routers(full_scan);
    // The first tick sweeps the empty network: no packet placed after it
    // escalates before `t_DD` cycles later, and this one is due exactly
    // then, the earliest put that bound has to cover.
    sim.run(1);
    let east = topo.neighbor(R, Direction::East).expect("interior");
    let packet = |id, src, dst, route| {
        let req = NewPacket {
            src,
            dst,
            vnet: 0,
            len_flits: 5,
        };
        Packet::new(PacketId(id), req, Route::new(route), 0)
    };
    let core = sim.core_mut();
    for vc in 0..core.config().vcs_per_port() as u8 {
        let full = VcRef {
            router: east,
            port: Direction::West,
            vc,
        };
        // Ejecting occupants: they never stall, so only the packet at
        // `SLOT` can escalate.
        core.place_packet(full, packet(10 + vc as u64, R, east, vec![]), 1_000_000);
    }
    let ready_at = core.time();
    let dst = NodeId(7);
    let route = vec![Direction::East, Direction::East];
    core.place_packet(SLOT, packet(1, R, dst, route), ready_at);
    (sim, ready_at)
}

#[test]
fn a_stalled_packet_escapes_at_ready_plus_tdd_minus_one() {
    let (mut stepped, ready_at) = stalled(true);
    let fire = ready_at + TDD - 1;
    for _ in 0..RUN {
        let t = stepped.time();
        stepped.run(1);
        let mode = stepped.core().vc_occupant(SLOT).map(|p| p.mode);
        if t < fire {
            assert_eq!(mode, Some(PacketMode::Normal), "escalated early, at {t}");
        } else if t == fire {
            assert_eq!(mode, Some(PacketMode::Escape), "not escalated at {t}");
        }
        let escapes = u64::from(t >= fire);
        assert_eq!(stepped.plugin().escapes(), escapes, "after tick {t}");
    }

    // One call: the engine leaps the dead cycles, and its timer must still
    // stop at the escalation tick.
    let (mut leaped, _) = stalled(false);
    leaped.run(RUN);
    assert_eq!(leaped.time(), stepped.time());
    assert_eq!(leaped.plugin().escapes(), 1);
    let json = |sim: &Simulator<EscapeVcPlugin, NoTraffic>| {
        let snap = sim.snapshot().expect("snapshot");
        snap.to_json().expect("encode")
    };
    assert_eq!(json(&leaped), json(&stepped));
}
