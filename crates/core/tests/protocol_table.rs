//! The protocol kernel driven from tables: no `Simulator`, no network —
//! `protocol::step` and `protocol::deadline` over hand-built registers and a
//! plain-table [`RouterView`].

use sb_sim::{OutPort, PacketId};
use sb_topology::{Direction, NodeId, Turn, DIRECTIONS};
use static_bubble::fsm::VcPointer;
use static_bubble::protocol::{
    beats, deadline, step, Action, ActionBuf, Arrival, Deadline, Event, Local, Occupant, ProtState,
    RouterView,
};
use static_bubble::{FsmState, MsgKind, SbFsm, SbOptions, SpecialMsg};

const NODE: NodeId = NodeId(5);
const VCS: usize = 2;

/// One router's buffers as a table: `slots[port * VCS + vc]`, one vnet.
#[derive(Clone, Debug)]
struct Table {
    slots: [Option<Occupant>; 4 * VCS],
    bubble_empty: bool,
}

impl RouterView for Table {
    fn vcs_per_port(&self) -> usize {
        VCS
    }
    fn occupancy(&self) -> u64 {
        (self.slots.iter().enumerate())
            .filter(|(_, s)| s.is_some())
            .fold(0, |word, (i, _)| word | 1 << i)
    }
    fn occupant(&self, port: Direction, vc: u8) -> Option<Occupant> {
        self.slots[port.index() * VCS + vc as usize]
    }
    fn all_vcs_occupied(&self, port: Direction, _vnet: u8) -> bool {
        (0..VCS).all(|vc| self.slots[port.index() * VCS + vc].is_some())
    }
    fn wanted_outputs(&self, port: Direction, _vnet: u8) -> Vec<OutPort> {
        let mut out = Vec::new();
        for vc in 0..VCS {
            if let Some(p) = self.slots[port.index() * VCS + vc] {
                let want = p.wants.map_or(OutPort::Eject, OutPort::Dir);
                if !out.contains(&want) {
                    out.push(want);
                }
            }
        }
        out
    }
    fn bubble_empty(&self) -> bool {
        self.bubble_empty
    }
}

/// A table with the South port's VCs holding packets that want `wants`
/// (`None` entries leave the VC empty; `Some(None)` wants ejection).
fn table(south: [Option<Option<Direction>>; VCS], bubble_empty: bool) -> Table {
    let mut slots = [None; 4 * VCS];
    for (vc, wants) in south.into_iter().enumerate() {
        slots[Direction::South.index() * VCS + vc] = wants.map(|wants| Occupant {
            id: PacketId(vc as u64 + 1),
            vnet: 0,
            wants,
        });
    }
    Table {
        slots,
        bubble_empty,
    }
}

/// The enumerated `RouterView` rows: empty, half full, the Fig. 6 chain
/// port (full, both want North), a fork, ejecting packets — each with the
/// bubble empty and occupied.
fn views() -> Vec<Table> {
    use Direction::{East, North};
    let south = [
        [None, None],
        [Some(Some(North)), None],
        [Some(Some(North)), Some(Some(North))],
        [Some(Some(North)), Some(Some(East))],
        [Some(None), Some(Some(North))],
        [Some(None), Some(None)],
    ];
    (south.into_iter())
        .flat_map(|s| [table(s, true), table(s, false)])
        .collect()
}

/// An FSM at `NODE` in `state`, with the registers that state implies: the
/// pointer on South VC 0, the Fig. 6 path latched out of North.
fn fsm_in(state: FsmState) -> SbFsm {
    let mut fsm = SbFsm::new(NODE, 8);
    if state != FsmState::SOff {
        fsm.watching = Some(VcPointer {
            port: Direction::South,
            vc: 0,
            pkt: PacketId(1),
        });
    }
    if !matches!(state, FsmState::SOff | FsmState::SDd) {
        fsm.latch_probe(vec![Turn::Left; 5]);
        fsm.take_illegal();
        fsm.probe_out = Direction::North;
        fsm.chain_in = Direction::South;
    }
    fsm.state = state;
    fsm
}

fn local(fsm: Option<&mut SbFsm>, prot: ProtState) -> Local<'_> {
    Local {
        node: NODE,
        now: 1_000,
        restriction_ttl: 512,
        opts: SbOptions::default(),
        prot,
        fsm,
    }
}

fn run(fsm: &mut SbFsm, prot: ProtState, view: &Table, event: Event<'_>) -> Vec<Action> {
    let mut buf = ActionBuf::default();
    step(&mut local(Some(fsm), prot), view, event, &mut buf);
    buf.actions
}

fn sends(actions: &[Action]) -> usize {
    (actions.iter())
        .filter(|a| matches!(a, Action::Send(..)))
        .count()
}

fn msg(kind: MsgKind, sender: u16, turns: usize) -> SpecialMsg {
    SpecialMsg {
        kind,
        sender: NodeId(sender),
        vnet: 0,
        turns: vec![Turn::Left; turns],
    }
}

const KINDS: [MsgKind; 4] = [
    MsgKind::Probe,
    MsgKind::Disable,
    MsgKind::CheckProbe,
    MsgKind::Enable,
];

/// The restriction registers a router can be found with.
fn prots() -> [ProtState; 3] {
    let frozen_by = |source: u16| ProtState {
        is_deadlock: true,
        io: Some((Direction::South, Direction::East)),
        source: Some(NodeId(source)),
        expires_at: 2_000,
    };
    [ProtState::default(), frozen_by(NODE.0), frozen_by(9)]
}

/// (a) Every state × event × view row: the FSM only ever moves along an edge
/// of Fig. 5, and a timeout emits exactly one send (or, when the enable
/// retries are spent, gives up with none).
#[test]
fn every_event_in_every_state_stays_on_fig5() {
    let mut checked = 0;
    for state in FsmState::ALL {
        for view in views() {
            for prot in prots() {
                // Messages: this router's own coming back, and transit
                // from a lower and a higher sender, at the chain port.
                let mut events: Vec<(Event<'_>, &str)> = vec![
                    (Event::Tick, "tick"),
                    (Event::Gap(1), "gap"),
                    (Event::BubbleFreed, "bubble freed"),
                ];
                let msgs: Vec<SpecialMsg> = (KINDS.into_iter())
                    .flat_map(|k| [msg(k, NODE.0, 5), msg(k, 2, 3), msg(k, 9, 3)])
                    .collect();
                for m in &msgs {
                    let at = Arrival {
                        in_port: Direction::South,
                        msg: m,
                    };
                    if m.sender == NODE {
                        events.push((Event::Returned(at), "returned"));
                    } else {
                        events.push((Event::Transit(at), "transit"));
                        for out in DIRECTIONS {
                            events.push((Event::Granted(at, out), "granted"));
                        }
                    }
                }
                for (event, name) in events {
                    let mut fsm = fsm_in(state);
                    let actions = run(&mut fsm, prot, &view, event);
                    // One step may take two edges: an enable coming back
                    // while VCs are active goes SEnable -> SOff -> SDd.
                    let via_off = FsmState::transition_allowed(state, FsmState::SOff)
                        && fsm.state == FsmState::SDd;
                    assert!(
                        fsm.take_illegal().is_empty()
                            && (FsmState::transition_allowed(state, fsm.state) || via_off),
                        "{state:?} -> {:?} on {name} {event:?} with {view:?}",
                        fsm.state
                    );
                    if matches!(event, Event::Transit(_)) {
                        assert_eq!(fsm, fsm_in(state), "{name} only reads");
                        assert_eq!(sends(&actions), 0);
                    }
                    checked += 1;
                }
                // The timeout of this state, on the tick that reaches it.
                let fsm = fsm_in(state);
                let Deadline::FiresAt(at) = deadline(&fsm, &view) else {
                    continue;
                };
                for retries in [0, 4] {
                    let mut fsm = fsm.clone();
                    fsm.count = at - 1;
                    fsm.enable_retries = retries;
                    let actions = run(&mut fsm, prot, &view, Event::Tick);
                    assert!(fsm.take_illegal().is_empty());
                    if state == FsmState::SEnable && retries == 4 {
                        assert_eq!(sends(&actions), 0, "gave up");
                        assert!(actions.contains(&Action::Restrict(ProtState::default())));
                        assert!(!fsm.in_recovery());
                    } else {
                        assert_eq!(sends(&actions), 1, "{state:?} timeout: {actions:?}");
                    }
                }
            }
        }
    }
    assert!(checked > 5_000, "the table is not vacuous: {checked}");
}

/// (b) Step ≡ leap at the kernel: from every count, one-cycle ticks fire on
/// exactly the cycle `deadline` predicts, and `gap(dt)` followed by one
/// tick leaves the same registers and actions as `dt + 1` ticks.
#[test]
fn ticking_fires_when_deadline_says_and_gap_equals_ticks() {
    let prot = ProtState::default();
    let mut counted = 0;
    for state in FsmState::ALL {
        for view in views() {
            for backoff in [0, 2] {
                let mut fresh = fsm_in(state);
                fresh.probe_backoff = backoff;
                fresh.retry_stagger = 5;
                let Deadline::FiresAt(at) = deadline(&fresh, &view) else {
                    // Not counting: a gap changes nothing.
                    let mut fsm = fresh.clone();
                    assert!(run(&mut fsm, prot, &view, Event::Gap(7)).is_empty());
                    assert_eq!(fsm, fresh);
                    continue;
                };
                for count in 0..=at + 1 {
                    fresh.count = count;
                    // Ticks until the deadline: nothing fires before it.
                    let due = at.saturating_sub(count).max(1);
                    let mut stepped = fresh.clone();
                    for t in 1..due {
                        let actions = run(&mut stepped, prot, &view, Event::Tick);
                        assert!(actions.is_empty(), "{state:?} fired {t} of {due} early");
                        assert_eq!((stepped.state, stepped.count), (state, count + t));
                    }
                    let fired = run(&mut stepped, prot, &view, Event::Tick);
                    assert!(
                        !fired.is_empty() && stepped.count == 0,
                        "{state:?} count {count} must fire on tick {due}: {fired:?}"
                    );
                    // gap(dt) + tick ≡ dt + 1 ticks, for every dt a leap may
                    // take (next_timer stops it short of the firing tick).
                    for dt in 1..due {
                        let mut leaped = fresh.clone();
                        assert!(run(&mut leaped, prot, &view, Event::Gap(dt)).is_empty());
                        let leaped_actions = run(&mut leaped, prot, &view, Event::Tick);
                        let mut stepped = fresh.clone();
                        let mut stepped_actions = Vec::new();
                        for _ in 0..=dt {
                            stepped_actions = run(&mut stepped, prot, &view, Event::Tick);
                        }
                        assert_eq!(leaped, stepped, "{state:?} count {count} dt {dt}");
                        assert_eq!(leaped_actions, stepped_actions);
                        counted += 1;
                    }
                }
            }
        }
    }
    assert!(counted > 10_000, "the table is not vacuous: {counted}");
}

/// (c) Section IV-C: one special message per output port per cycle.
#[test]
fn output_conflicts_follow_section_iv_c() {
    let free = ProtState::default();
    let frozen = ProtState {
        is_deadlock: true,
        ..ProtState::default()
    };
    let m = |kind, sender| msg(kind, sender, 0);
    // Priority classes.
    assert!(beats(
        &m(MsgKind::CheckProbe, 1),
        &m(MsgKind::Disable, 9),
        &free
    ));
    assert!(beats(&m(MsgKind::Disable, 1), &m(MsgKind::Probe, 9), &free));
    // Same kind: higher sender wins.
    assert!(beats(&m(MsgKind::Probe, 9), &m(MsgKind::Probe, 3), &free));
    assert!(!beats(&m(MsgKind::Probe, 3), &m(MsgKind::Probe, 9), &free));
    // Disable vs enable resolved by the local is_deadlock bit.
    assert!(beats(
        &m(MsgKind::Enable, 1),
        &m(MsgKind::Disable, 9),
        &frozen
    ));
    assert!(!beats(
        &m(MsgKind::Enable, 1),
        &m(MsgKind::Disable, 9),
        &free
    ));
    assert!(beats(
        &m(MsgKind::Disable, 1),
        &m(MsgKind::Enable, 9),
        &free
    ));
}

#[test]
fn default_options_enable_everything() {
    let opts = SbOptions::default();
    assert!(opts.forking);
    assert!(opts.check_probe);
    assert!(opts.return_forwarding);
    assert!(opts.probe_desync);
}
