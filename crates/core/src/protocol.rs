//! The Static Bubble protocol kernel: every decision of the Fig. 5 counter
//! FSM and the Section IV-B message rules, as functions of one router's own
//! registers ([`SbFsm`], [`ProtState`]), a read-only [`RouterView`] of its
//! buffers and one [`Event`]. A decision changes only the FSM it was handed
//! and appends [`Action`]s to a reused [`ActionBuf`]; it never reaches the
//! network. [`crate::plugin`] gathers each cycle's events in a fixed order
//! and applies the actions, so a checker can drive [`step`] from a table
//! instead of a simulator.
//!
//! The corner cases of Section IV-B decided here:
//!
//! * probes from a lower-id static-bubble sender are dropped at SB nodes;
//! * at most one special message per output port per cycle, with priority
//!   `check_probe > disable/enable > probe` and higher sender id winning
//!   ties; a disable and an enable colliding on one output are resolved by
//!   the local `is_deadlock` bit ([`beats`]);
//! * a second disable at a node whose `is_deadlock` bit is already set is
//!   dropped;
//! * disables are validated against the *current* buffer dependence at every
//!   hop including the sender, and dropped on mismatch (false positives);
//! * enables are always forwarded, but only processed when the carried
//!   sender id matches the stored source id;
//! * SB nodes in a recovery state drop disables/enables from other senders;
//!   an SB node in detection receiving a (higher-id) disable processes it
//!   like a normal node and its counter FSM goes to `SOff`.

use crate::fsm::{FsmState, SbFsm, VcPointer};
use crate::msg::{MsgKind, SpecialMsg, TURN_CAPACITY};
use crate::trace::ProtoEvent;
use sb_sim::{OutPort, PacketId};
use sb_topology::{Direction, NodeId, Turn};
use serde::{Deserialize, Serialize};

/// Per-router protocol registers present in **every** router (SB or not):
/// the `is_deadlock` bit, the IO-priority buffer and the source-id buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProtState {
    /// Injection into `io.1` is restricted to input `io.0` while set.
    pub is_deadlock: bool,
    /// (input port, output port) of the frozen chain through this router.
    pub io: Option<(Direction, Direction)>,
    /// The static-bubble node that froze this router.
    pub source: Option<NodeId>,
    /// Auto-expiry cycle of the restriction (deviation, DESIGN.md): a small
    /// per-router TTL counter guarantees a lost enable can never poison a
    /// router forever. Normal recoveries clear restrictions via enables long
    /// before the TTL fires.
    pub expires_at: u64,
}

/// Ablation switches for the design choices called out in `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SbOptions {
    /// Fork probes toward every wanted output (paper's design). When off,
    /// a probe is forwarded only if all VCs at the input port agree on one
    /// output (the strawman of Section IV-B's "Why do we need to fork?").
    pub forking: bool,
    /// Use the check-probe fast path after a recovery step (footnote 7's
    /// optimization). When off, the bubble reclaim goes straight to the
    /// enable, and a fresh probe must re-detect any remaining deadlock.
    pub check_probe: bool,
    /// Re-circulate a returned probe as an ordinary transit message when
    /// its walk does not close at the return port (the sender sits
    /// mid-chain on a knot that passes through it more than once; the
    /// probe must keep walking to reach the port where the cycle actually
    /// closes). When off, such probes are silently dropped at the sender —
    /// a latch opportunity lost. Closes a real protocol gap, but is *not*
    /// what wedges the pinned pipeline seeds; see `DESIGN.md` §12.
    pub return_forwarding: bool,
    /// Add a node-unique term to the probe retry period once backoff
    /// engages, so no two detectors retry on the same period (see
    /// [`SbFsm::retry_stagger`]). When off, routers whose ids fall in the
    /// same base-stagger class back off onto bit-identical periods and
    /// mid-walk probe collisions phase-lock — the root cause of the pinned
    /// pipeline wedge (seeds 2 and 5); see `DESIGN.md` §12.
    pub probe_desync: bool,
}

impl Default for SbOptions {
    fn default() -> Self {
        SbOptions {
            forking: true,
            check_probe: true,
            return_forwarding: true,
            probe_desync: true,
        }
    }
}

/// Why a special message was discarded instead of forwarded or processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Probe from a lower-id sender at an SB node whose bubble is usable
    /// (the higher-id node owns any cycle through both).
    LowerSender,
    /// Probe fork condition failed: not every VC of the vnet at the input
    /// port is occupied.
    NotAllOccupied,
    /// Non-forking ablation: the VCs at the input port want more than one
    /// output.
    NonForkingDivergence,
    /// No legal output existed: every wanted output was the ejection port
    /// or a u-turn.
    NoLegalFork,
    /// The probe's turn capacity ([`crate::msg::TURN_CAPACITY`]) is
    /// exhausted.
    TurnCapacity,
    /// Lost the one-message-per-output-port arbitration (Section IV-C).
    OutputConflict,
    /// Won arbitration but failed re-validation against post-arbitration
    /// state, or the output link died.
    Revalidation,
    /// Disable arriving at an SB node that is in a recovery state of its
    /// own.
    DisableInRecovery,
    /// Second disable at an already-frozen router.
    DisableFrozen,
    /// Disable whose buffer dependence no longer holds at this hop (false
    /// positive cleared in flight).
    DisableStale,
    /// Check-probe that is no longer on the frozen chain.
    OffChain,
    /// Turn list exhausted at a transit router (malformed path).
    PathExhausted,
    /// Probe returned to its sender while the FSM is mid-recovery: one
    /// recovery at a time, so the second cycle's probe is discarded.
    /// Counted in [`sb_sim::Stats::probes_dropped`].
    FsmBusy,
    /// Returned probe whose walk did not close into a VC wanting the
    /// original output, with return-forwarding ablated
    /// ([`SbOptions::return_forwarding`] off). With the default options
    /// such probes re-circulate as transit instead — see `DESIGN.md` §12
    /// for why dropping them wedges multi-loop knots.
    WalkNotClosed,
}

/// The packet resident in one VC, as far as the protocol looks at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// Its id (the detection counter times one particular packet).
    pub id: PacketId,
    /// Its vnet.
    pub vnet: u8,
    /// The mesh output it waits for; `None` when it wants ejection.
    pub wants: Option<Direction>,
}

/// All a decision may read of its router beyond the router's registers.
/// The plugin implements it over the live network; tests over a table.
pub trait RouterView {
    /// VCs per input port: the stride of [`RouterView::occupancy`].
    fn vcs_per_port(&self) -> usize;
    /// Occupancy word: bit `port * vcs_per_port + vc` is set iff that VC
    /// holds a packet.
    fn occupancy(&self) -> u64;
    /// The packet in VC `(port, vc)`, if any.
    fn occupant(&self, port: Direction, vc: u8) -> Option<Occupant>;
    /// Are all VCs of `vnet` at `port` occupied (the probe fork condition)?
    fn all_vcs_occupied(&self, port: Direction, vnet: u8) -> bool;
    /// The outputs wanted by the packets of `vnet` at `port`, in VC order.
    fn wanted_outputs(&self, port: Direction, vnet: u8) -> Vec<OutPort>;
    /// Does the router have a static bubble, with nothing in it?
    fn bubble_empty(&self) -> bool;
}

/// The registers and constants of the router a decision is taken at.
#[derive(Debug)]
pub struct Local<'a> {
    /// The router.
    pub node: NodeId,
    /// The current cycle.
    pub now: u64,
    /// Lifetime of a restriction set this cycle.
    pub restriction_ttl: u64,
    /// Ablation switches.
    pub opts: SbOptions,
    /// The restriction registers (changed only through
    /// [`Action::Restrict`], which also keeps the plugin's index of them).
    pub prot: ProtState,
    /// The counter FSM, at a static-bubble router.
    pub fsm: Option<&'a mut SbFsm>,
}

/// A special message at the input port it arrived on.
#[derive(Debug, Clone, Copy)]
pub struct Arrival<'m> {
    /// Arrival port.
    pub in_port: Direction,
    /// The message as it arrived.
    pub msg: &'m SpecialMsg,
}

/// One thing that happens to a router's protocol engine.
#[derive(Debug, Clone, Copy)]
pub enum Event<'m> {
    /// One executed cycle of the counter FSM.
    Tick,
    /// The engine skipped this many cycles, during which nothing moved.
    Gap(u64),
    /// A message this router sent came back.
    Returned(Arrival<'m>),
    /// A message from another sender arrived: which outputs does it ask
    /// for? Answered with [`Action::Offer`]s and drops; changes nothing.
    Transit(Arrival<'m>),
    /// The message won this output port this cycle: re-validate it against
    /// the registers as they now stand, process it and send it on.
    Granted(Arrival<'m>, Direction),
    /// The bubble's occupant departed: the bubble is re-claimed (steps
    /// 14–16 of Section IV-A).
    BubbleFreed,
}

/// A counter the plugin keeps (see [`crate::trace::ProtoCounters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// A probe left its sender.
    ProbeSent,
    /// A probe arrived back at its sender.
    ProbeReturn,
    /// A returned probe latched.
    Latch,
    /// A returned probe was re-circulated as transit.
    ReturnForwarded,
    /// A returned disable failed final validation.
    DisableFail,
    /// A disable returned validly: recovery engaged.
    Recovery,
}

/// What a decision asks the adapter to do.
#[derive(Debug, PartialEq, Eq)]
pub enum Action {
    /// Put the message (already stripped/appended for this hop) on the link
    /// out of this port.
    Send(Direction, SpecialMsg),
    /// Replace this router's restriction registers.
    Restrict(ProtState),
    /// Attach the bubble to this port and vnet and switch it on.
    BubbleOn(Direction, u8),
    /// Switch the bubble off.
    BubbleOff,
    /// Count one [`Stat`].
    Count(Stat),
    /// Discard the event's message, for this reason.
    Drop(DropReason),
    /// Append to the event trace (only emitted while tracing).
    Record(ProtoEvent),
    /// Answer to [`Event::Transit`]: the message asks for this output.
    Offer(Direction),
    /// The returned probe's walk has not closed: treat it as a transit
    /// arrival at the same port, this same cycle.
    Recirculate,
}

/// The reused output of [`step`]. The adapter drains `actions` after every
/// call, so the buffer's capacity is allocated once.
#[derive(Debug, Default)]
pub struct ActionBuf {
    /// Emit [`Action::Record`]s? (One branch per would-be event when off.)
    pub tracing: bool,
    /// The actions of the last [`step`], in the order they must be applied.
    pub actions: Vec<Action>,
}

impl ActionBuf {
    fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    fn record(&mut self, event: impl FnOnce() -> ProtoEvent) {
        if self.tracing {
            self.actions.push(Action::Record(event()));
        }
    }
}

/// Is an FSM's counter counting, and at which count does it fire?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Counter off and nothing buffered: no tick changes anything.
    Idle,
    /// The very next tick acts without a counter (leaving `SOff`, rotating
    /// the VC pointer off a packet that left) — an action no gap accounting
    /// can replay, so the clock may not leap over it.
    Now,
    /// Counting: the state's timeout fires on the tick that brings
    /// [`SbFsm::count`] to this value.
    FiresAt(u64),
}

/// The one rule for when a counter counts and when it fires. [`step`]'s
/// tick and gap accounting and the plugin's `next_timer` all derive from
/// it, so an executed cycle and a skipped one cannot disagree.
pub fn deadline(fsm: &SbFsm, view: &impl RouterView) -> Deadline {
    match fsm.state {
        FsmState::SOff if view.occupancy() == 0 => Deadline::Idle,
        FsmState::SOff => Deadline::Now,
        FsmState::SDd => match watched_waiting(fsm, view) {
            Some(_) => Deadline::FiresAt(fsm.effective_tdd()),
            None => Deadline::Now,
        },
        FsmState::SDisable | FsmState::SCheckProbe | FsmState::SEnable => {
            Deadline::FiresAt(fsm.tdr + 1)
        }
        // The paper leaves the counter off here and relies on the bubble
        // being claimed by the frozen chain. Two watchdogs (deviation,
        // DESIGN.md): an *unclaimed* bubble for t_DR cycles means the
        // dependence drifted while the disable circulated; an occupant
        // that stays much longer than a few serialization times is stuck
        // behind unrelated traffic while the restrictions starve the rest.
        FsmState::SSbActive if view.bubble_empty() => Deadline::FiresAt(fsm.tdr + 1),
        FsmState::SSbActive => Deadline::FiresAt((8 * fsm.tdr).max(4 * fsm.tdd) + 1),
    }
}

/// Advance `fsm`'s counter by `dt` cycles; has it reached `fires_at`?
fn advance(fsm: &mut SbFsm, dt: u64, fires_at: u64) -> bool {
    fsm.count += dt;
    fsm.count >= fires_at
}

/// Decide what `event` does at the router `local` describes.
pub fn step(local: &mut Local<'_>, view: &impl RouterView, event: Event<'_>, buf: &mut ActionBuf) {
    match event {
        Event::Tick => tick(local, view, buf),
        // Nothing moves during a leaped gap, so a counter that is counting
        // now was counting throughout, and `deadline` (through
        // `next_timer`) lets no gap reach a firing count.
        Event::Gap(dt) => {
            if let Some(fsm) = local.fsm.as_deref_mut() {
                if let Deadline::FiresAt(at) = deadline(fsm, view) {
                    let fired = advance(fsm, dt, at);
                    debug_assert!(!fired, "a leap skipped a counter timeout");
                }
            }
        }
        Event::Returned(at) => returned(local, view, at, buf),
        Event::Transit(at) => route_transit(local, view, at, |to| {
            buf.push(to.map_or_else(Action::Drop, Action::Offer));
        }),
        Event::Granted(at, out) => granted(local, view, at, out, buf),
        Event::BubbleFreed => match local.fsm.as_deref_mut() {
            // Switch the bubble off and send a check-probe along the
            // latched path to see if the chain is still deadlocked (or,
            // with the fast path ablated, go straight to the enable).
            Some(fsm) if fsm.state == FsmState::SSbActive => {
                buf.push(Action::BubbleOff);
                if local.opts.check_probe {
                    send_and_await(fsm, MsgKind::CheckProbe, buf);
                } else {
                    send_and_await(fsm, MsgKind::Enable, buf);
                }
            }
            _ => {}
        },
    }
}

/// Does `a` beat `b` for the same output port? Priority first; a
/// disable/enable collision is resolved by the local `is_deadlock` bit;
/// otherwise higher sender id wins.
pub fn beats(a: &SpecialMsg, b: &SpecialMsg, prot: &ProtState) -> bool {
    use std::cmp::Ordering;
    match a.kind.priority().cmp(&b.kind.priority()) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => match (a.kind, b.kind) {
            (MsgKind::Enable, MsgKind::Disable) => prot.is_deadlock,
            (MsgKind::Disable, MsgKind::Enable) => !prot.is_deadlock,
            _ => a.sender > b.sender,
        },
    }
}

/// The first occupied VC after `after` in the cyclic `(port, vc)` order of
/// the round-robin VC pointer.
fn next_occupied_vc(view: &impl RouterView, after: Option<VcPointer>) -> Option<VcPointer> {
    let vcs = view.vcs_per_port();
    let start = after.map_or(0, |w| w.port.index() * vcs + w.vc as usize + 1);
    // Bit `port * vcs + vc` of the occupancy word is the slot's place in
    // the cyclic order: the first set bit at or after `start`, else
    // (wrapping) the first set bit at all.
    let occupied = view.occupancy();
    let ahead = occupied & (u64::MAX << start);
    let first = if ahead != 0 { ahead } else { occupied };
    if first == 0 {
        return None;
    }
    let i = first.trailing_zeros() as usize;
    let (port, vc) = (Direction::from_index(i / vcs), (i % vcs) as u8);
    let pkt = view.occupant(port, vc).expect("occupancy bit set").id;
    Some(VcPointer { port, vc, pkt })
}

/// The packet the VC pointer watches, while it still sits in that VC and
/// waits for a mesh output (the `SDd` counting condition).
fn watched_waiting(fsm: &SbFsm, view: &impl RouterView) -> Option<Occupant> {
    let watched = fsm.watching.expect("SDd has a pointer");
    view.occupant(watched.port, watched.vc)
        .filter(|p| p.id == watched.pkt && p.wants.is_some())
}

/// Is the buffer dependence `at.in_port → out` present: every VC of the
/// message's vnet occupied and one of them waiting for `out`?
fn dependence_holds(view: &impl RouterView, at: Arrival<'_>, out: Direction) -> bool {
    view.all_vcs_occupied(at.in_port, at.msg.vnet)
        && view
            .wanted_outputs(at.in_port, at.msg.vnet)
            .contains(&OutPort::Dir(out))
}

/// The registers of a router frozen by `source` on the chain `io`.
fn frozen(local: &Local<'_>, io: (Direction, Direction), source: NodeId) -> ProtState {
    ProtState {
        is_deadlock: true,
        io: Some(io),
        source: Some(source),
        expires_at: local.now + local.restriction_ttl,
    }
}

/// Point the counter at the next occupied VC after `after` and count from
/// zero, or switch off when nothing is buffered.
fn repoint(fsm: &mut SbFsm, view: &impl RouterView, after: Option<VcPointer>) {
    fsm.watching = next_occupied_vc(view, after);
    fsm.goto(match fsm.watching {
        Some(_) => FsmState::SDd,
        None => FsmState::SOff,
    });
    fsm.restart_counter();
}

/// Send `kind` along the latched path out of the latched output, and count
/// `t_DR` for it to come back.
fn send_and_await(fsm: &mut SbFsm, kind: MsgKind, buf: &mut ActionBuf) {
    fsm.goto(match kind {
        MsgKind::Probe => unreachable!("probes carry no latched path"),
        MsgKind::Disable => FsmState::SDisable,
        MsgKind::CheckProbe => FsmState::SCheckProbe,
        MsgKind::Enable => FsmState::SEnable,
    });
    fsm.restart_counter();
    let msg = SpecialMsg::with_path(kind, fsm.node, fsm.probe_vnet, fsm.turn_buffer.clone());
    buf.push(Action::Send(fsm.probe_out, msg));
}

/// End a recovery round: clear the recovery registers and this router's own
/// restriction, and return to detection past the VC whose attempt just
/// ended.
fn release(fsm: &mut SbFsm, view: &impl RouterView, buf: &mut ActionBuf) {
    let after = fsm.watching;
    fsm.clear_recovery();
    buf.push(Action::Restrict(ProtState::default()));
    repoint(fsm, view, after);
}

fn tick(local: &mut Local<'_>, view: &impl RouterView, buf: &mut ActionBuf) {
    let Some(fsm) = local.fsm.as_deref_mut() else {
        return;
    };
    match deadline(fsm, view) {
        Deadline::Idle => {}
        // SOff (no pointer): a VC filled, start counting it. SDd: the flit
        // left (or wants ejection) — local movement, so detection urgency
        // resets; point to the next active VC round-robin, or switch off.
        Deadline::Now => {
            if fsm.state == FsmState::SDd {
                fsm.probe_backoff = 0;
            }
            repoint(fsm, view, fsm.watching);
        }
        Deadline::FiresAt(at) => {
            if advance(fsm, 1, at) {
                timeout(fsm, view, buf);
            }
        }
    }
}

/// The counter reached its state's threshold.
fn timeout(fsm: &mut SbFsm, view: &impl RouterView, buf: &mut ActionBuf) {
    match fsm.state {
        FsmState::SOff => unreachable!("SOff does not count"),
        FsmState::SDd => {
            // Suspected deadlock. Send a probe out of the output port the
            // stuck packet wants.
            let stuck = watched_waiting(fsm, view).expect("counted, so still waiting");
            fsm.probe_out = stuck.wants.expect("waiting for a mesh output");
            fsm.probe_vnet = stuck.vnet;
            fsm.restart_counter();
            // Advance the pointer round-robin so every stalled VC is probed
            // in turn. (Deviation from the letter of Fig. 5, which advances
            // only when the flit leaves: a VC blocked *behind* a remote
            // cycle would otherwise monopolise the counter and the on-cycle
            // VCs of this router would never be probed — livelock. See
            // DESIGN.md.)
            fsm.watching = next_occupied_vc(view, fsm.watching).or(fsm.watching);
            fsm.probe_backoff = (fsm.probe_backoff + 1).min(5);
            buf.push(Action::Count(Stat::ProbeSent));
            let probe = SpecialMsg::probe(fsm.node, fsm.probe_vnet);
            buf.push(Action::Send(fsm.probe_out, probe));
        }
        // The disable/check-probe was dropped mid-way: release the
        // restrictions placed so far.
        FsmState::SDisable | FsmState::SCheckProbe => send_and_await(fsm, MsgKind::Enable, buf),
        FsmState::SEnable => {
            fsm.enable_retries += 1;
            if fsm.enable_retries > 4 {
                // Give up (deviation, DESIGN.md): long latched paths can
                // make the enable's round trip arbitrarily fragile under
                // heavy special-message traffic, and a fault can cut the
                // path for good. Return to detection duty; restrictions at
                // unreachable routers expire via the TTL.
                release(fsm, view, buf);
            } else {
                send_and_await(fsm, MsgKind::Enable, buf);
            }
        }
        FsmState::SSbActive => {
            buf.push(Action::BubbleOff);
            if view.bubble_empty() {
                // Nobody claimed the bubble: treat it like a reclaim and
                // re-verify the chain with a check-probe.
                send_and_await(fsm, MsgKind::CheckProbe, buf);
            } else {
                // The occupant is stuck: release the restrictions; it
                // drains as an ordinary buffered packet and the bubble
                // stays deactivated until then.
                send_and_await(fsm, MsgKind::Enable, buf);
            }
        }
    }
}

/// A message whose sender is this router arrived back: consumed at the FSM,
/// except for probes whose walk has not closed yet.
fn returned(local: &mut Local<'_>, view: &impl RouterView, at: Arrival<'_>, buf: &mut ActionBuf) {
    let (router, time, Arrival { in_port, msg }) = (local.node, local.now, at);
    let Some(fsm) = local.fsm.as_deref_mut() else {
        debug_assert!(false, "returned message at non-SB node");
        return;
    };
    match msg.kind {
        MsgKind::Probe => {
            buf.push(Action::Count(Stat::ProbeReturn));
            // Several probes can be outstanding (one per pointed VC), so
            // the output port this particular probe left from is
            // reconstructed from its turn list rather than read from a
            // register the next probe may have overwritten.
            let origin_out = msg.origin_out(in_port.opposite());
            // A returned probe confirms a closed dependence walk, but only
            // a walk that closes into a VC *wanting the original probe
            // output* is a cycle this bubble can break. The same check the
            // disable return applies, evaluated here so pseudo-cycles never
            // tie the FSM up in a doomed disable/enable round.
            let all_occupied = view.all_vcs_occupied(in_port, msg.vnet);
            let wanted_outs = view.wanted_outputs(in_port, msg.vnet);
            let closes_cycle = all_occupied && wanted_outs.contains(&OutPort::Dir(origin_out));
            let (vnet, turns) = (msg.vnet, msg.turns.len());
            buf.record(|| ProtoEvent::ProbeReturn {
                time,
                router,
                in_port,
                origin_out,
                vnet,
                turns,
                all_occupied,
                wanted: (wanted_outs.iter())
                    .filter_map(|o| match o {
                        OutPort::Dir(d) => Some(*d),
                        OutPort::Eject => None,
                    })
                    .collect(),
                closes_cycle,
                fsm: fsm.state,
            });
            if fsm.state == FsmState::SDd && closes_cycle {
                // Dependence chain confirmed; latch the path and freeze it.
                buf.push(Action::Count(Stat::Latch));
                buf.record(|| ProtoEvent::Latch {
                    time,
                    router,
                    origin_out,
                    vnet,
                    turns,
                });
                fsm.probe_out = origin_out;
                fsm.probe_vnet = vnet;
                fsm.latch_probe(msg.turns.clone());
                send_and_await(fsm, MsgKind::Disable, buf);
            } else if fsm.in_recovery() {
                // One recovery at a time: this second cycle's probe is
                // discarded — loudly, it is detection work lost.
                buf.push(Action::Drop(DropReason::FsmBusy));
            } else if !local.opts.return_forwarding {
                // Ablation: the pre-fix behavior dropped every returned
                // probe that did not latch.
                buf.push(Action::Drop(DropReason::WalkNotClosed));
            } else {
                // The walk did not close here: the sender sits mid-chain on
                // a knot that passes through it more than once. Keep the
                // probe walking — it re-enters the transit path (the
                // lower-id screen never fires on a sender's own probe) and,
                // if the dependence truly cycles, returns again at the port
                // where it closes. Termination is bounded by the turn
                // capacity. See `DESIGN.md` §12.
                buf.push(Action::Count(Stat::ReturnForwarded));
                buf.push(Action::Recirculate);
            }
        }
        MsgKind::Disable if fsm.state == FsmState::SDisable => {
            // Validate the sender's own buffer dependence (a false positive
            // may have cleared while the disable circulated). The bubble
            // may still hold a leftover occupant from an aborted earlier
            // recovery; it cannot be re-armed until that packet drains.
            let out = fsm.probe_out;
            let holds = dependence_holds(view, at, out);
            let bubble_free = view.bubble_empty();
            if !holds || !bubble_free {
                buf.push(Action::Count(Stat::DisableFail));
                buf.record(|| ProtoEvent::DisableFail {
                    time,
                    router,
                    in_port,
                    probe_out: out,
                    holds,
                    bubble_free,
                });
                return; // timeout will send the enable
            }
            fsm.goto(FsmState::SSbActive);
            fsm.chain_in = in_port;
            fsm.restart_counter();
            buf.push(Action::Count(Stat::Recovery));
            buf.record(|| ProtoEvent::Recover {
                time,
                router,
                chain_in: in_port,
                out,
                vnet: msg.vnet,
            });
            buf.push(Action::Restrict(frozen(local, (in_port, out), router)));
            buf.push(Action::BubbleOn(in_port, msg.vnet));
        }
        MsgKind::CheckProbe if fsm.state == FsmState::SCheckProbe => {
            // The chain is still deadlocked: open the bubble again.
            fsm.goto(FsmState::SSbActive);
            fsm.restart_counter();
            buf.push(Action::BubbleOn(fsm.chain_in, fsm.probe_vnet));
        }
        // Fig. 5: "enable rcvd & VCs active → increment counter pointer,
        // reset is_deadlock, rsc → SDD". Advancing the pointer past the VC
        // whose recovery attempt just ended is what guarantees the FSM
        // eventually probes a VC that lies on a recoverable cycle instead
        // of retrying one whose probe keeps failing validation.
        MsgKind::Enable if fsm.state == FsmState::SEnable => release(fsm, view, buf),
        // A straggler from a round the FSM has already left.
        MsgKind::Disable | MsgKind::CheckProbe | MsgKind::Enable => {}
    }
}

/// Where does a transit message (sender ≠ router) go? Calls `to` with each
/// output it asks for, or with the reason a copy is dropped. Reads, never
/// changes.
fn route_transit(
    local: &Local<'_>,
    view: &impl RouterView,
    at: Arrival<'_>,
    mut to: impl FnMut(Result<Direction, DropReason>),
) {
    let Arrival { in_port, msg } = at;
    let travel = in_port.opposite();
    let fsm = local.fsm.as_deref();
    // Disable/check-probe/enable follow the latched path: the front turn.
    let next_hop = msg.turns.first().map(|t| t.apply(travel));
    match msg.kind {
        MsgKind::Probe => {
            // SB nodes drop probes from lower-id senders — the higher-id
            // node is responsible for any cycle through both. Exception
            // (deviation, DESIGN.md): if this node's bubble is occupied by
            // a stranded packet it cannot currently recover anything, so it
            // defers to lower-id nodes instead of suppressing them.
            if fsm.is_some() && msg.sender < local.node && view.bubble_empty() {
                return to(Err(DropReason::LowerSender));
            }
            // Fork iff all VCs of the vnet at this input port are active.
            if !view.all_vcs_occupied(in_port, msg.vnet) {
                return to(Err(DropReason::NotAllOccupied));
            }
            let wants = view.wanted_outputs(in_port, msg.vnet);
            if !local.opts.forking && wants.len() > 1 {
                // Ablation: the non-forking strawman drops probes at any
                // divergence point.
                return to(Err(DropReason::NonForkingDivergence));
            }
            let room = msg.turns.len() < TURN_CAPACITY;
            let mut forked = false;
            for want in wants {
                // Never towards ejection; u-turns cannot occur (no-u-turn
                // routing).
                let OutPort::Dir(d) = want else { continue };
                if Turn::between(travel, d).is_none() {
                    continue;
                }
                forked = true;
                to(room.then_some(d).ok_or(DropReason::TurnCapacity));
            }
            if !forked {
                to(Err(DropReason::NoLegalFork));
            }
        }
        MsgKind::Disable => to(match next_hop {
            _ if fsm.is_some_and(SbFsm::in_recovery) => Err(DropReason::DisableInRecovery),
            // Second disable dropped.
            _ if local.prot.is_deadlock => Err(DropReason::DisableFrozen),
            None => Err(DropReason::PathExhausted),
            // Same buffer dependence as when the probe passed?
            Some(out) if dependence_holds(view, at, out) => Ok(out),
            Some(_) => Err(DropReason::DisableStale),
        }),
        // Forward along the frozen chain while at least one VC is still
        // part of it (Buffer Dependency Check unit).
        MsgKind::CheckProbe => to(match next_hop {
            None => Err(DropReason::PathExhausted),
            Some(out)
                if local.prot.is_deadlock
                    && local.prot.source == Some(msg.sender)
                    && local.prot.io == Some((in_port, out))
                    && (view.wanted_outputs(in_port, msg.vnet)).contains(&OutPort::Dir(out)) =>
            {
                Ok(out)
            }
            Some(_) => Err(DropReason::OffChain),
        }),
        // Enables are forwarded even through SB nodes that are in a
        // recovery state of their own: processing is gated by the source-id
        // match (`granted`), so forwarding is always safe, and dropping
        // them can wedge the network — router restrictions placed by
        // sender A would never clear while node B stays in recovery, and
        // B's recovery may itself be blocked on A's frozen routers
        // (deviation from one sentence of Sec. IV-B; see DESIGN.md).
        MsgKind::Enable => to(next_hop.ok_or(DropReason::PathExhausted)),
    }
}

/// The message won output `out`. Re-validate it (an earlier output's
/// disable may have set `is_deadlock` this cycle), apply what it does to
/// this router, and forward it.
fn granted(
    local: &mut Local<'_>,
    view: &impl RouterView,
    at: Arrival<'_>,
    out: Direction,
    buf: &mut ActionBuf,
) {
    let mut still_ok = false;
    route_transit(local, view, at, |to| still_ok |= to == Ok(out));
    if !still_ok {
        return buf.push(Action::Drop(DropReason::Revalidation));
    }
    let Arrival { in_port, msg } = at;
    let travel = in_port.opposite();
    let mut fwd = msg.clone();
    match msg.kind {
        MsgKind::Probe => {
            let turn = Turn::between(travel, out).expect("offered outputs are no u-turns");
            let pushed = fwd.push_turn(turn);
            debug_assert!(pushed, "offered only with room for the turn");
        }
        MsgKind::Disable => {
            buf.push(Action::Restrict(frozen(local, (in_port, out), msg.sender)));
            // An SB node in detection that processes a (higher-id) disable
            // sends its counter to SOff. (One mid-recovery never gets here:
            // resetting it would orphan its armed bubble and its own frozen
            // chain, so `route_transit` drops the disable.)
            if let Some(fsm) = local.fsm.as_deref_mut() {
                fsm.goto(FsmState::SOff);
                fsm.watching = None;
                fsm.restart_counter();
            }
        }
        MsgKind::Enable if local.prot.source == Some(msg.sender) => {
            buf.push(Action::Restrict(ProtState {
                expires_at: local.prot.expires_at,
                ..ProtState::default()
            }));
        }
        MsgKind::Enable | MsgKind::CheckProbe => {}
    }
    if msg.kind != MsgKind::Probe {
        fwd.strip_turn(travel);
    }
    buf.record(|| ProtoEvent::Forward {
        time: local.now,
        router: local.node,
        in_port,
        out,
        kind: fwd.kind,
        sender: fwd.sender,
        vnet: fwd.vnet,
        turns: fwd.turns.len(),
    });
    buf.push(Action::Send(out, fwd));
}
