//! The Static Bubble runtime: per-router protocol state, special-message
//! processing, and the [`Plugin`] hooks that tie it into the simulator.
//!
//! This implements Section IV of the paper, including the corner cases of
//! Section IV-B:
//!
//! * probes from a lower-id static-bubble sender are dropped at SB nodes;
//! * at most one special message per output port per cycle, with priority
//!   `check_probe > disable/enable > probe` and higher sender id winning
//!   ties; a disable and an enable colliding on one output are resolved by
//!   the local `is_deadlock` bit;
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
use crate::msg::{InFlightMsg, MsgKind, SpecialMsg};
use crate::placement;
use sb_sim::{AuditClass, InputRef, NetCore, OutPort, Plugin, SlotRef, VcRef, Violation};
use sb_topology::{Direction, Mesh, NodeId, Turn, DIRECTIONS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Per-router protocol registers present in **every** router (SB or not):
/// the `is_deadlock` bit, the IO-priority buffer and the source-id buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
struct ProtState {
    /// Injection into `io.1` is restricted to input `io.0` while set.
    is_deadlock: bool,
    /// (input port, output port) of the frozen chain through this router.
    io: Option<(Direction, Direction)>,
    /// The static-bubble node that froze this router.
    source: Option<NodeId>,
    /// Auto-expiry cycle of the restriction (deviation, DESIGN.md): a small
    /// per-router TTL counter guarantees a lost enable can never poison a
    /// router forever. Normal recoveries clear restrictions via enables long
    /// before the TTL fires.
    expires_at: u64,
}

/// Capacity of the recent special-message ring kept for forensics.
const RECENT_MSG_CAP: usize = 64;

/// One transmission in the recent special-message ring (forensics only; no
/// protocol behaviour depends on it).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MsgRecord {
    time: u64,
    from: NodeId,
    out: Direction,
    to: NodeId,
    kind: MsgKind,
    sender: NodeId,
    vnet: u8,
}

/// What to do with a message after local evaluation.
enum Action {
    /// Forward out of `out` (already stripped/appended).
    Forward { out: Direction, msg: SpecialMsg },
    /// Drop, for the stated reason.
    Drop(DropReason),
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

/// One protocol-level event, recorded when tracing is enabled
/// ([`sb_sim::Plugin::set_tracing`]) and drained by
/// [`sb_sim::Plugin::trace_lines`] into
/// [`sb_sim::ForensicsReport::probe_trace`]. This replaces the old
/// process-global `DBG_*` atomics and `eprintln!` tracing: events are
/// per-plugin (parallel fleets don't interleave), capturable in tests, and
/// free when disabled (one branch per would-be event).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtoEvent {
    /// A transit message won its output port and was forwarded (probes:
    /// one event per fork copy).
    Forward {
        /// Cycle.
        time: u64,
        /// Router the message transited.
        router: NodeId,
        /// Input port it arrived at.
        in_port: Direction,
        /// Output port it left from.
        out: Direction,
        /// Message kind.
        kind: MsgKind,
        /// Originating static-bubble router.
        sender: NodeId,
        /// Vnet being traced.
        vnet: u8,
        /// Turn-list length after this hop.
        turns: usize,
    },
    /// A message was discarded.
    Drop {
        /// Cycle.
        time: u64,
        /// Router that dropped it.
        router: NodeId,
        /// Input port it arrived at.
        in_port: Direction,
        /// Message kind.
        kind: MsgKind,
        /// Originating static-bubble router.
        sender: NodeId,
        /// Vnet being traced.
        vnet: u8,
        /// Turn-list length at drop time.
        turns: usize,
        /// Why.
        reason: DropReason,
    },
    /// A probe arrived back at its sender: the exact latch-condition
    /// evaluation (this is the forensic record the deadlock bisection
    /// workflow keys on; see `DESIGN.md` §12).
    ProbeReturn {
        /// Cycle.
        time: u64,
        /// The sender (== receiving router).
        router: NodeId,
        /// Input port the probe returned at.
        in_port: Direction,
        /// Output port the probe originally left from (reconstructed from
        /// the turn list).
        origin_out: Direction,
        /// Vnet being traced.
        vnet: u8,
        /// Accumulated turns.
        turns: usize,
        /// Were all VCs of the vnet occupied at the return port?
        all_occupied: bool,
        /// The mesh outputs those VCs want.
        wanted: Vec<Direction>,
        /// Did the walk close into a VC wanting `origin_out` (the latch
        /// condition)?
        closes_cycle: bool,
        /// FSM state at return time.
        fsm: FsmState,
    },
    /// The latch fired: path frozen, disable sent out `origin_out`.
    Latch {
        /// Cycle.
        time: u64,
        /// The latching static-bubble router.
        router: NodeId,
        /// Output the disable leaves from.
        origin_out: Direction,
        /// Vnet of the frozen chain.
        vnet: u8,
        /// Latched path length in turns.
        turns: usize,
    },
    /// A disable returned to its sender but failed final validation.
    DisableFail {
        /// Cycle.
        time: u64,
        /// The sender.
        router: NodeId,
        /// Input port the disable returned at.
        in_port: Direction,
        /// The probed output.
        probe_out: Direction,
        /// Did the sender's own buffer dependence still hold?
        holds: bool,
        /// Was the bubble free to arm?
        bubble_free: bool,
    },
    /// A disable returned validly: bubble armed, recovery engaged.
    Recover {
        /// Cycle.
        time: u64,
        /// The recovering static-bubble router.
        router: NodeId,
        /// Upstream port of the frozen chain.
        chain_in: Direction,
        /// Protected output of the frozen chain.
        out: Direction,
        /// Vnet of the chain.
        vnet: u8,
    },
}

impl ProtoEvent {
    /// One-line human-readable rendering (the `trace_lines` format).
    pub fn line(&self) -> String {
        match self {
            ProtoEvent::Forward {
                time,
                router,
                in_port,
                out,
                kind,
                sender,
                vnet,
                turns,
            } => format!(
                "[{time}] fwd {kind:?} sender=n{} at n{} {in_port:?}->{out:?} vnet={vnet} \
                 turns={turns}",
                sender.0, router.0
            ),
            ProtoEvent::Drop {
                time,
                router,
                in_port,
                kind,
                sender,
                vnet,
                turns,
                reason,
            } => format!(
                "[{time}] drop {kind:?} sender=n{} at n{} in={in_port:?} vnet={vnet} \
                 turns={turns} reason={reason:?}",
                sender.0, router.0
            ),
            ProtoEvent::ProbeReturn {
                time,
                router,
                in_port,
                origin_out,
                vnet,
                turns,
                all_occupied,
                wanted,
                closes_cycle,
                fsm,
            } => format!(
                "[{time}] return at n{} in={in_port:?} origin_out={origin_out:?} vnet={vnet} \
                 turns={turns} all_occupied={all_occupied} wanted={wanted:?} \
                 closes_cycle={closes_cycle} fsm={fsm:?}",
                router.0
            ),
            ProtoEvent::Latch {
                time,
                router,
                origin_out,
                vnet,
                turns,
            } => format!(
                "[{time}] latch at n{} origin_out={origin_out:?} vnet={vnet} turns={turns}",
                router.0
            ),
            ProtoEvent::DisableFail {
                time,
                router,
                in_port,
                probe_out,
                holds,
                bubble_free,
            } => format!(
                "[{time}] disfail at n{} in={in_port:?} probe_out={probe_out:?} holds={holds} \
                 bubble_free={bubble_free}",
                router.0
            ),
            ProtoEvent::Recover {
                time,
                router,
                chain_in,
                out,
                vnet,
            } => format!(
                "[{time}] recover at n{} chain_in={chain_in:?} out={out:?} vnet={vnet}",
                router.0
            ),
        }
    }
}

/// Always-on per-plugin protocol counters (replacing the old process-global
/// `DBG_*` atomics; see the `overload_monitor` example). Plain adds on the
/// plugin — maintained whether or not event tracing is on, and captured by
/// snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtoCounters {
    /// Probes that arrived back at their sender.
    pub probe_returns: u64,
    /// Returned probes that latched (a disable was sent).
    pub latches: u64,
    /// Returned probes whose walk did not close at the return port and
    /// were re-circulated as transit (see `DESIGN.md` §12).
    pub probe_returns_forwarded: u64,
    /// Returned probes dropped because the FSM was mid-recovery (also
    /// mirrored into [`sb_sim::Stats::probes_dropped`]).
    pub probes_dropped_busy: u64,
    /// Returned disables that failed final validation.
    pub disable_fails: u64,
    /// Recoveries engaged (disable returned validly; bubble armed).
    pub recoveries: u64,
    /// Probe drops: lower-id sender at an SB node.
    pub drops_lower_sender: u64,
    /// Probe drops: fork condition (all VCs occupied) failed.
    pub drops_not_occupied: u64,
    /// Probe drops: turn capacity exhausted.
    pub drops_capacity: u64,
    /// Drops: lost the per-output arbitration or failed re-validation.
    pub drops_conflict: u64,
    /// Disable drops: receiving SB node was mid-recovery.
    pub drops_disable_in_recovery: u64,
    /// Disable drops: router already frozen.
    pub drops_disable_frozen: u64,
    /// Disable drops: buffer dependence no longer held at a hop.
    pub drops_disable_stale: u64,
    /// All other drops (non-forking ablation, off-chain check-probes,
    /// exhausted paths, no legal fork).
    pub drops_other: u64,
}

impl ProtoCounters {
    fn note_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::LowerSender => self.drops_lower_sender += 1,
            DropReason::NotAllOccupied => self.drops_not_occupied += 1,
            DropReason::TurnCapacity => self.drops_capacity += 1,
            DropReason::OutputConflict | DropReason::Revalidation => self.drops_conflict += 1,
            DropReason::DisableInRecovery => self.drops_disable_in_recovery += 1,
            DropReason::DisableFrozen => self.drops_disable_frozen += 1,
            DropReason::DisableStale => self.drops_disable_stale += 1,
            DropReason::FsmBusy => self.probes_dropped_busy += 1,
            DropReason::NonForkingDivergence
            | DropReason::NoLegalFork
            | DropReason::OffChain
            | DropReason::PathExhausted
            | DropReason::WalkNotClosed => self.drops_other += 1,
        }
    }

    /// One-line summary for forensic reports.
    pub fn summary(&self) -> String {
        format!(
            "returns={} latches={} return_fwd={} dropped_busy={} disfail={} recovered={} \
             drops: lower={} notocc={} cap={} conflict={} d_recov={} d_frozen={} d_stale={} \
             other={}",
            self.probe_returns,
            self.latches,
            self.probe_returns_forwarded,
            self.probes_dropped_busy,
            self.disable_fails,
            self.recoveries,
            self.drops_lower_sender,
            self.drops_not_occupied,
            self.drops_capacity,
            self.drops_conflict,
            self.drops_disable_in_recovery,
            self.drops_disable_frozen,
            self.drops_disable_stale,
            self.drops_other,
        )
    }
}

/// Capacity of the traced-event ring: old events are discarded (and
/// counted) once the ring is full, keeping the window nearest the capture
/// point — which is the end a bisect replay reads.
const TRACE_EVENT_CAP: usize = 1 << 16;

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

/// The Static Bubble deadlock-recovery plugin (one per simulation).
#[derive(Debug)]
pub struct StaticBubblePlugin {
    fsms: BTreeMap<NodeId, SbFsm>,
    prot: Vec<ProtState>,
    in_flight: Vec<InFlightMsg>,
    tdd: u64,
    /// TTL of `is_deadlock` restrictions (cycles).
    restriction_ttl: u64,
    opts: SbOptions,
    /// Ring of the last [`RECENT_MSG_CAP`] special-message transmissions,
    /// reported by [`Plugin::forensic_lines`].
    recent: VecDeque<MsgRecord>,
    /// Cycle of the last `before_cycle` call. FSM counters advance by the
    /// elapsed time since then, so cycles skipped by the leap clock — during
    /// which the counted condition provably held — are accounted exactly as
    /// if they had been stepped through.
    last_tick: Option<u64>,
    /// Always-on protocol counters (see [`ProtoCounters`]).
    counters: ProtoCounters,
    /// Event tracing toggle ([`sb_sim::Plugin::set_tracing`]).
    trace_on: bool,
    /// Recorded events awaiting drain, newest at the back.
    events: VecDeque<ProtoEvent>,
    /// Events discarded because the ring was full.
    events_lost: u64,
    /// The routers whose `prot` entry has `is_deadlock` set, in no
    /// particular order: what the TTL sweep and [`Plugin::next_timer`]
    /// visit instead of every router. Derived from `prot` (rebuilt on
    /// restore, cross-checked by the audit), maintained by
    /// [`Self::set_restriction`].
    frozen: Vec<NodeId>,
    /// Per-tick scratch: the routers whose FSM (or bubble occupant) has
    /// work this tick. Kept only for its capacity.
    due: Vec<NodeId>,
}

impl StaticBubblePlugin {
    /// Build the plugin for a mesh, installing an FSM at every placement
    /// node (use [`placement::placement`] for the bubble list passed to
    /// [`sb_sim::Simulator::with_bubbles`]).
    ///
    /// `tdd` is the deadlock-detection threshold (Table II uses 34).
    pub fn new(mesh: Mesh, tdd: u64) -> Self {
        Self::with_options(mesh, tdd, SbOptions::default())
    }

    /// Build the plugin with explicit ablation options.
    pub fn with_options(mesh: Mesh, tdd: u64, opts: SbOptions) -> Self {
        Self::with_bubble_nodes(mesh, tdd, opts, &placement::placement(mesh))
    }

    /// Build the plugin with an explicit static-bubble router set (the paper
    /// notes that "alternate hand-optimized placements, some with fewer
    /// static bubbles, are also possible" — see
    /// [`placement::greedy_placement`]). The caller must pass the same
    /// set to [`sb_sim::Simulator::with_bubbles`].
    pub fn with_bubble_nodes(mesh: Mesh, tdd: u64, opts: SbOptions, nodes: &[NodeId]) -> Self {
        // Each router's detection timer gets a small id-dependent stagger:
        // identical periods at every node phase-lock probe collisions in a
        // synchronous network (real timers drift; DSENT-era designs stagger
        // counters for the same reason).
        let fsms = nodes
            .iter()
            .map(|&n| {
                let mut fsm = SbFsm::new(n, tdd + u64::from(n.0) % 7);
                if opts.probe_desync {
                    fsm.retry_stagger = u64::from(n.0);
                }
                (n, fsm)
            })
            .collect();
        StaticBubblePlugin {
            fsms,
            prot: vec![ProtState::default(); mesh.node_count()],
            in_flight: Vec::new(),
            tdd,
            restriction_ttl: 64 * tdd.max(1),
            opts,
            recent: VecDeque::with_capacity(RECENT_MSG_CAP),
            last_tick: None,
            counters: ProtoCounters::default(),
            trace_on: false,
            events: VecDeque::new(),
            events_lost: 0,
            frozen: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Replace `router`'s restriction registers, keeping the `frozen` index
    /// in step. Any change to them changes what `allow_grant` permits
    /// there, so the router is woken (wakeup invariant, see
    /// `sb_sim::Plugin`).
    fn set_restriction(&mut self, core: &mut NetCore, router: NodeId, state: ProtState) {
        let prot = &mut self.prot[router.index()];
        match (prot.is_deadlock, state.is_deadlock) {
            (false, true) => self.frozen.push(router),
            (true, false) => {
                let at = self.frozen.iter().position(|&r| r == router);
                self.frozen
                    .swap_remove(at.expect("frozen router is indexed"));
            }
            _ => {}
        }
        *prot = state;
        core.touch(router);
    }

    /// The always-on protocol counters.
    pub fn counters(&self) -> &ProtoCounters {
        &self.counters
    }

    /// Record a protocol event (no-op unless tracing is enabled).
    fn record(&mut self, ev: ProtoEvent) {
        if !self.trace_on {
            return;
        }
        if self.events.len() == TRACE_EVENT_CAP {
            self.events.pop_front();
            self.events_lost += 1;
        }
        self.events.push_back(ev);
    }

    /// The detection threshold.
    pub fn tdd(&self) -> u64 {
        self.tdd
    }

    /// The FSM of a static-bubble router, if `node` is one.
    pub fn fsm(&self, node: NodeId) -> Option<&SbFsm> {
        self.fsms.get(&node)
    }

    /// Mutable access to the FSM of a static-bubble router — a test hook
    /// for seeding auditor violations. Production transitions go through
    /// the plugin's own message handlers.
    pub fn fsm_mut(&mut self, node: NodeId) -> Option<&mut SbFsm> {
        self.fsms.get_mut(&node)
    }

    /// Number of routers currently frozen (`is_deadlock` set).
    pub fn frozen_routers(&self) -> usize {
        self.frozen.len()
    }

    /// Diagnostic view of frozen routers: `(router, (in, out), source)`.
    pub fn frozen_details(&self) -> Vec<(NodeId, (Direction, Direction), NodeId)> {
        self.prot
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_deadlock)
            .map(|(i, p)| {
                (
                    NodeId::from(i),
                    p.io.expect("frozen router has io"),
                    p.source.expect("frozen router has source"),
                )
            })
            .collect()
    }

    /// Special messages currently in flight (diagnostics).
    pub fn in_flight_messages(&self) -> usize {
        self.in_flight.len()
    }

    // ------------------------------------------------------------------
    // Message transmission
    // ------------------------------------------------------------------

    /// Schedule `msg` out of `(from, out)`: it arrives at the neighbour in
    /// 2 cycles (1-cycle process + 1-cycle link) and its link traversal is
    /// accounted per class.
    fn send(&mut self, core: &mut NetCore, from: NodeId, out: Direction, msg: SpecialMsg) {
        debug_assert!(
            core.topology().link_alive(from, out),
            "special message over dead link"
        );
        let to = core
            .topology()
            .mesh()
            .neighbor(from, out)
            .expect("alive link");
        core.stats_mut().special_link_flits[msg.kind.stat_class().index()] += 1;
        if self.recent.len() == RECENT_MSG_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(MsgRecord {
            time: core.time(),
            from,
            out,
            to,
            kind: msg.kind,
            sender: msg.sender,
            vnet: msg.vnet,
        });
        self.in_flight.push(InFlightMsg {
            in_port: out.opposite(),
            arrive_at: core.time() + 2,
            msg,
            to,
        });
    }

    // ------------------------------------------------------------------
    // Message evaluation (transit messages at any router)
    // ------------------------------------------------------------------

    /// Evaluate a transit message (sender ≠ router) against current state,
    /// without mutating. Returns the action; state mutation happens in
    /// `apply_transit` once the message wins its output port.
    fn evaluate_transit(
        &self,
        core: &NetCore,
        router: NodeId,
        in_port: Direction,
        msg: &SpecialMsg,
    ) -> Vec<Action> {
        let travel = in_port.opposite();
        let prot = &self.prot[router.index()];
        let is_sb = self.fsms.contains_key(&router);
        match msg.kind {
            MsgKind::Probe => {
                // SB nodes drop probes from lower-id senders — the higher-id
                // node is responsible for any cycle through both. Exception
                // (deviation, DESIGN.md): if this node's bubble is occupied
                // by a stranded packet it cannot currently recover anything,
                // so it defers to lower-id nodes instead of suppressing
                // them.
                let bubble_usable =
                    core.has_bubble(router) && core.bubble_occupant(router).is_none();
                if is_sb && msg.sender < router && bubble_usable {
                    return vec![Action::Drop(DropReason::LowerSender)];
                }
                // Fork iff all VCs of the vnet at this input port are active.
                if !core.all_vcs_occupied(router, in_port, msg.vnet) {
                    return vec![Action::Drop(DropReason::NotAllOccupied)];
                }
                let wants = core.wanted_outputs(router, in_port, msg.vnet);
                if !self.opts.forking && wants.len() > 1 {
                    // Ablation: the non-forking strawman drops probes at
                    // any divergence point.
                    return vec![Action::Drop(DropReason::NonForkingDivergence)];
                }
                let mut copies = Vec::new();
                for want in wants {
                    let OutPort::Dir(d) = want else {
                        continue; // never towards ejection
                    };
                    let Some(turn) = Turn::between(travel, d) else {
                        continue; // u-turns cannot occur (no-u-turn routing)
                    };
                    let mut copy = msg.clone();
                    if copy.push_turn(turn) {
                        copies.push(Action::Forward { out: d, msg: copy });
                    } else {
                        copies.push(Action::Drop(DropReason::TurnCapacity));
                    }
                }
                if copies.is_empty() {
                    copies.push(Action::Drop(DropReason::NoLegalFork));
                }
                copies
            }
            MsgKind::Disable => {
                if is_sb && self.fsms[&router].in_recovery() {
                    return vec![Action::Drop(DropReason::DisableInRecovery)];
                }
                if prot.is_deadlock {
                    // Second disable dropped.
                    return vec![Action::Drop(DropReason::DisableFrozen)];
                }
                let mut m = msg.clone();
                let Some(out) = m.strip_turn(travel) else {
                    return vec![Action::Drop(DropReason::PathExhausted)];
                };
                // Same buffer dependence as when the probe passed?
                let holds = core.all_vcs_occupied(router, in_port, m.vnet)
                    && core
                        .wanted_outputs(router, in_port, m.vnet)
                        .contains(&OutPort::Dir(out));
                if holds {
                    vec![Action::Forward { out, msg: m }]
                } else {
                    vec![Action::Drop(DropReason::DisableStale)]
                }
            }
            MsgKind::CheckProbe => {
                let mut m = msg.clone();
                let Some(out) = m.strip_turn(travel) else {
                    return vec![Action::Drop(DropReason::PathExhausted)];
                };
                // Forward along the frozen chain while at least one VC is
                // still part of it (Buffer Dependency Check unit).
                let on_chain = prot.is_deadlock
                    && prot.source == Some(msg.sender)
                    && prot.io == Some((in_port, out))
                    && core
                        .wanted_outputs(router, in_port, m.vnet)
                        .contains(&OutPort::Dir(out));
                if on_chain {
                    vec![Action::Forward { out, msg: m }]
                } else {
                    vec![Action::Drop(DropReason::OffChain)]
                }
            }
            MsgKind::Enable => {
                // Enables are forwarded even through SB nodes that are in a
                // recovery state of their own: processing is gated by the
                // source-id match, so forwarding is always safe, and
                // dropping them can wedge the network — router restrictions
                // placed by sender A would never clear while node B stays
                // in recovery, and B's recovery may itself be blocked on
                // A's frozen routers (deviation from one sentence of
                // Sec. IV-B; see DESIGN.md).
                let mut m = msg.clone();
                let Some(out) = m.strip_turn(travel) else {
                    return vec![Action::Drop(DropReason::PathExhausted)];
                };
                // Forwarded regardless of the source-id match; the match
                // only gates local processing (apply_transit).
                vec![Action::Forward { out, msg: m }]
            }
        }
    }

    /// Apply the state mutation of a transit message that won its output.
    /// Returns whether the message may be forwarded — `false` rejects it
    /// outright (nothing was mutated, nothing is sent).
    fn apply_transit(
        &mut self,
        core: &mut NetCore,
        router: NodeId,
        in_port: Direction,
        out: Direction,
        msg: &SpecialMsg,
    ) -> bool {
        let self_expiry = core.time() + self.restriction_ttl;
        match msg.kind {
            MsgKind::Disable => {
                // A disable must never freeze an SB node that is mid-recovery
                // — resetting its FSM to SOff from a recovery state would
                // orphan its armed bubble and its own frozen chain. The
                // evaluation path already drops such disables, and winners
                // are re-evaluated after every same-cycle state change, so
                // this guard is believed unreachable; it is an explicit
                // release-mode reject (was a bare `debug_assert!`) so that
                // any future reordering of the before_cycle pipeline fails
                // safe instead of corrupting recovery state.
                if self.fsms.get(&router).is_some_and(SbFsm::in_recovery) {
                    debug_assert!(false, "disable applied at in-recovery SB node");
                    self.counters.note_drop(DropReason::DisableInRecovery);
                    self.record(ProtoEvent::Drop {
                        time: core.time(),
                        router,
                        in_port,
                        kind: msg.kind,
                        sender: msg.sender,
                        vnet: msg.vnet,
                        turns: msg.turns.len(),
                        reason: DropReason::DisableInRecovery,
                    });
                    return false;
                }
                let frozen = ProtState {
                    is_deadlock: true,
                    io: Some((in_port, out)),
                    source: Some(msg.sender),
                    expires_at: self_expiry,
                };
                self.set_restriction(core, router, frozen);
                // An SB node in detection that processes a (higher-id)
                // disable sends its counter to SOff.
                if let Some(fsm) = self.fsms.get_mut(&router) {
                    fsm.goto(FsmState::SOff);
                    fsm.watching = None;
                    fsm.restart_counter();
                }
            }
            MsgKind::Enable => {
                let prot = self.prot[router.index()];
                if prot.source == Some(msg.sender) {
                    let lifted = ProtState {
                        expires_at: prot.expires_at,
                        ..ProtState::default()
                    };
                    self.set_restriction(core, router, lifted);
                }
            }
            MsgKind::Probe | MsgKind::CheckProbe => {}
        }
        true
    }

    // ------------------------------------------------------------------
    // Returned messages (sender == router): consumed at the FSM, except
    // for probes whose walk has not closed yet — those re-enter the
    // transit path (Some return) and keep walking the dependence chain.
    // ------------------------------------------------------------------

    fn consume_returned(
        &mut self,
        core: &mut NetCore,
        router: NodeId,
        in_port: Direction,
        msg: SpecialMsg,
    ) -> Option<(Direction, SpecialMsg)> {
        let Some(state) = self.fsms.get(&router).map(|f| f.state) else {
            debug_assert!(false, "returned message at non-SB node");
            return None;
        };
        match msg.kind {
            MsgKind::Probe => {
                self.counters.probe_returns += 1;
                // Several probes can be outstanding (one per pointed VC), so
                // the output port this particular probe left from is
                // reconstructed from its turn list rather than read from a
                // register the next probe may have overwritten.
                let origin_out = msg.origin_out(in_port.opposite());
                // A returned probe confirms a closed dependence walk, but
                // only a walk that closes into a VC *wanting the original
                // probe output* is a cycle this bubble can break. The same
                // check the disable return applies, evaluated here so
                // pseudo-cycles never tie the FSM up in a doomed
                // disable/enable round.
                let all_occupied = core.all_vcs_occupied(router, in_port, msg.vnet);
                let wanted_outs = core.wanted_outputs(router, in_port, msg.vnet);
                let closes_cycle = all_occupied && wanted_outs.contains(&OutPort::Dir(origin_out));
                if self.trace_on {
                    let wanted: Vec<Direction> = wanted_outs
                        .iter()
                        .filter_map(|o| match o {
                            OutPort::Dir(d) => Some(*d),
                            OutPort::Eject => None,
                        })
                        .collect();
                    self.record(ProtoEvent::ProbeReturn {
                        time: core.time(),
                        router,
                        in_port,
                        origin_out,
                        vnet: msg.vnet,
                        turns: msg.turns.len(),
                        all_occupied,
                        wanted,
                        closes_cycle,
                        fsm: state,
                    });
                }
                // Dependence chain confirmed; latch the path and freeze it.
                if state == FsmState::SDd && closes_cycle {
                    self.counters.latches += 1;
                    self.record(ProtoEvent::Latch {
                        time: core.time(),
                        router,
                        origin_out,
                        vnet: msg.vnet,
                        turns: msg.turns.len(),
                    });
                    let fsm = self.fsms.get_mut(&router).expect("checked SB node");
                    fsm.probe_out = origin_out;
                    fsm.probe_vnet = msg.vnet;
                    fsm.latch_probe(msg.turns.clone());
                    let disable = SpecialMsg::with_path(
                        MsgKind::Disable,
                        router,
                        msg.vnet,
                        fsm.turn_buffer.clone(),
                    );
                    self.send(core, router, origin_out, disable);
                    return None;
                }
                let drop = |this: &mut Self, core: &mut NetCore, reason: DropReason| {
                    this.counters.note_drop(reason);
                    this.record(ProtoEvent::Drop {
                        time: core.time(),
                        router,
                        in_port,
                        kind: MsgKind::Probe,
                        sender: router,
                        vnet: msg.vnet,
                        turns: msg.turns.len(),
                        reason,
                    });
                };
                if self.fsms[&router].in_recovery() {
                    // Mid-recovery: one recovery at a time, so this second
                    // cycle's probe is discarded — loudly (satellite of
                    // ISSUE 9): the drop is a protocol-level loss of
                    // detection work, visible in Stats and forensics.
                    core.stats_mut().probes_dropped += 1;
                    drop(self, core, DropReason::FsmBusy);
                    return None;
                }
                if !self.opts.return_forwarding {
                    // Ablation: the pre-fix behavior dropped every returned
                    // probe that did not latch.
                    drop(self, core, DropReason::WalkNotClosed);
                    return None;
                }
                // The walk did not close here: the sender sits mid-chain on
                // a knot that passes through it more than once. Keep the
                // probe walking — it re-enters the transit path (the
                // lower-id screen never fires on a sender's own probe) and,
                // if the dependence truly cycles, returns again at the port
                // where it closes. Termination is bounded by the turn
                // capacity. See `DESIGN.md` §12.
                self.counters.probe_returns_forwarded += 1;
                Some((in_port, msg))
            }
            MsgKind::Disable => {
                if state != FsmState::SDisable {
                    return None;
                }
                // Validate the sender's own buffer dependence (a false
                // positive may have cleared while the disable circulated).
                let out = self.fsms[&router].probe_out;
                let holds = core.all_vcs_occupied(router, in_port, msg.vnet)
                    && core
                        .wanted_outputs(router, in_port, msg.vnet)
                        .contains(&OutPort::Dir(out));
                // The bubble may still hold a leftover occupant from an
                // aborted earlier recovery; it cannot be re-armed until that
                // packet drains.
                let bubble_free = core.has_bubble(router) && core.bubble_occupant(router).is_none();
                if !holds || !bubble_free {
                    self.counters.disable_fails += 1;
                    self.record(ProtoEvent::DisableFail {
                        time: core.time(),
                        router,
                        in_port,
                        probe_out: out,
                        holds,
                        bubble_free,
                    });
                    return None; // timeout will send the enable
                }
                let fsm = self.fsms.get_mut(&router).expect("checked SB node");
                fsm.goto(FsmState::SSbActive);
                fsm.chain_in = in_port;
                fsm.restart_counter();
                let vnet = msg.vnet;
                self.counters.recoveries += 1;
                self.record(ProtoEvent::Recover {
                    time: core.time(),
                    router,
                    chain_in: in_port,
                    out,
                    vnet,
                });
                let frozen = ProtState {
                    is_deadlock: true,
                    io: Some((in_port, out)),
                    source: Some(router),
                    expires_at: core.time() + self.restriction_ttl,
                };
                self.set_restriction(core, router, frozen);
                core.bubble_activate(router, in_port, vnet);
                core.stats_mut().deadlocks_recovered += 1;
                None
            }
            MsgKind::CheckProbe => {
                if state != FsmState::SCheckProbe {
                    return None;
                }
                let fsm = self.fsms.get_mut(&router).expect("checked SB node");
                // The chain is still deadlocked: open the bubble again.
                fsm.goto(FsmState::SSbActive);
                fsm.restart_counter();
                let (port, vnet) = (fsm.chain_in, fsm.probe_vnet);
                core.bubble_activate(router, port, vnet);
                None
            }
            MsgKind::Enable => {
                if state != FsmState::SEnable {
                    return None;
                }
                // Fig. 5: "enable rcvd & VCs active → increment counter
                // pointer, reset is_deadlock, rsc → SDD". Advancing the
                // pointer past the VC whose recovery attempt just ended is
                // what guarantees the FSM eventually probes a VC that lies
                // on a recoverable cycle instead of retrying one whose
                // probe keeps failing validation.
                let fsm = self.fsms.get_mut(&router).expect("checked SB node");
                let after = fsm.watching.map(|w| (w.port, w.vc));
                fsm.clear_recovery();
                self.set_restriction(core, router, ProtState::default());
                let fsm = self.fsms.get_mut(&router).expect("still an SB node");
                if let Some(ptr) = Self::next_occupied_vc(core, router, after) {
                    fsm.watching = Some(ptr);
                    fsm.goto(FsmState::SDd);
                    fsm.restart_counter();
                }
                None
            }
        }
    }

    /// Footnote 6 of the paper: a packet sitting in the static bubble that
    /// is waiting for some *other* output port moves sideways into a regular
    /// VC of its vnet at the attached input port as soon as one frees (the
    /// chain packet departing through the protected output frees it). This
    /// is what lets the bubble be re-claimed even when its occupant is stuck
    /// behind unrelated congestion.
    fn relocate_bubble_occupants(&mut self, core: &mut NetCore) {
        // A relocation touches no other router, so selecting the occupied
        // attached bubbles first selects the same set.
        let mut due = std::mem::take(&mut self.due);
        due.extend(
            self.fsms
                .keys()
                .filter(|&&n| core.bubble_attach(n).is_some() && core.bubble_occupant(n).is_some()),
        );
        for router in due.drain(..) {
            let (port, vnet) = core.bubble_attach(router).expect("selected as attached");
            let Some(free_vc) = core.first_free_regular_vc(router, port, vnet) else {
                continue;
            };
            // Move the packet bubble → regular VC (intra-router, no link),
            // keeping its hop-pipeline readiness.
            let (h, ready) = core.bubble_take_occupant(router).expect("checked occupied");
            core.vc_put(
                VcRef {
                    router,
                    port,
                    vc: free_vc,
                },
                h,
                ready,
            );
            // The bubble is re-claimed: same transition as on_bubble_freed.
            self.on_bubble_freed(core, router);
        }
        self.due = due;
    }

    // ------------------------------------------------------------------
    // FSM ticking
    // ------------------------------------------------------------------

    /// The cyclic (port, vc) order used by the round-robin VC pointer.
    fn next_occupied_vc(
        core: &NetCore,
        router: NodeId,
        after: Option<(Direction, u8)>,
    ) -> Option<VcPointer> {
        let vcs = core.config().vcs_per_port();
        let start = match after {
            Some((p, v)) => p.index() * vcs + v as usize + 1,
            None => 0,
        };
        // Bit `port * vcs + vc` of the occupancy word is the slot's place in
        // the cyclic order: the first set bit at or after `start`, else
        // (wrapping) the first set bit at all.
        let occupied = core.occupancy_mask(router);
        let ahead = occupied & (u64::MAX << start);
        let first = if ahead != 0 { ahead } else { occupied };
        if first == 0 {
            return None;
        }
        let i = first.trailing_zeros() as usize;
        let (port, vc) = (Direction::from_index(i / vcs), (i % vcs) as u8);
        let pkt = core
            .vc_occupant(VcRef { router, port, vc })
            .expect("occupancy bit set");
        Some(VcPointer {
            port,
            vc,
            pkt: pkt.id,
        })
    }

    /// The packet the FSM's VC pointer watches, while it still sits in that
    /// VC and waits for a mesh output (the SDd counting condition).
    fn watched_waiting<'c>(
        core: &'c NetCore,
        router: NodeId,
        fsm: &SbFsm,
    ) -> Option<&'c sb_sim::Packet> {
        let watched = fsm.watching.expect("SDd has a pointer");
        core.vc_occupant(VcRef {
            router,
            port: watched.port,
            vc: watched.vc,
        })
        .filter(|p| p.id == watched.pkt && p.desired_hop().is_some())
    }

    /// Account `gap` cycles the leap clock skipped since the previous
    /// executed tick. Every counter that was counting kept counting through
    /// them: nothing moves during a leaped gap, so the increment condition
    /// held throughout, and [`Plugin::next_timer`] lets no gap overshoot a
    /// threshold crossing. This runs before the tick's deliveries, so a
    /// counter a delivery restarts counts from this tick — as it does under
    /// the step clock — and not from the start of the gap.
    fn account_gap(&mut self, core: &NetCore, gap: u64) {
        for (&router, fsm) in self.fsms.iter_mut() {
            let counting = fsm.in_recovery()
                || (fsm.state == FsmState::SDd
                    && Self::watched_waiting(core, router, fsm).is_some());
            if counting {
                fsm.count += gap;
            }
        }
    }

    /// Advance the counter FSM at `router` by the one cycle of an executed
    /// tick (skipped cycles are [`Self::account_gap`]'s).
    fn tick_fsm(&mut self, core: &mut NetCore, router: NodeId) {
        let fsm = self.fsms.get_mut(&router).expect("ticking SB node");
        match fsm.state {
            FsmState::SOff => {
                if let Some(ptr) = Self::next_occupied_vc(core, router, None) {
                    fsm.watching = Some(ptr);
                    fsm.goto(FsmState::SDd);
                    fsm.restart_counter();
                }
            }
            FsmState::SDd => {
                let watched = fsm.watching.expect("SDd has a pointer");
                let still_waiting = Self::watched_waiting(core, router, fsm)
                    .map(|p| (p.desired_hop().expect("waiting"), p.vnet));
                match still_waiting {
                    Some((dir, vnet)) => {
                        fsm.count += 1;
                        if fsm.count >= fsm.effective_tdd() {
                            // Timeout: suspected deadlock. Send a probe out
                            // of the output port the stuck packet wants.
                            fsm.probe_out = dir;
                            fsm.probe_vnet = vnet;
                            fsm.restart_counter();
                            // Advance the pointer round-robin so every
                            // stalled VC is probed in turn. (Deviation from
                            // the letter of Fig. 5, which advances only when
                            // the flit leaves: a VC blocked *behind* a
                            // remote cycle would otherwise monopolise the
                            // counter and the on-cycle VCs of this router
                            // would never be probed — livelock. See
                            // DESIGN.md.)
                            let cur = fsm.watching.map(|w| (w.port, w.vc));
                            fsm.watching =
                                Self::next_occupied_vc(core, router, cur).or(fsm.watching);
                            fsm.probe_backoff = (fsm.probe_backoff + 1).min(5);
                            core.stats_mut().probes_sent += 1;
                            let probe = SpecialMsg::probe(router, vnet);
                            self.send(core, router, dir, probe);
                        }
                    }
                    None => {
                        // The flit left (or wants ejection): local movement,
                        // so detection urgency resets. Point to the next
                        // active VC round-robin, or switch off.
                        fsm.probe_backoff = 0;
                        match Self::next_occupied_vc(core, router, Some((watched.port, watched.vc)))
                        {
                            Some(ptr) => {
                                fsm.watching = Some(ptr);
                                fsm.restart_counter();
                            }
                            None => {
                                fsm.watching = None;
                                fsm.goto(FsmState::SOff);
                                fsm.restart_counter();
                            }
                        }
                    }
                }
            }
            FsmState::SDisable | FsmState::SCheckProbe => {
                fsm.count += 1;
                if fsm.count > fsm.tdr {
                    // The disable/check-probe was dropped mid-way: release
                    // the restrictions placed so far.
                    fsm.goto(FsmState::SEnable);
                    fsm.restart_counter();
                    let enable = SpecialMsg::with_path(
                        MsgKind::Enable,
                        router,
                        fsm.probe_vnet,
                        fsm.turn_buffer.clone(),
                    );
                    let out = fsm.probe_out;
                    self.send(core, router, out, enable);
                }
            }
            FsmState::SEnable => {
                fsm.count += 1;
                if fsm.count > fsm.tdr {
                    fsm.restart_counter();
                    fsm.enable_retries += 1;
                    if fsm.enable_retries > 4 {
                        // Give up (deviation, DESIGN.md): long latched paths
                        // can make the enable's round trip arbitrarily
                        // fragile under heavy special-message traffic.
                        // Clear local state and return to detection duty;
                        // restrictions at unreachable routers expire via the
                        // TTL.
                        let after = fsm.watching.map(|w| (w.port, w.vc));
                        fsm.clear_recovery();
                        self.set_restriction(core, router, ProtState::default());
                        let fsm = self.fsms.get_mut(&router).expect("SB node");
                        if let Some(ptr) = Self::next_occupied_vc(core, router, after) {
                            fsm.watching = Some(ptr);
                            fsm.goto(FsmState::SDd);
                            fsm.restart_counter();
                        }
                        return;
                    }
                    let enable = SpecialMsg::with_path(
                        MsgKind::Enable,
                        router,
                        fsm.probe_vnet,
                        fsm.turn_buffer.clone(),
                    );
                    let out = fsm.probe_out;
                    self.send(core, router, out, enable);
                }
            }
            FsmState::SSbActive => {
                // The paper leaves the counter off here and relies on the
                // bubble being claimed by the frozen chain. If the buffer
                // dependence drifted while the disable circulated (a
                // congestion false positive), nobody ever claims the bubble
                // and the FSM would wedge with its chain frozen forever.
                // Watchdog (deviation, see DESIGN.md): an *unclaimed* bubble
                // for t_DR cycles is treated like a reclaim — switch it off
                // and re-verify the chain with a check-probe.
                let bubble_empty =
                    core.has_bubble(router) && core.bubble_occupant(router).is_none();
                if bubble_empty {
                    fsm.count += 1;
                    if fsm.count > fsm.tdr {
                        fsm.goto(FsmState::SCheckProbe);
                        fsm.restart_counter();
                        let cp = SpecialMsg::with_path(
                            MsgKind::CheckProbe,
                            router,
                            fsm.probe_vnet,
                            fsm.turn_buffer.clone(),
                        );
                        let out = fsm.probe_out;
                        core.bubble_deactivate(router);
                        self.send(core, router, out, cp);
                    }
                } else {
                    // Occupied bubble: normally the ring rotates and the
                    // occupant departs within a few serialization times. If
                    // the chain dependence drifted mid-recovery the rotation
                    // can wedge with the occupant stuck behind unrelated
                    // traffic while our restrictions starve the rest of the
                    // network. Second watchdog stage (deviation, DESIGN.md):
                    // release the restrictions; the occupant drains as an
                    // ordinary buffered packet and the bubble stays
                    // deactivated until then.
                    fsm.count += 1;
                    let occupied_watchdog = (8 * fsm.tdr).max(4 * fsm.tdd);
                    if fsm.count > occupied_watchdog {
                        core.bubble_deactivate(router);
                        fsm.goto(FsmState::SEnable);
                        fsm.restart_counter();
                        let enable = SpecialMsg::with_path(
                            MsgKind::Enable,
                            router,
                            fsm.probe_vnet,
                            fsm.turn_buffer.clone(),
                        );
                        let out = fsm.probe_out;
                        self.send(core, router, out, enable);
                    }
                }
            }
        }
    }
}

impl Plugin for StaticBubblePlugin {
    fn after_cycle(&mut self, core: &mut NetCore) {
        self.relocate_bubble_occupants(core);
    }

    fn before_cycle(&mut self, core: &mut NetCore) {
        let now = core.time();
        // Cycles the leap clock skipped since the previous executed tick
        // (none under the step clock).
        let gap = (self.last_tick).map_or(0, |prev| (now - prev).saturating_sub(1));
        if gap > 0 {
            self.account_gap(core, gap);
        }
        self.last_tick = Some(now);
        // TTL sweep: lost enables cannot poison a router forever.
        // Back to front, because lifting a restriction swap-removes the
        // router from the list being walked.
        for i in (0..self.frozen.len()).rev() {
            let router = self.frozen[i];
            if now >= self.prot[router.index()].expires_at {
                self.set_restriction(core, router, ProtState::default());
            }
        }
        // 1. Deliver messages arriving this cycle, grouped by router.
        let mut arrivals: BTreeMap<NodeId, Vec<(Direction, SpecialMsg)>> = BTreeMap::new();
        let mut still_flying = Vec::with_capacity(self.in_flight.len());
        for m in std::mem::take(&mut self.in_flight) {
            if m.arrive_at <= now {
                arrivals.entry(m.to).or_default().push((m.in_port, m.msg));
            } else {
                still_flying.push(m);
            }
        }
        self.in_flight = still_flying;

        for (router, mut msgs) in arrivals {
            // Returned messages are consumed first (the FSM has additional
            // control over processing order at its own node).
            msgs.sort_by_key(|(_, m)| {
                (
                    std::cmp::Reverse(m.kind.priority()),
                    std::cmp::Reverse(m.sender),
                )
            });
            let mut transit: Vec<(Direction, SpecialMsg)> = Vec::new();
            for (in_port, msg) in msgs {
                if msg.sender == router {
                    // A returned probe whose walk has not closed yet
                    // re-enters the transit path and keeps walking.
                    if let Some(keep) = self.consume_returned(core, router, in_port, msg) {
                        transit.push(keep);
                    }
                } else {
                    transit.push((in_port, msg));
                }
            }
            // Evaluate transit messages against pre-state, pick one winner
            // per output port, then apply sequentially with re-validation.
            let mut per_out: [Option<(Direction, SpecialMsg, SpecialMsg)>; 4] =
                [None, None, None, None];
            for (in_port, msg) in &transit {
                for action in self.evaluate_transit(core, router, *in_port, msg) {
                    let Action::Forward { out, msg: fwd } = action else {
                        let Action::Drop(reason) = action else {
                            unreachable!()
                        };
                        self.counters.note_drop(reason);
                        self.record(ProtoEvent::Drop {
                            time: now,
                            router,
                            in_port: *in_port,
                            kind: msg.kind,
                            sender: msg.sender,
                            vnet: msg.vnet,
                            turns: msg.turns.len(),
                            reason,
                        });
                        continue;
                    };
                    let slot = &mut per_out[out.index()];
                    let replace = match slot {
                        None => true,
                        Some((_, cur_orig, _)) => beats(&fwd, cur_orig, &self.prot[router.index()]),
                    };
                    let loser = if replace {
                        let displaced = slot.take();
                        *slot = Some((*in_port, msg.clone(), fwd));
                        displaced.map(|(p, orig, _)| (p, orig))
                    } else {
                        Some((*in_port, msg.clone()))
                    };
                    if let Some((p, m)) = loser {
                        self.counters.note_drop(DropReason::OutputConflict);
                        self.record(ProtoEvent::Drop {
                            time: now,
                            router,
                            in_port: p,
                            kind: m.kind,
                            sender: m.sender,
                            vnet: m.vnet,
                            turns: m.turns.len(),
                            reason: DropReason::OutputConflict,
                        });
                    }
                }
            }
            for (out_idx, slot) in per_out.into_iter().enumerate() {
                let Some((in_port, orig, fwd)) = slot else {
                    continue;
                };
                let out = Direction::from_index(out_idx);
                // Re-validate against current state (an earlier output's
                // disable may have set is_deadlock this cycle).
                let still_ok = self
                    .evaluate_transit(core, router, in_port, &orig)
                    .iter()
                    .any(|a| matches!(a, Action::Forward { out: o, .. } if *o == out));
                if still_ok
                    && core.topology().link_alive(router, out)
                    && self.apply_transit(core, router, in_port, out, &fwd)
                {
                    self.record(ProtoEvent::Forward {
                        time: now,
                        router,
                        in_port,
                        out,
                        kind: fwd.kind,
                        sender: fwd.sender,
                        vnet: fwd.vnet,
                        turns: fwd.turns.len(),
                    });
                    self.send(core, router, out, fwd);
                } else {
                    self.counters.note_drop(DropReason::Revalidation);
                    self.record(ProtoEvent::Drop {
                        time: now,
                        router,
                        in_port,
                        kind: orig.kind,
                        sender: orig.sender,
                        vnet: orig.vnet,
                        turns: orig.turns.len(),
                        reason: DropReason::Revalidation,
                    });
                }
            }
        }

        // 2. Tick the FSMs, in id order. An FSM in SOff does nothing until a
        // VC at its router fills, so it is skipped on the router's
        // occupancy word; no tick changes another router's FSM or buffers,
        // so selecting before ticking selects the same set.
        let mut due = std::mem::take(&mut self.due);
        due.extend(
            self.fsms
                .iter()
                .filter(|(&n, fsm)| fsm.state != FsmState::SOff || core.any_occupied(n))
                .map(|(&n, _)| n),
        );
        for n in due.drain(..) {
            self.tick_fsm(core, n);
        }
        self.due = due;
    }

    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        let now = core.time();
        let mut best: Option<u64> = None;
        let mut note = |at: u64| {
            let at = at.max(now);
            if best.is_none_or(|b| at < b) {
                best = Some(at);
            }
        };
        // Special messages deliver at their arrival cycle.
        for m in &self.in_flight {
            note(m.arrive_at);
        }
        // Restriction TTLs expire on their own clock.
        for r in &self.frozen {
            note(self.prot[r.index()].expires_at);
        }
        // Counter FSMs: each fires (probe / timeout / watchdog) at the tick
        // where its counter crosses the state's threshold. `fsm.count`
        // reflects the last executed tick at `now - 1`, so the crossing tick
        // is `now + (threshold_excess - 1)`. Bounds may be conservative
        // (early) — a woken tick that fires nothing just re-arms the timer —
        // but are never late.
        for (&router, fsm) in &self.fsms {
            match fsm.state {
                FsmState::SOff => {
                    // Leaves SOff as soon as any VC is occupied — something
                    // only executed ticks can change, except that occupancy
                    // may already hold now. Be conservative: if anything is
                    // occupied, refuse to leap so the transition happens on
                    // the very next tick, as it would under the step clock.
                    if core.any_occupied(router) {
                        note(now);
                    }
                }
                FsmState::SDd => {
                    match Self::watched_waiting(core, router, fsm) {
                        // Counting towards the probe timeout.
                        Some(_) => note(
                            now + fsm
                                .effective_tdd()
                                .saturating_sub(fsm.count)
                                .saturating_sub(1),
                        ),
                        // The watched flit left: the pointer rotates on the
                        // very next tick (a per-tick action no gap
                        // accounting can replay), so do not leap.
                        None => note(now),
                    }
                }
                FsmState::SDisable | FsmState::SCheckProbe | FsmState::SEnable => {
                    note(now + (fsm.tdr + 1).saturating_sub(fsm.count).saturating_sub(1));
                }
                FsmState::SSbActive => {
                    let bubble_empty =
                        core.has_bubble(router) && core.bubble_occupant(router).is_none();
                    let th = if bubble_empty {
                        fsm.tdr
                    } else {
                        (8 * fsm.tdr).max(4 * fsm.tdd)
                    };
                    note(now + (th + 1).saturating_sub(fsm.count).saturating_sub(1));
                    // Footnote-6 relocation (after_cycle) triggers as soon
                    // as a regular VC at the attach port frees — which can
                    // happen purely by time when a slot is draining.
                    if core.bubble_occupant(router).is_some() {
                        if let Some((port, vnet)) = core.bubble_attach(router) {
                            for vc in core.config().vcs_of_vnet(vnet) {
                                if let Some(until) =
                                    core.vc_draining_until(VcRef { router, port, vc })
                                {
                                    note(until);
                                }
                            }
                        }
                    }
                }
            }
        }
        best
    }

    fn allow_grant(
        &self,
        core: &NetCore,
        router: NodeId,
        input: InputRef,
        out: OutPort,
        _pkt: &sb_sim::Packet,
    ) -> bool {
        let prot = &self.prot[router.index()];
        if !prot.is_deadlock {
            return true;
        }
        let Some((chain_in, chain_out)) = prot.io else {
            return true;
        };
        if out != OutPort::Dir(chain_out) {
            return true;
        }
        // Only the frozen chain's input port (or the bubble attached to it)
        // may inject into the protected output.
        match input {
            InputRef::Vc(v) => v.port == chain_in,
            InputRef::Bubble(b) => core.bubble_attach(b).is_some_and(|(p, _)| p == chain_in),
            InputRef::Inject { .. } => false,
        }
    }

    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &sb_sim::Packet,
    ) -> Option<SlotRef> {
        if let Some(vc) = core.first_free_regular_vc(router, port, pkt.vnet) {
            return Some(SlotRef::Regular(vc));
        }
        core.bubble_available(router, port, pkt.vnet)
            .then_some(SlotRef::Bubble)
    }

    fn on_bubble_freed(&mut self, core: &mut NetCore, router: NodeId) {
        let Some(fsm) = self.fsms.get_mut(&router) else {
            return;
        };
        if fsm.state != FsmState::SSbActive {
            return;
        }
        // Step 14-16: reclaim the bubble, switch it off, send a check-probe
        // along the latched path to see if the chain is still deadlocked
        // (or, with the fast path ablated, go straight to the enable).
        core.bubble_deactivate(router);
        let kind = if self.opts.check_probe {
            fsm.goto(FsmState::SCheckProbe);
            MsgKind::CheckProbe
        } else {
            fsm.goto(FsmState::SEnable);
            MsgKind::Enable
        };
        fsm.restart_counter();
        let m = SpecialMsg::with_path(kind, router, fsm.probe_vnet, fsm.turn_buffer.clone());
        let out = fsm.probe_out;
        self.send(core, router, out, m);
    }

    fn audit_check(&mut self, core: &NetCore, out: &mut Vec<Violation>) {
        // (a) FSM edges outside the Fig. 5 diagram, recorded by goto() at
        // transition time so nothing slips between two audits.
        for (&node, fsm) in self.fsms.iter_mut() {
            for it in fsm.take_illegal() {
                out.push(Violation {
                    class: AuditClass::FsmLegality,
                    router: Some(node),
                    detail: format!("illegal FSM transition {:?} -> {:?}", it.from, it.to),
                });
            }
        }
        for (&node, fsm) in self.fsms.iter() {
            // (b) Bubble attachment <=> FSM in SSbActive, with the attach
            // port/vnet agreeing with the latched chain.
            let attach = core.bubble_attach(node);
            match (fsm.state == FsmState::SSbActive, attach) {
                (true, None) => out.push(Violation {
                    class: AuditClass::FsmLegality,
                    router: Some(node),
                    detail: "FSM is SSbActive but the bubble is deactivated".to_string(),
                }),
                (false, Some(_)) => out.push(Violation {
                    class: AuditClass::FsmLegality,
                    router: Some(node),
                    detail: format!("bubble attached while FSM is {:?}", fsm.state),
                }),
                (true, Some((port, vnet))) => {
                    if port != fsm.chain_in || vnet != fsm.probe_vnet {
                        out.push(Violation {
                            class: AuditClass::FsmLegality,
                            router: Some(node),
                            detail: format!(
                                "bubble attach ({:?}, vnet {}) disagrees with the latched \
                                 chain ({:?}, vnet {})",
                                port, vnet, fsm.chain_in, fsm.probe_vnet
                            ),
                        });
                    }
                }
                (false, None) => {}
            }
            // (c) Detection always has a pointer.
            if fsm.state == FsmState::SDd && fsm.watching.is_none() {
                out.push(Violation {
                    class: AuditClass::FsmLegality,
                    router: Some(node),
                    detail: "FSM in SDd without a watched VC".to_string(),
                });
            }
        }
        // (d) Attached bubbles exist only at static-bubble routers.
        for node in core.topology().mesh().nodes() {
            if core.bubble_attach(node).is_some() && !self.fsms.contains_key(&node) {
                out.push(Violation {
                    class: AuditClass::FsmLegality,
                    router: Some(node),
                    detail: "bubble attached at a router with no FSM".to_string(),
                });
            }
        }
        // (e) Restriction registers are consistent: frozen => io + source
        // present with an SB source; a self-frozen SB node must be in
        // recovery; unfrozen => registers clear. The `frozen` index lists
        // exactly the frozen routers.
        let mut indexed = self.frozen.clone();
        indexed.sort_unstable();
        if indexed != frozen_index(&self.prot) {
            out.push(Violation {
                class: AuditClass::FsmLegality,
                router: None,
                detail: format!(
                    "frozen-router index {indexed:?} disagrees with the is_deadlock bits"
                ),
            });
        }
        for (i, p) in self.prot.iter().enumerate() {
            let node = NodeId::from(i);
            if p.is_deadlock {
                let (Some(_), Some(src)) = (p.io, p.source) else {
                    out.push(Violation {
                        class: AuditClass::FsmLegality,
                        router: Some(node),
                        detail: "frozen router with missing io/source registers".to_string(),
                    });
                    continue;
                };
                if !self.fsms.contains_key(&src) {
                    out.push(Violation {
                        class: AuditClass::FsmLegality,
                        router: Some(node),
                        detail: format!(
                            "restriction source n{} is not a static-bubble node",
                            src.0
                        ),
                    });
                } else if src == node && !self.fsms[&node].in_recovery() {
                    out.push(Violation {
                        class: AuditClass::FsmLegality,
                        router: Some(node),
                        detail: "self-frozen SB router whose FSM is not in recovery".to_string(),
                    });
                }
            } else if p.io.is_some() || p.source.is_some() {
                out.push(Violation {
                    class: AuditClass::FsmLegality,
                    router: Some(node),
                    detail: "unfrozen router with stale io/source registers".to_string(),
                });
            }
        }
    }

    fn trace_lines(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        if self.events_lost > 0 {
            out.push(format!(
                "... {} earlier events discarded (ring capacity {})",
                self.events_lost, TRACE_EVENT_CAP
            ));
            self.events_lost = 0;
        }
        out.extend(self.events.drain(..).map(|e| e.line()));
        out
    }

    fn set_tracing(&mut self, enable: bool) {
        self.trace_on = enable;
        if !enable {
            self.events.clear();
            self.events_lost = 0;
        }
    }

    fn snapshot_state(&self) -> Result<String, String> {
        sb_sim::json::to_json_string(&SbState {
            fsms: self.fsms.values().cloned().collect(),
            prot: self.prot.clone(),
            in_flight: self.in_flight.clone(),
            tdd: self.tdd,
            restriction_ttl: self.restriction_ttl,
            opts: self.opts,
            recent: self.recent.iter().cloned().collect(),
            last_tick: self.last_tick,
            counters: self.counters,
            trace_on: self.trace_on,
            events: self.events.iter().cloned().collect(),
            events_lost: self.events_lost,
        })
        .map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: SbState = sb_sim::json::from_json_str(blob).map_err(|e| e.0)?;
        self.fsms = state.fsms.into_iter().map(|f| (f.node, f)).collect();
        self.prot = state.prot;
        self.frozen = frozen_index(&self.prot);
        self.in_flight = state.in_flight;
        self.tdd = state.tdd;
        self.restriction_ttl = state.restriction_ttl;
        self.opts = state.opts;
        self.recent = state.recent.into();
        self.last_tick = state.last_tick;
        self.counters = state.counters;
        self.trace_on = state.trace_on;
        self.events = state.events.into();
        self.events_lost = state.events_lost;
        Ok(())
    }

    fn forensic_lines(&self, core: &NetCore) -> Vec<String> {
        let _ = core;
        let mut lines = Vec::new();
        lines.push(format!("proto counters: {}", self.counters.summary()));
        for (&node, fsm) in &self.fsms {
            if fsm.state == FsmState::SOff {
                continue;
            }
            lines.push(format!(
                "fsm n{}: {:?} count={} tdd={} tdr={} probe_out={:?} chain_in={:?} vnet={} \
                 retries={} watching={:?}",
                node.0,
                fsm.state,
                fsm.count,
                fsm.effective_tdd(),
                fsm.tdr,
                fsm.probe_out,
                fsm.chain_in,
                fsm.probe_vnet,
                fsm.enable_retries,
                fsm.watching,
            ));
        }
        for (i, p) in self.prot.iter().enumerate() {
            if p.is_deadlock {
                lines.push(format!(
                    "frozen n{}: io={:?} source=n{} expires_at={}",
                    i,
                    p.io,
                    p.source.map_or(u16::MAX, |s| s.0),
                    p.expires_at,
                ));
            }
        }
        for m in &self.in_flight {
            lines.push(format!(
                "in-flight {:?} sender=n{} to=n{} in_port={:?} arrive_at={} turns={}",
                m.msg.kind,
                m.msg.sender.0,
                m.to.0,
                m.in_port,
                m.arrive_at,
                m.msg.turns.len(),
            ));
        }
        for r in &self.recent {
            lines.push(format!(
                "sent @{}: {:?} sender=n{} hop n{} -> n{} out={:?} vnet={}",
                r.time, r.kind, r.sender.0, r.from.0, r.to.0, r.out, r.vnet,
            ));
        }
        lines
    }
}

/// Snapshot blob of the plugin's complete mutable state
/// ([`sb_sim::Plugin::snapshot_state`]). The FSM map is flattened to a
/// vector (each [`SbFsm`] carries its node id) so the blob stays plain
/// JSON arrays/objects.
#[derive(Serialize, Deserialize)]
struct SbState {
    fsms: Vec<SbFsm>,
    prot: Vec<ProtState>,
    in_flight: Vec<InFlightMsg>,
    tdd: u64,
    restriction_ttl: u64,
    opts: SbOptions,
    recent: Vec<MsgRecord>,
    last_tick: Option<u64>,
    counters: ProtoCounters,
    trace_on: bool,
    events: Vec<ProtoEvent>,
    events_lost: u64,
}

/// The routers whose `is_deadlock` bit is set, ascending.
fn frozen_index(prot: &[ProtState]) -> Vec<NodeId> {
    (prot.iter().enumerate())
        .filter(|(_, p)| p.is_deadlock)
        .map(|(i, _)| NodeId::from(i))
        .collect()
}

/// Does `a` beat `b` for the same output port? Priority first; a
/// disable/enable collision is resolved by the local `is_deadlock` bit;
/// otherwise higher sender id wins.
fn beats(a: &SpecialMsg, b: &SpecialMsg, prot: &ProtState) -> bool {
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

// Keep DIRECTIONS referenced for readers of this module (and future use in
// per-port iteration).
const _: [Direction; 4] = DIRECTIONS;

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sim::{NoTraffic, SimConfig, Simulator};
    use sb_topology::Mesh;

    fn msg(kind: MsgKind, sender: u16) -> SpecialMsg {
        SpecialMsg {
            kind,
            sender: NodeId(sender),
            vnet: 0,
            turns: Vec::new(),
        }
    }

    #[test]
    fn output_conflicts_follow_section_iv_c() {
        let free = ProtState::default();
        let frozen = ProtState {
            is_deadlock: true,
            ..ProtState::default()
        };
        // Priority classes.
        assert!(beats(
            &msg(MsgKind::CheckProbe, 1),
            &msg(MsgKind::Disable, 9),
            &free
        ));
        assert!(beats(
            &msg(MsgKind::Disable, 1),
            &msg(MsgKind::Probe, 9),
            &free
        ));
        // Same kind: higher sender wins.
        assert!(beats(
            &msg(MsgKind::Probe, 9),
            &msg(MsgKind::Probe, 3),
            &free
        ));
        assert!(!beats(
            &msg(MsgKind::Probe, 3),
            &msg(MsgKind::Probe, 9),
            &free
        ));
        // Disable vs enable resolved by the local is_deadlock bit.
        assert!(beats(
            &msg(MsgKind::Enable, 1),
            &msg(MsgKind::Disable, 9),
            &frozen
        ));
        assert!(!beats(
            &msg(MsgKind::Enable, 1),
            &msg(MsgKind::Disable, 9),
            &free
        ));
        assert!(beats(
            &msg(MsgKind::Disable, 1),
            &msg(MsgKind::Enable, 9),
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

    #[test]
    fn plugin_installs_an_fsm_per_placement_node() {
        let mesh = Mesh::new(8, 8);
        let plugin = StaticBubblePlugin::new(mesh, 34);
        for n in placement::placement(mesh) {
            assert!(plugin.fsm(n).is_some());
        }
        assert!(plugin.fsm(NodeId(0)).is_none());
        assert_eq!(plugin.frozen_routers(), 0);
        assert_eq!(plugin.in_flight_messages(), 0);
    }

    #[test]
    fn custom_bubble_sets_are_honoured() {
        let mesh = Mesh::new(4, 4);
        let nodes = [NodeId(5), NodeId(10)];
        let plugin = StaticBubblePlugin::with_bubble_nodes(mesh, 8, SbOptions::default(), &nodes);
        assert!(plugin.fsm(NodeId(5)).is_some());
        assert!(plugin.fsm(NodeId(10)).is_some());
        assert!(plugin.fsm(NodeId(6)).is_none());
    }

    #[test]
    fn idle_network_sends_no_messages() {
        let mesh = Mesh::new(8, 8);
        let topo = sb_topology::Topology::full(mesh);
        let bubbles = placement::placement(mesh);
        let mut sim = Simulator::with_bubbles(
            &topo,
            SimConfig::single_vnet(),
            Box::new(sb_routing::MinimalRouting::new(&topo)),
            StaticBubblePlugin::new(mesh, 5),
            NoTraffic,
            0,
            &bubbles,
        );
        sim.run(500);
        let s = sim.core().stats();
        assert_eq!(s.probes_sent, 0, "FSMs stay in SOff with empty VCs");
        assert_eq!(sim.plugin().in_flight_messages(), 0);
        for b in &bubbles {
            assert_eq!(sim.plugin().fsm(*b).unwrap().state, FsmState::SOff);
        }
    }
}
