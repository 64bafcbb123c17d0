//! What the Static Bubble runtime records about itself: the always-on
//! [`ProtoCounters`], the opt-in per-event trace ([`ProtoEvent`]) and the
//! recent-transmission ring behind [`sb_sim::Plugin::forensic_lines`].
//! Nothing here decides anything — [`crate::protocol`] does, and
//! [`crate::plugin`] hands the outcome to the `Recorder`.

use crate::fsm::{FsmState, SbFsm};
use crate::msg::{InFlightMsg, MsgKind};
use crate::protocol::{DropReason, ProtState, Stat};
use sb_topology::{Direction, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Capacity of the recent special-message ring kept for forensics.
const RECENT_MSG_CAP: usize = 64;

/// Capacity of the traced-event ring: old events are discarded (and
/// counted) once the ring is full, keeping the window nearest the capture
/// point — which is the end a bisect replay reads.
const TRACE_EVENT_CAP: usize = 1 << 16;

/// One transmission in the recent special-message ring (forensics only; no
/// protocol behaviour depends on it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MsgRecord {
    pub(crate) time: u64,
    pub(crate) from: NodeId,
    pub(crate) out: Direction,
    pub(crate) to: NodeId,
    pub(crate) kind: MsgKind,
    pub(crate) sender: NodeId,
    pub(crate) vnet: u8,
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
    /// Count one [`Stat`]; a recovery is also a
    /// [`sb_sim::Stats::deadlocks_recovered`], a probe sent only a
    /// [`sb_sim::Stats::probes_sent`].
    pub(crate) fn count(&mut self, stat: Stat, stats: &mut sb_sim::Stats) {
        match stat {
            Stat::ProbeSent => stats.probes_sent += 1,
            Stat::ProbeReturn => self.probe_returns += 1,
            Stat::Latch => self.latches += 1,
            Stat::ReturnForwarded => self.probe_returns_forwarded += 1,
            Stat::DisableFail => self.disable_fails += 1,
            Stat::Recovery => {
                self.recoveries += 1;
                stats.deadlocks_recovered += 1;
            }
        }
    }

    /// Count one discarded message. A probe lost to a busy FSM is a
    /// protocol-level loss of detection work, so it is mirrored into
    /// [`sb_sim::Stats::probes_dropped`] where sweeps see it.
    pub(crate) fn note_drop(&mut self, reason: DropReason, stats: &mut sb_sim::Stats) {
        match reason {
            DropReason::LowerSender => self.drops_lower_sender += 1,
            DropReason::NotAllOccupied => self.drops_not_occupied += 1,
            DropReason::TurnCapacity => self.drops_capacity += 1,
            DropReason::OutputConflict | DropReason::Revalidation => self.drops_conflict += 1,
            DropReason::DisableInRecovery => self.drops_disable_in_recovery += 1,
            DropReason::DisableFrozen => self.drops_disable_frozen += 1,
            DropReason::DisableStale => self.drops_disable_stale += 1,
            DropReason::FsmBusy => {
                self.probes_dropped_busy += 1;
                stats.probes_dropped += 1;
            }
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

/// Everything the plugin records, in one place: counters, the transmission
/// ring and the event trace. All of it is captured by snapshots.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// Always-on protocol counters (see [`ProtoCounters`]).
    pub(crate) counters: ProtoCounters,
    /// Ring of the last [`RECENT_MSG_CAP`] special-message transmissions.
    pub(crate) recent: VecDeque<MsgRecord>,
    /// Event tracing toggle ([`sb_sim::Plugin::set_tracing`]).
    pub(crate) trace_on: bool,
    /// Recorded events awaiting drain, newest at the back.
    pub(crate) events: VecDeque<ProtoEvent>,
    /// Events discarded because the ring was full.
    pub(crate) events_lost: u64,
}

impl Recorder {
    /// Record a protocol event (no-op unless tracing is enabled).
    pub(crate) fn record(&mut self, ev: ProtoEvent) {
        if !self.trace_on {
            return;
        }
        if self.events.len() == TRACE_EVENT_CAP {
            self.events.pop_front();
            self.events_lost += 1;
        }
        self.events.push_back(ev);
    }

    /// Remember one link transmission.
    pub(crate) fn sent(&mut self, rec: MsgRecord) {
        if self.recent.len() == RECENT_MSG_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(rec);
    }

    /// [`sb_sim::Plugin::set_tracing`].
    pub(crate) fn set_tracing(&mut self, enable: bool) {
        self.trace_on = enable;
        if !enable {
            self.events.clear();
            self.events_lost = 0;
        }
    }

    /// [`sb_sim::Plugin::trace_lines`]: drain the event ring as text.
    pub(crate) fn trace_lines(&mut self) -> Vec<String> {
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

    /// [`sb_sim::Plugin::forensic_lines`]: counters, every FSM out of
    /// `SOff`, every frozen router, every message in flight and the
    /// transmission ring.
    pub(crate) fn forensic_lines<'a>(
        &self,
        fsms: impl Iterator<Item = &'a SbFsm>,
        prot: &[ProtState],
        in_flight: &[InFlightMsg],
    ) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!("proto counters: {}", self.counters.summary()));
        for fsm in fsms {
            if fsm.state == FsmState::SOff {
                continue;
            }
            lines.push(format!(
                "fsm n{}: {:?} count={} tdd={} tdr={} probe_out={:?} chain_in={:?} vnet={} \
                 retries={} watching={:?}",
                fsm.node.0,
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
        for (i, p) in prot.iter().enumerate() {
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
        for m in in_flight {
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
