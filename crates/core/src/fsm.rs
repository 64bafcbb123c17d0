//! The 6-state counter FSM of a static-bubble router (Fig. 5).
//!
//! One FSM per static-bubble router manages deadlock detection and recovery:
//!
//! * `SOff` — counter off; no packet buffered at any mesh port.
//! * `SDd` — pointing at one occupied VC, counting up to `t_DD`; on timeout
//!   a **probe** is sent out of the output port the pointed packet wants.
//! * `SDisable` — probe returned; **disable** sent; counting up to `t_DR =
//!   2 × path length`; timeout means the disable was dropped → send enable.
//! * `SSbActive` — disable returned; bubble ON; counter off.
//! * `SCheckProbe` — bubble reclaimed; **check-probe** sent; counting to
//!   `t_DR`; if it returns, back to `SSbActive`, else → enable.
//! * `SEnable` — **enable** sent; counting to `t_DR`; resent on timeout
//!   until it returns.
//!
//! The transitions that need network state (VC occupancy, message arrivals)
//! are decided by [`crate::protocol::step`] (detection by
//! [`crate::protocol::detect`]); this module holds the state,
//! thresholds and pure bookkeeping so it can be unit-tested in isolation.

use sb_sim::PacketId;
use sb_topology::{Direction, NodeId, Turn};
use serde::Serialize;

/// A pointer to the VC the detection counter is watching: input port + flat
/// VC index + the packet id that was resident when we started counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VcPointer {
    /// Input port.
    pub port: Direction,
    /// Flat VC index.
    pub vc: u8,
    /// Packet the counter is timing.
    pub pkt: PacketId,
}

/// FSM state (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FsmState {
    /// Counter off, router idle.
    SOff,
    /// Deadlock detection: counting a pointed VC up to `t_DD`.
    SDd,
    /// Disable sent, awaiting its return within `t_DR`.
    SDisable,
    /// Bubble on; counter off.
    SSbActive,
    /// Check-probe sent, awaiting its return within `t_DR`.
    SCheckProbe,
    /// Enable sent, awaiting its return within `t_DR` (retransmitted on
    /// timeout).
    SEnable,
}

impl FsmState {
    /// All six states, in Fig. 5 order.
    pub const ALL: [FsmState; 6] = [
        FsmState::SOff,
        FsmState::SDd,
        FsmState::SDisable,
        FsmState::SSbActive,
        FsmState::SCheckProbe,
        FsmState::SEnable,
    ];

    /// Is `from -> to` an edge of the Fig. 5 transition diagram?
    ///
    /// Self-loops are always allowed (a state re-asserting itself is not a
    /// transition). The directed edges are exactly:
    ///
    /// * `SOff -> SDd` (a VC became occupied; start counting),
    /// * `SDd -> SOff` (the watched packet left and nothing else is stalled,
    ///   or a higher-id disable was processed),
    /// * `SDd -> SDisable` (probe returned and latched),
    /// * `SDisable -> SSbActive` (disable returned; bubble on),
    /// * `SDisable -> SEnable` (disable timed out),
    /// * `SSbActive -> SCheckProbe` (bubble reclaimed, fast re-check),
    /// * `SSbActive -> SEnable` (occupied-bubble watchdog, or the
    ///   check-probe ablation going straight to enable),
    /// * `SCheckProbe -> SSbActive` (check-probe returned; chain still
    ///   deadlocked),
    /// * `SCheckProbe -> SEnable` (check-probe timed out),
    /// * `SEnable -> SOff` (enable returned or the FSM gave up).
    ///
    /// The runtime auditor (`sb_sim::audit`) treats any other edge as an
    /// FSM-legality violation.
    pub fn transition_allowed(from: FsmState, to: FsmState) -> bool {
        use FsmState::*;
        from == to
            || matches!(
                (from, to),
                (SOff, SDd)
                    | (SDd, SOff)
                    | (SDd, SDisable)
                    | (SDisable, SSbActive)
                    | (SDisable, SEnable)
                    | (SSbActive, SCheckProbe)
                    | (SSbActive, SEnable)
                    | (SCheckProbe, SSbActive)
                    | (SCheckProbe, SEnable)
                    | (SEnable, SOff)
            )
    }
}

/// An FSM transition outside the Fig. 5 edge set, recorded by
/// `SbFsm::goto` at transition time and drained by the runtime auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IllegalTransition {
    /// The state the FSM left.
    pub from: FsmState,
    /// The state it entered.
    pub to: FsmState,
}

/// The per-router FSM + counter + turn buffer + recovery-local registers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SbFsm {
    /// This static-bubble router.
    pub node: NodeId,
    /// Current state.
    pub state: FsmState,
    /// The counter (cycles since last restart).
    pub count: u64,
    /// Deadlock-detection threshold (configurable; Table II uses 34).
    pub tdd: u64,
    /// Deadlock-resolution threshold (set from the latched path).
    pub tdr: u64,
    /// The VC pointer in `SDd`.
    pub watching: Option<VcPointer>,
    /// Turn buffer: the path latched from the returned probe.
    pub turn_buffer: Vec<Turn>,
    /// Output port the probe was sent from (also used by disable /
    /// check-probe / enable).
    pub probe_out: Direction,
    /// Vnet of the dependence chain being traced.
    pub probe_vnet: u8,
    /// Input port the returned disable arrived at (the chain's upstream
    /// port; IO-priority `in` at this router).
    pub chain_in: Direction,
    /// Consecutive enable retransmissions in `SEnable` (bounded; see
    /// [`crate::protocol`]).
    pub enable_retries: u32,
    /// Exponential backoff exponent for probe emission: raised each time a
    /// probe is sent without any local packet movement, cleared when the
    /// watched packet moves or a probe latches. Thins the probe flood under
    /// sustained congestion so that genuine cycle probes survive their lap
    /// (deviation, DESIGN.md).
    pub probe_backoff: u32,
    /// Additive retry stagger applied once backoff engages (0 = none; the
    /// plugin sets the node id here when probe desynchronization is on).
    /// The left shift alone multiplies the *base* stagger, so two routers
    /// in the same base-stagger class land on bit-identical backed-off
    /// periods — and in a synchronous network a mid-walk probe collision
    /// between them then recurs at the same cycle of every retry round,
    /// forever. A node-unique additive term makes every pair of periods
    /// distinct, so collision phases drift and a clean probe round
    /// eventually arrives (the pinned pipeline wedge;
    /// `crates/fleet/tests/wedge_seed.rs`).
    pub retry_stagger: u64,
    /// Illegal transitions recorded by `SbFsm::goto`, awaiting drain by
    /// the runtime auditor ([`SbFsm::take_illegal`]). Recording at
    /// transition time makes the FSM-legality audit exact at any audit
    /// cadence — a sampled state check would miss edges taken and undone
    /// between two audits.
    pub illegal: Vec<IllegalTransition>,
}

impl SbFsm {
    /// A fresh FSM in `SOff`.
    pub fn new(node: NodeId, tdd: u64) -> Self {
        SbFsm {
            node,
            state: FsmState::SOff,
            count: 0,
            tdd: tdd.max(1),
            tdr: 0,
            watching: None,
            turn_buffer: Vec::new(),
            probe_out: Direction::North,
            probe_vnet: 0,
            chain_in: Direction::North,
            enable_retries: 0,
            probe_backoff: 0,
            retry_stagger: 0,
            illegal: Vec::new(),
        }
    }

    /// Move to `to`, recording the edge if it is outside the Fig. 5
    /// transition diagram. All plugin-driven state changes go through here
    /// so the auditor sees every transition, not just sampled states.
    pub(crate) fn goto(&mut self, to: FsmState) {
        if !FsmState::transition_allowed(self.state, to) {
            self.illegal.push(IllegalTransition {
                from: self.state,
                to,
            });
        }
        self.state = to;
    }

    /// Drain the illegal transitions recorded since the last call.
    pub fn take_illegal(&mut self) -> Vec<IllegalTransition> {
        std::mem::take(&mut self.illegal)
    }

    /// Restart the counter ("rsc" in Fig. 5).
    pub(crate) fn restart_counter(&mut self) {
        self.count = 0;
    }

    /// Effective detection threshold including probe backoff. Retries
    /// (backoff > 0) additionally carry [`SbFsm::retry_stagger`] so that no
    /// two routers back off onto the same period; first detection is exact.
    pub(crate) fn effective_tdd(&self) -> u64 {
        let backed = self.tdd << self.probe_backoff.min(4);
        if self.probe_backoff == 0 {
            backed
        } else {
            backed + self.retry_stagger
        }
    }

    /// Is the FSM in a recovery state (`SDR` in the paper's shorthand:
    /// anything past detection)? Disables/enables from *other* senders are
    /// dropped in these states.
    pub fn in_recovery(&self) -> bool {
        matches!(
            self.state,
            FsmState::SDisable | FsmState::SSbActive | FsmState::SCheckProbe | FsmState::SEnable
        )
    }

    /// Latch a returned probe: store the path, switch to `SDisable`, set
    /// `t_DR`.
    pub fn latch_probe(&mut self, turns: Vec<Turn>) {
        self.probe_backoff = 0;
        self.tdr = 2 * (turns.len() as u64 + 1);
        self.turn_buffer = turns;
        self.goto(FsmState::SDisable);
        self.restart_counter();
    }

    /// Clear all recovery registers and return to detection (`watching`
    /// will be re-pointed by the plugin).
    pub(crate) fn clear_recovery(&mut self) {
        self.enable_retries = 0;
        self.turn_buffer.clear();
        self.tdr = 0;
        self.watching = None;
        self.goto(FsmState::SOff);
        self.restart_counter();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_fsm_is_off() {
        let fsm = SbFsm::new(NodeId(5), 34);
        assert_eq!(fsm.state, FsmState::SOff);
        assert_eq!(fsm.tdd, 34);
        assert!(!fsm.in_recovery());
    }

    #[test]
    fn tdd_clamped_to_one() {
        assert_eq!(SbFsm::new(NodeId(0), 0).tdd, 1);
    }

    #[test]
    fn latch_probe_sets_tdr_and_state() {
        let mut fsm = SbFsm::new(NodeId(5), 34);
        fsm.count = 17;
        fsm.latch_probe(vec![Turn::Left; 5]);
        assert_eq!(fsm.state, FsmState::SDisable);
        assert_eq!(fsm.tdr, 12);
        assert_eq!(fsm.count, 0);
        assert!(fsm.in_recovery());
    }

    #[test]
    fn effective_tdd_backs_off_exponentially_with_cap() {
        let mut fsm = SbFsm::new(NodeId(1), 10);
        assert_eq!(fsm.effective_tdd(), 10);
        fsm.probe_backoff = 1;
        assert_eq!(fsm.effective_tdd(), 20);
        fsm.probe_backoff = 4;
        assert_eq!(fsm.effective_tdd(), 160);
        fsm.probe_backoff = 9; // capped at 4 doublings
        assert_eq!(fsm.effective_tdd(), 160);
    }

    #[test]
    fn latch_resets_backoff() {
        let mut fsm = SbFsm::new(NodeId(1), 10);
        fsm.probe_backoff = 3;
        fsm.latch_probe(vec![Turn::Left; 4]);
        assert_eq!(fsm.probe_backoff, 0);
        assert_eq!(fsm.tdr, 10);
    }

    #[test]
    fn self_loops_are_always_legal() {
        for s in FsmState::ALL {
            assert!(FsmState::transition_allowed(s, s));
        }
    }

    #[test]
    fn goto_records_illegal_edges_and_drains() {
        let mut fsm = SbFsm::new(NodeId(0), 10);
        fsm.goto(FsmState::SDd);
        assert!(fsm.take_illegal().is_empty());
        // SDd -> SEnable skips the whole recovery handshake: not an edge.
        fsm.goto(FsmState::SEnable);
        assert_eq!(
            fsm.take_illegal(),
            vec![IllegalTransition {
                from: FsmState::SDd,
                to: FsmState::SEnable
            }]
        );
        assert!(fsm.take_illegal().is_empty());
        assert_eq!(fsm.state, FsmState::SEnable);
    }

    #[test]
    fn clear_recovery_resets_everything() {
        let mut fsm = SbFsm::new(NodeId(5), 34);
        fsm.latch_probe(vec![Turn::Right; 3]);
        fsm.state = FsmState::SEnable;
        fsm.clear_recovery();
        assert_eq!(fsm.state, FsmState::SOff);
        assert!(fsm.turn_buffer.is_empty());
        assert!(!fsm.in_recovery());
    }
}
