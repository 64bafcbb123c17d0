//! The plugin interface through which deadlock-handling schemes attach to
//! the simulator.
//!
//! The engine consults the plugin at three points each cycle:
//!
//! 1. [`Plugin::before_cycle`] / [`Plugin::after_cycle`] — protocol work
//!    (FSMs, special messages, timeout counters) with full mutable access to
//!    the network state;
//! 2. [`Plugin::allow_grant`] — veto over individual switch-allocation
//!    grants (this is where Static Bubble's `is_deadlock` injection
//!    restrictions live);
//! 3. [`Plugin::pick_slot`] — choice of the downstream buffer a packet is
//!    granted into (regular VC, escape VC, or an active static bubble).

use crate::netcore::NetCore;
use crate::packet::Packet;
use crate::vc::VcRef;
use sb_topology::{Direction, NodeId};
use serde::{Deserialize, Serialize};

/// An output of a router: a mesh direction or local ejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutPort {
    /// Towards a neighbouring router.
    Dir(Direction),
    /// Ejection to the local NI.
    Eject,
}

/// An input-side buffer position competing for the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputRef {
    /// A regular VC.
    Vc(VcRef),
    /// The static-bubble buffer of the router (at most one per router).
    Bubble(NodeId),
    /// The head of a local injection queue.
    Inject {
        /// The injecting node.
        node: NodeId,
        /// The queue's virtual network.
        vnet: u8,
    },
}

/// The downstream buffer selected for a granted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotRef {
    /// Regular VC with the given flat index.
    Regular(u8),
    /// The router's static bubble.
    Bubble,
}

/// Deadlock-handling scheme attached to a [`crate::Simulator`].
///
/// The default implementations describe a plain network with no mechanism —
/// which is correct for the spanning-tree avoidance baseline, whose
/// deadlock-freedom comes entirely from its routes.
///
/// # The wakeup invariant
///
/// The switch allocator is change-driven: a router that granted nothing is
/// skipped until an event that can create a new allocation candidate wakes
/// it (see [`NetCore::touch`] / [`NetCore::wake_at`]). Every `NetCore`
/// mutation path already wakes the routers it affects, so a plugin that
/// changes the network only through `NetCore` methods needs nothing extra.
/// But a plugin whose [`Plugin::allow_grant`] or [`Plugin::pick_slot`]
/// answers depend on *internal* plugin state must call
/// [`NetCore::touch`] for every router a change to that state may unblock —
/// e.g. the Static Bubble plugin touches a router whenever it sets or
/// clears that router's `is_deadlock` injection restriction. A missed wake
/// silently diverges from the reference full sweep
/// ([`crate::Simulator::scan_all_routers`]); spurious wakes only cost one
/// empty scan.
///
/// # The hook cost contract
///
/// [`Plugin::before_cycle`] and [`Plugin::after_cycle`] run on **every
/// executed tick**, next to an allocator whose own cost tracks the routers
/// that changed. A hook must therefore cost O(occupied or tracked state):
/// it visits the slots [`NetCore::occupancy_mask`] names and the entries of
/// the plugin's own side tables (in-flight messages, restricted routers),
/// and spends at most one word-sized test on a router or protocol engine
/// that has neither. It must **never sweep every router's state or every
/// VC** — on a 16×16 mesh at low load such a sweep, not the traffic, was
/// most of the tick. A counter that is a function of a stored time is
/// derived, not bumped each tick (the escape-VC stall clock is
/// `now − ready_at + 1`), and a hook visits state only on a tick where it
/// can fire (the escape plugin keeps the earliest such tick and returns at
/// once before it). A quiet tick (nothing occupied, nothing tracked)
/// allocates nothing. An index or bound a plugin keeps for this purpose is
/// derived state: keep it out of [`Plugin::snapshot_state`].
pub trait Plugin {
    /// The routers that carry a static-bubble buffer. [`crate::Simulator::new`]
    /// asks once and builds exactly these buffers, so the plugin that drives
    /// the bubbles is the one place their set is stated. None by default.
    fn bubble_routers(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Called at the start of every executed cycle, before allocation.
    /// Special message delivery and FSM transitions happen here. Bound by
    /// the hook cost contract above.
    fn before_cycle(&mut self, core: &mut NetCore) {
        let _ = core;
    }

    /// Called at the end of every executed cycle, after allocation. Timeout
    /// counters that depend on observed movement happen here. Bound by the
    /// hook cost contract above.
    fn after_cycle(&mut self, core: &mut NetCore) {
        let _ = core;
    }

    /// May the packet held at `input` of `router` be granted to `out` this
    /// cycle? Vetoing is how injection restrictions are enforced.
    fn allow_grant(
        &self,
        core: &NetCore,
        router: NodeId,
        input: InputRef,
        out: OutPort,
        pkt: &Packet,
    ) -> bool {
        let _ = (core, router, input, out, pkt);
        true
    }

    /// Choose the buffer at `router`'s input port `port` that `pkt` would
    /// occupy if granted, or `None` if no buffer is available to it.
    ///
    /// # The slot contract
    ///
    /// The answer may only be a buffer of the packet's **own vnet** at that
    /// port that is **free right now**: `SlotRef::Regular(vc)` with `vc` in
    /// [`crate::SimConfig::vcs_of_vnet`]`(pkt.vnet)` and
    /// [`NetCore::vc_is_free`], or `SlotRef::Bubble` with
    /// [`NetCore::bubble_available`]`(router, port, pkt.vnet)`. A plugin may
    /// narrow that set by its own policy (the escape-VC plugin splits the
    /// group by packet mode) but never widen it. The winner search relies
    /// on it: once `NetCore::vnet_has_free_slot` is false for a vnet at a
    /// downstream port, it stops asking for that vnet's remaining
    /// candidates. Debug builds assert the contract on every grant.
    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &Packet,
    ) -> Option<SlotRef> {
        core.first_free_regular_vc(router, port, pkt.vnet)
            .map(SlotRef::Regular)
    }

    /// The packet occupying the static bubble at `router` has departed
    /// (the bubble is "re-claimed", Section IV-A step 14).
    fn on_bubble_freed(&mut self, core: &mut NetCore, router: NodeId) {
        let _ = (core, router);
    }

    /// Invariant audit hook: push one [`crate::audit::Violation`] per
    /// protocol-level invariant the plugin's own state breaks (illegal FSM
    /// transitions, orphaned restrictions, bubble/FSM disagreement). Called
    /// by the engine's `crate::audit` pass; `&mut self` lets the plugin
    /// drain internally-accumulated evidence.
    fn audit_check(&mut self, core: &NetCore, out: &mut Vec<crate::audit::Violation>) {
        let _ = (core, out);
    }

    /// Human-readable protocol state for a [`crate::audit::ForensicsReport`]
    /// — FSM states, pending restrictions, recent special messages.
    fn forensic_lines(&self, core: &NetCore) -> Vec<String> {
        let _ = core;
        Vec::new()
    }

    /// The earliest future cycle at which this plugin's *time-driven* state
    /// can change: a timeout counter crossing its threshold, an in-flight
    /// special message arriving, a TTL expiring. Consulted by the engine
    /// when the runnable set is empty; it will not execute any cycle
    /// strictly before the returned value, and the plugin's
    /// `before_cycle`/`after_cycle` must account for the skipped cycles
    /// (e.g. by advancing counters by the elapsed time rather than by 1, or
    /// by deriving them from a stored time).
    ///
    /// The bound may be conservative (earlier than the true event — the
    /// extra cycles are merely executed), but must never be later than the
    /// first cycle whose execution differs from a no-op. `None` means "no
    /// timed state at all"; any value `<= core.time()` means "execute
    /// every cycle", which is the default: a plugin that does not say when
    /// its next event is sees every cycle.
    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        Some(core.time())
    }

    /// Serialize the plugin's complete mutable state as a JSON blob for an
    /// [`crate::EngineSnapshot`], the write-only dump two runs are compared
    /// by. The default suits stateless plugins.
    fn snapshot_state(&self) -> Result<String, String> {
        Ok("null".to_string())
    }

    /// Drain accumulated protocol trace events as human-readable lines
    /// (empty unless the plugin implements tracing and it was enabled).
    /// Folded into [`crate::audit::ForensicsReport::probe_trace`].
    fn trace_lines(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Enable or disable protocol event tracing (default: no-op — the null
    /// and escape plugins have no trace machinery).
    fn set_tracing(&mut self, enable: bool) {
        let _ = enable;
    }
}

/// The no-mechanism plugin: plain VC allocation, no vetoes, no bubbles.
///
/// Used for the spanning-tree deadlock-avoidance baseline and for raw
/// deadlock-formation experiments (Figs. 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NullPlugin;

impl Plugin for NullPlugin {
    fn next_timer(&self, _core: &NetCore) -> Option<u64> {
        None
    }
}
