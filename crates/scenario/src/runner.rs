//! Type-erased handle over a running [`sb_sim::Simulator`].
//!
//! `Simulator<P, T>` is generic over its deadlock plugin and traffic source,
//! which is exactly right for the hot loop and exactly wrong for an
//! experiment layer that decides both at runtime from a spec. [`SimRunner`]
//! erases the two parameters behind one object-safe interface; the concrete
//! plugin/traffic are still reachable through [`SimRunner::plugin_any`] /
//! [`SimRunner::traffic_any`] for design-specific reporting (escape counts,
//! closed-loop completion).

use std::any::Any;

use sb_sim::{
    EngineSnapshot, EscapeVcPlugin, ForensicsReport, KernelCounters, NetCore, Plugin, Simulator,
    Stats, TrafficSource,
};

/// A live simulation, abstracted over plugin and traffic types.
pub trait SimRunner {
    /// Current simulation time.
    fn time(&self) -> u64;
    /// Run `cycles` cycles then reset the measurement window.
    fn warmup(&mut self, cycles: u64);
    /// Run `cycles` cycles.
    fn run(&mut self, cycles: u64);
    /// Close the injection tap for good: the traffic source is no longer
    /// polled and counts as exhausted for [`SimRunner::run_until_drained`].
    fn halt_injection(&mut self);
    /// Run until the network empties (or `max_cycles` elapse); `true` if
    /// it drained. Call [`SimRunner::halt_injection`] first when the
    /// traffic source is open-loop (it never exhausts on its own).
    fn run_until_drained(&mut self, max_cycles: u64) -> bool;
    /// Measurement-window statistics.
    fn stats(&self) -> &Stats;
    /// The network state (occupancy art, in-flight count, ...).
    fn core(&self) -> &NetCore;
    /// Allocator work counts since construction (see
    /// [`sb_sim::KernelCounters`]).
    fn kernel_counters(&self) -> KernelCounters;
    /// Does the deadlock oracle flag the current state?
    fn deadlocked_now(&self) -> bool;
    /// Run until the oracle detects a deadlock (checked every `check_every`
    /// cycles) or `max_cycles` elapse; `Some(time)` on detection, with a
    /// [`ForensicsReport`] left for [`SimRunner::take_forensics`].
    fn run_until_deadlock(&mut self, max_cycles: u64, check_every: u64) -> Option<u64>;
    /// Toggle the reference full-sweep kernel (A/B testing the worklist).
    fn scan_all_routers(&mut self, enable: bool);
    /// Audit every `every` cycles (0 = off). See `sb_sim::audit`.
    fn set_audit(&mut self, every: u64);
    /// Audit immediately; `Some` report if any invariant is violated.
    fn audit_now(&mut self) -> Option<ForensicsReport>;
    /// Take the most recent forensics report (audit failure or detected
    /// deadlock), leaving `None` behind.
    fn take_forensics(&mut self) -> Option<ForensicsReport>;
    /// Dump the full engine state (write-only). See
    /// [`sb_sim::EngineSnapshot`].
    fn snapshot(&self) -> Result<EngineSnapshot, String>;
    /// Toggle per-event protocol tracing on the deadlock plugin (see
    /// [`sb_sim::Plugin::set_tracing`]). Free when off; plugins without
    /// tracing ignore it.
    fn set_tracing(&mut self, enable: bool);
    /// The deadlock plugin, type-erased; downcast to the concrete type.
    fn plugin_any(&self) -> &dyn Any;
    /// The traffic source, type-erased; downcast to the concrete type.
    fn traffic_any(&self) -> &dyn Any;

    /// Packets that escaped through reserved VCs, if this is an escape-VC
    /// simulation.
    fn escapes(&self) -> Option<u64> {
        self.plugin_any()
            .downcast_ref::<EscapeVcPlugin>()
            .map(|p| p.escapes())
    }
}

/// The one [`SimRunner`] implementation: a thin wrapper around the generic
/// simulator.
pub(crate) struct Runner<P: Plugin, T: TrafficSource>(pub(crate) Simulator<P, T>);

impl<P: Plugin + 'static, T: TrafficSource + 'static> SimRunner for Runner<P, T> {
    fn time(&self) -> u64 {
        self.0.time()
    }

    fn warmup(&mut self, cycles: u64) {
        self.0.warmup(cycles);
    }

    fn run(&mut self, cycles: u64) {
        self.0.run(cycles);
    }

    fn halt_injection(&mut self) {
        self.0.halt_injection();
    }

    fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        self.0.run_until_drained(max_cycles)
    }

    fn stats(&self) -> &Stats {
        self.0.core().stats()
    }

    fn core(&self) -> &NetCore {
        self.0.core()
    }

    fn kernel_counters(&self) -> KernelCounters {
        self.0.kernel_counters()
    }

    fn deadlocked_now(&self) -> bool {
        self.0.deadlocked_now()
    }

    fn run_until_deadlock(&mut self, max_cycles: u64, check_every: u64) -> Option<u64> {
        self.0.run_until_deadlock(max_cycles, check_every)
    }

    fn scan_all_routers(&mut self, enable: bool) {
        self.0.scan_all_routers(enable);
    }

    fn set_audit(&mut self, every: u64) {
        self.0.set_audit(every);
    }

    fn audit_now(&mut self) -> Option<ForensicsReport> {
        self.0.audit_now()
    }

    fn take_forensics(&mut self) -> Option<ForensicsReport> {
        self.0.take_forensics()
    }

    fn snapshot(&self) -> Result<EngineSnapshot, String> {
        self.0.snapshot()
    }

    fn set_tracing(&mut self, enable: bool) {
        self.0.plugin_mut().set_tracing(enable);
    }

    fn plugin_any(&self) -> &dyn Any {
        self.0.plugin()
    }

    fn traffic_any(&self) -> &dyn Any {
        self.0.traffic()
    }
}
