//! The simulation engine: injection, switch allocation, movement, delivery.

use crate::arena::PacketHandle;
use crate::audit::{self, ForensicsReport, Violation};
use crate::config::SimConfig;
use crate::deadlock;
use crate::netcore::{NetCore, QueuedPacket, EJECT};
use crate::packet::{NewPacket, Packet, PacketMode};
use crate::plugin::{InputRef, OutPort, Plugin, SlotRef};
use crate::snapshot::EngineSnapshot;
use crate::traffic::TrafficSource;
use crate::vc::VcRef;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_routing::{Route, RouteSource};
use sb_topology::{Direction, NodeId, Topology};
use std::collections::VecDeque;

/// Router + link pipeline depth: a granted head is switchable at the next
/// router after 2 cycles (1-cycle router, 1-cycle link — Table II).
pub const HOP_LATENCY: u64 = 2;

/// Work the switch allocator did since the simulator was constructed:
/// plain monotonic counts, so — unlike a cycles-per-second reading on a
/// shared box — they repeat exactly and their per-grant ratios are
/// machine-independent. Owned by [`Simulator`], not [`NetCore`]: never
/// serialized, not part of [`crate::Stats`], digests or content keys, and
/// not rewound by [`Simulator::restore`]. When ROADMAP item 3's `Observer`
/// lands these move behind it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Alive routers the allocator scanned.
    pub scans: u64,
    /// Scans that found a resident packet and granted nothing.
    pub zero_grant_scans: u64,
    /// Round-robin winner searches run (one per contended, idle output).
    pub winner_searches: u64,
    /// Candidate packets those searches dereferenced.
    pub candidates_examined: u64,
    /// Grants committed.
    pub grants: u64,
}

/// A complete simulation: network state, deadlock-handling plugin, traffic
/// source and route planner.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulator<P: Plugin, T: TrafficSource> {
    core: NetCore,
    plugin: P,
    traffic: T,
    planner: Box<dyn RouteSource>,
    rng: StdRng,
    /// Reference mode: scan every alive router instead of the active-set
    /// worklist (see [`Simulator::scan_all_routers`]).
    full_scan: bool,
    /// Injection tap: when closed ([`Simulator::halt_injection`]), the
    /// traffic source is no longer polled and counts as exhausted for
    /// [`Simulator::run_until_drained`].
    injection_halted: bool,
    /// Audit cadence in cycles, 0 = off (see [`Simulator::set_audit`]).
    audit_every: u64,
    /// Cycles left until the next scheduled audit pass.
    audit_countdown: u64,
    /// The most recent forensics report (violation or oracle-detected
    /// deadlock), retrieved with [`Simulator::take_forensics`].
    last_forensics: Option<ForensicsReport>,
    /// Allocator work counts (see [`Simulator::kernel_counters`]).
    counters: KernelCounters,
}

impl<P: Plugin, T: TrafficSource> Simulator<P, T> {
    /// Build a simulator over `topo`.
    ///
    /// `bubble_routers` of the attached plugin are configured through
    /// [`Simulator::with_bubbles`]; the plain constructor creates none.
    pub fn new(
        topo: &Topology,
        cfg: SimConfig,
        planner: Box<dyn RouteSource>,
        plugin: P,
        traffic: T,
        seed: u64,
    ) -> Self {
        Self::with_bubbles(topo, cfg, planner, plugin, traffic, seed, &[])
    }

    /// Build a simulator whose routers in `bubble_routers` carry a
    /// static-bubble buffer (used by the Static Bubble plugin).
    pub fn with_bubbles(
        topo: &Topology,
        cfg: SimConfig,
        planner: Box<dyn RouteSource>,
        plugin: P,
        traffic: T,
        seed: u64,
        bubble_routers: &[NodeId],
    ) -> Self {
        Simulator {
            core: NetCore::new(topo, cfg, bubble_routers),
            plugin,
            traffic,
            planner,
            rng: StdRng::seed_from_u64(seed),
            full_scan: false,
            injection_halted: false,
            audit_every: 0,
            audit_countdown: 0,
            last_forensics: None,
            counters: KernelCounters::default(),
        }
    }

    /// Enable the invariant auditor: every `every` cycles (and at every
    /// deadlock-oracle call) the engine re-derives conservation, VC
    /// legality, plugin/FSM legality, the wakeup invariant and every
    /// derived index (see [`crate::audit`]). A violation during
    /// [`Simulator::tick`] panics
    /// with a full [`ForensicsReport`] rendered into the message; use
    /// [`Simulator::audit_now`] for a non-panicking check. `0` disables
    /// (the default — the audit is a debugging/CI tool, not a hot-path
    /// cost).
    pub fn set_audit(&mut self, every: u64) {
        self.audit_every = every;
        self.audit_countdown = every;
    }

    /// Run every audit check immediately and return the forensics report if
    /// anything is violated (`None` = all invariants hold). Matured wheel
    /// entries are drained first so the wakeup check never flags a router
    /// whose timed wake is due this very cycle. The report is also stored
    /// for [`Simulator::take_forensics`].
    pub fn audit_now(&mut self) -> Option<ForensicsReport> {
        self.core.drain_wheel();
        let violations = self.collect_violations();
        if violations.is_empty() {
            return None;
        }
        let report = ForensicsReport::capture(
            &self.core,
            violations,
            self.plugin.forensic_lines(&self.core),
            self.plugin.trace_lines(),
        );
        self.last_forensics = Some(report.clone());
        Some(report)
    }

    /// Take the most recent forensics report (from a violation or an
    /// oracle-detected deadlock in [`Simulator::run_until_deadlock`]).
    pub fn take_forensics(&mut self) -> Option<ForensicsReport> {
        self.last_forensics.take()
    }

    /// Capture an [`EngineSnapshot`] of the current architectural state.
    ///
    /// # Errors
    ///
    /// Fails only if the plugin or traffic source cannot serialize its
    /// state ([`Plugin::snapshot_state`] / [`TrafficSource::snapshot_state`]).
    pub fn snapshot(&self) -> Result<EngineSnapshot, String> {
        Ok(EngineSnapshot {
            time: self.core.time(),
            core: self.core.clone(),
            rng: self.rng.state(),
            injection_halted: self.injection_halted,
            plugin: self.plugin.snapshot_state()?,
            traffic: self.traffic.snapshot_state()?,
        })
    }

    /// Restore a snapshot into this simulator, which must have been built
    /// from the **same scenario** (same topology, config, planner, plugin
    /// and traffic constructor arguments). The architectural state is
    /// replaced wholesale and the scheduler state re-derived from it
    /// (`NetCore::rebuild_sched`) on every path, so everything observable
    /// about the following cycles is identical to the run the snapshot was
    /// captured from (see [`crate::snapshot`] module docs). How the run is
    /// driven — scan mode, audit cadence — stays this simulator's.
    ///
    /// # Errors
    ///
    /// Fails on a config/mesh mismatch or if the plugin/traffic blobs do
    /// not restore; the simulator is then exactly as it was.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), String> {
        if snap.core.config() != self.core.config() {
            return Err("snapshot config differs from this simulator's".to_string());
        }
        if snap.core.topology().mesh() != self.core.topology().mesh() {
            return Err("snapshot mesh differs from this simulator's".to_string());
        }
        let plugin_was = self.plugin.snapshot_state()?;
        let traffic_was = self.traffic.snapshot_state()?;
        if let Err(e) = self.restore_blobs(&snap.plugin, &snap.traffic) {
            // Whichever of the two took the snapshot's blob gets its own back.
            (self.restore_blobs(&plugin_was, &traffic_was))
                .expect("a blob written a moment ago restores");
            return Err(e);
        }
        self.core = snap.core.clone();
        self.core.sched = self.core.rebuild_sched();
        self.rng = StdRng::from_state(snap.rng);
        self.injection_halted = snap.injection_halted;
        self.last_forensics = None;
        Ok(())
    }

    fn restore_blobs(&mut self, plugin: &str, traffic: &str) -> Result<(), String> {
        (self.plugin.restore_state(plugin)).map_err(|e| format!("plugin restore: {e}"))?;
        (self.traffic.restore_state(traffic)).map_err(|e| format!("traffic restore: {e}"))
    }

    fn collect_violations(&mut self) -> Vec<Violation> {
        let mut v = Vec::new();
        audit::check_conservation(&self.core, &mut v);
        audit::check_vc_legality(&self.core, &mut v);
        audit::check_derived(&self.core, &mut v);
        self.plugin.audit_check(&self.core, &mut v);
        if !self.full_scan {
            // The wakeup invariant only exists in worklist mode; the full
            // sweep scans everything anyway.
            self.audit_wakeup(&mut v);
        }
        v
    }

    /// The PR-2 wakeup invariant, checked against a fresh scan: a router
    /// absent from the worklist (quiescent-blocked) must have no candidate
    /// the allocator would grant right now — otherwise a wake was missed
    /// and the worklist has silently diverged from the reference sweep.
    fn audit_wakeup(&self, out: &mut Vec<Violation>) {
        for router in self.core.topology().alive_nodes() {
            if self.core.is_active(router) {
                continue;
            }
            let mut cand = [0u64; 5];
            self.core.candidate_masks(router, &mut cand);
            if cand.iter().all(|&m| m == 0) {
                continue;
            }
            let r5 = router.index() * 5;
            for out_idx in [EJECT, 0, 1, 2, 3] {
                if cand[out_idx] == 0 {
                    continue;
                }
                let Some(o) = self.open_output(router, out_idx) else {
                    continue;
                };
                if let Some((_, input, _)) =
                    self.probe_winner(router, o, cand[out_idx], self.core.arch.rr[r5 + out_idx])
                {
                    out.push(Violation {
                        class: audit::AuditClass::Wakeup,
                        router: Some(router),
                        detail: format!(
                            "quiescent-blocked router has a grantable candidate \
                             {input:?} -> {o:?} (missed wake)"
                        ),
                    });
                    break;
                }
            }
        }
    }

    /// Switch the allocator between the active-set worklist (default) and
    /// the naive full sweep over every router.
    ///
    /// The full sweep is the reference semantics the worklist optimises;
    /// the two must produce bit-identical [`crate::Stats`] for the same
    /// seed. Equivalence tests flip this on to cross-check; there is no
    /// reason to enable it otherwise.
    pub fn scan_all_routers(&mut self, enable: bool) {
        if self.full_scan && !enable {
            // Wake bookkeeping was not maintained during the full sweep;
            // re-seed the worklist wholesale.
            self.core.wake_all();
        }
        self.full_scan = enable;
    }

    /// The network state.
    pub fn core(&self) -> &NetCore {
        &self.core
    }

    /// Mutable network state (tests construct scenarios through this).
    pub fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }

    /// The attached plugin.
    pub fn plugin(&self) -> &P {
        &self.plugin
    }

    /// Mutable plugin access.
    pub fn plugin_mut(&mut self) -> &mut P {
        &mut self.plugin
    }

    /// The traffic source.
    pub fn traffic(&self) -> &T {
        &self.traffic
    }

    /// Current cycle.
    pub fn time(&self) -> u64 {
        self.core.time()
    }

    /// Allocator work counts since construction (see [`KernelCounters`]).
    pub fn kernel_counters(&self) -> KernelCounters {
        self.counters
    }

    /// Swap the traffic source, keeping all network and plugin state (e.g.
    /// stop traffic with [`crate::NoTraffic`] to measure drain behaviour).
    pub fn replace_traffic<U: TrafficSource>(self, traffic: U) -> Simulator<P, U> {
        Simulator {
            core: self.core,
            plugin: self.plugin,
            traffic,
            planner: self.planner,
            rng: self.rng,
            full_scan: self.full_scan,
            injection_halted: self.injection_halted,
            audit_every: self.audit_every,
            audit_countdown: self.audit_countdown,
            last_forensics: self.last_forensics,
            counters: self.counters,
        }
    }

    /// Stop polling the traffic source for good: no further packets enter
    /// the network, and [`Simulator::run_until_drained`] treats traffic as
    /// exhausted. Equivalent to [`Simulator::replace_traffic`] with
    /// [`crate::NoTraffic`], but usable behind `&mut` (and therefore
    /// through a type-erased runner) because the traffic type stays put.
    pub fn halt_injection(&mut self) {
        self.injection_halted = true;
    }

    /// Swap the attached plugin, keeping all network state. Needed when a
    /// reconfiguration invalidates a plugin's internal tables (the
    /// escape-VC baseline holds a spanning tree of the *old* topology; the
    /// Static Bubble plugin holds only design-time state and never needs
    /// this — which is the paper's "plug-and-play" argument).
    pub fn replace_plugin<Q: Plugin>(self, plugin: Q) -> Simulator<Q, T> {
        let mut core = self.core;
        // The new plugin may allow grants the old one vetoed; routers that
        // went quiescent under the old policy must be re-examined.
        core.wake_all();
        Simulator {
            core,
            plugin,
            traffic: self.traffic,
            planner: self.planner,
            rng: self.rng,
            full_scan: self.full_scan,
            injection_halted: self.injection_halted,
            audit_every: self.audit_every,
            audit_countdown: self.audit_countdown,
            last_forensics: self.last_forensics,
            counters: self.counters,
        }
    }

    /// Runtime reconfiguration: switch to a new topology (same mesh, e.g.
    /// after a fault or a power-gating decision) and a new route planner.
    ///
    /// In-flight packets at dead routers are lost; survivors whose remaining
    /// route crosses a dead component are re-routed from their current
    /// router (or lost if unreachable); queued packets are re-routed from
    /// their source. Losses are counted in [`crate::Stats::lost_packets`], drops in
    /// [`crate::Stats::dropped_packets`] — the accounting real resilient NoCs do
    /// after a fault.
    ///
    /// # Panics
    ///
    /// Panics if `topo` has a different mesh.
    pub fn reconfigure(&mut self, topo: &Topology, planner: Box<dyn RouteSource>) {
        self.core.set_topology(topo);
        self.planner = planner;
        self.traffic.on_topology_change();
        let mesh = topo.mesh();
        // 1. In-flight packets: VCs and bubbles.
        for r in 0..mesh.node_count() {
            let router = NodeId::from(r);
            let router_dead = !topo.router_alive(router);
            let refs: Vec<VcRef> = self.core.vc_refs(router).collect();
            for vref in refs {
                let Some(pkt) = self.core.vc_occupant(vref) else {
                    continue;
                };
                let (len, vnet, dst) = (pkt.len_flits, pkt.vnet, pkt.dst);
                let remaining = Route::new(pkt.route().directions()[pkt.hop_index()..].to_vec());
                let lose = |core: &mut NetCore| {
                    let h = core.vc_clear(vref).expect("checked occupied");
                    core.arch.arena.remove(h);
                    core.stats_mut().count_lost(vnet, len);
                };
                if router_dead {
                    lose(&mut self.core);
                } else if remaining.trace(topo, router) != Some(dst) {
                    match self.planner.route(router, dst, &mut self.rng) {
                        Some(route) => {
                            self.core.with_packet_mut(InputRef::Vc(vref), |p| {
                                p.restamp(route, PacketMode::Normal)
                            });
                        }
                        None => lose(&mut self.core),
                    }
                }
            }
            // Bubble occupants at dead routers are lost with the router.
            if router_dead {
                if let Some((h, _ready)) = self.core.bubble_take_occupant(router) {
                    let pkt = self.core.arch.arena.remove(h);
                    self.core.stats_mut().count_lost(pkt.vnet, pkt.len_flits);
                }
            }
        }
        // 2. Queued packets: re-route from the source. The materialized
        // head is restamped in the arena; tail descriptors get a route
        // checked and *stored* (consumed without an RNG draw when they
        // surface), preserving the rule that reconfiguration drops every
        // queued packet whose destination became unreachable — at
        // drop-at-NI accounting — and loses the whole queue of a dead
        // router.
        for r in 0..mesh.node_count() {
            let router = NodeId::from(r);
            let router_dead = !topo.router_alive(router);
            let vnets = self.core.config().vnets as usize;
            for vnet in 0..vnets {
                let qi = r * vnets + vnet;
                let head = self.core.arch.inject[qi].head;
                if head.is_some() {
                    if router_dead {
                        let pkt = self.core.arch.arena.remove(head);
                        self.core.arch.inject[qi].head = PacketHandle::NONE;
                        self.core.stats_mut().count_lost(pkt.vnet, pkt.len_flits);
                    } else {
                        let dst = self.core.arch.arena.get(head).dst;
                        match self.planner.route(router, dst, &mut self.rng) {
                            Some(route) => {
                                self.core
                                    .arch
                                    .arena
                                    .get_mut(head)
                                    .restamp(route, PacketMode::Normal);
                            }
                            None => {
                                let pkt = self.core.arch.arena.remove(head);
                                self.core.arch.inject[qi].head = PacketHandle::NONE;
                                self.core.stats_mut().count_dropped(pkt.vnet, pkt.len_flits);
                            }
                        }
                    }
                }
                let mut tail = std::mem::take(&mut self.core.arch.inject[qi].tail);
                if router_dead {
                    for e in tail.drain(..) {
                        self.core.stats_mut().count_lost(e.vnet, e.len_flits);
                    }
                } else {
                    let mut kept = VecDeque::with_capacity(tail.len());
                    for mut e in tail.drain(..) {
                        match self.planner.route(router, e.dst, &mut self.rng) {
                            Some(route) => {
                                e.route = Some(Box::new(route));
                                kept.push_back(e);
                            }
                            None => {
                                self.core.stats_mut().count_dropped(e.vnet, e.len_flits);
                            }
                        }
                    }
                    tail = kept;
                }
                self.core.arch.inject[qi].tail = tail;
                // A dropped head exposes the next survivor (its route was
                // just stored, so this consumes no RNG).
                if !router_dead && self.core.arch.inject[qi].head.is_none() {
                    self.materialize_head(router, vnet as u8);
                }
            }
        }
    }

    /// Run one cycle.
    ///
    /// # Panics
    ///
    /// With the auditor enabled ([`Simulator::set_audit`]), panics on an
    /// invariant violation with the full [`ForensicsReport`] in the
    /// message.
    pub fn tick(&mut self) {
        self.plugin.before_cycle(&mut self.core);
        self.inject_traffic();
        self.allocate();
        self.plugin.after_cycle(&mut self.core);
        self.core.stats_mut().cycles += 1;
        self.core.advance_time();
        if self.audit_every > 0 {
            self.audit_tick();
        }
    }

    /// Out-of-line countdown + audit + panic path, kept `#[cold]` so the
    /// disabled-auditor `tick` stays a single predicted-not-taken branch.
    #[cold]
    #[inline(never)]
    fn audit_tick(&mut self) {
        self.audit_countdown = self.audit_countdown.saturating_sub(1);
        if self.audit_countdown == 0 {
            self.audit_countdown = self.audit_every;
            if let Some(report) = self.audit_now() {
                panic!("invariant audit failed:\n{report}");
            }
        }
    }

    /// The clock: with nothing runnable, jump to the next event — wheel
    /// maturity, traffic arrival, plugin timer, audit boundary, or the last
    /// cycle before `end`, the enclosing loop's deadline. Called after
    /// every tick. The skipped cycles are no-ops by construction: state can
    /// only change through the passage of time, and every time-driven
    /// change bounds the jump. A loop's last cycle always executes, so a
    /// call returns with the plugin and the traffic source caught up to
    /// `time`: whatever the caller does next — snapshot, reconfigure, reach
    /// in through [`Simulator::plugin_mut`] — meets the state a run that
    /// executed every cycle would have left. The reference sweep
    /// ([`Simulator::scan_all_routers`]) keeps every router runnable and so
    /// executes every cycle.
    fn maybe_leap(&mut self, end: u64) {
        let now = self.core.time();
        if now + 1 >= end || self.full_scan || self.core.active_count() != 0 {
            return;
        }
        let mut target = end - 1;
        if !self.injection_halted {
            // Asked first: a source that flips a coin every cycle answers
            // `now`, and an idle tick under it costs this one call.
            match self.traffic.next_arrival(now) {
                Some(at) if at <= now => return,
                Some(at) => target = target.min(at),
                None => {}
            }
        }
        if self.audit_every > 0 {
            // After a tick the countdown is in 1..=audit_every; the next
            // audit runs at the end of the tick executing cycle
            // `now + countdown - 1`, which therefore must execute.
            target = target.min(now + self.audit_countdown - 1);
        }
        if let Some(at) = self.core.next_wheel_event() {
            target = target.min(at);
        }
        if let Some(at) = self.plugin.next_timer(&self.core) {
            target = target.min(at);
        }
        if target > now {
            let gap = target - now;
            self.core.leap(gap);
            if self.audit_every > 0 {
                self.audit_countdown -= gap;
            }
        }
    }

    /// Run `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        let end = self.core.time() + cycles;
        while self.core.time() < end {
            self.tick();
            self.maybe_leap(end);
        }
    }

    /// Run `warmup` cycles and then reset the measurement window, so
    /// subsequent statistics exclude the cold start. Offers for packets
    /// still in flight carry into the new window (see
    /// [`NetCore::reset_measurement`]); the traffic source is told through
    /// [`TrafficSource::on_measurement_reset`] so tracing decorators can
    /// drop warmup samples.
    pub fn warmup(&mut self, warmup: u64) {
        self.run(warmup);
        self.core.reset_measurement();
        self.traffic.on_measurement_reset();
    }

    /// Run until the network is empty (traffic exhausted, queues and VCs
    /// drained) or `max_cycles` more cycles elapse. Returns `true` if
    /// drained.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        let end = self.core.time() + max_cycles;
        while self.core.time() < end {
            if self.drained() {
                return true;
            }
            self.tick();
            // Leaping right after the tick that completed the drain would
            // run the clock past the cycle the loop exits at; a
            // still-undrained network is free to jump (a wedged one goes
            // straight to the deadline's last cycle).
            if self.core.active_count() == 0 && !self.drained() {
                self.maybe_leap(end);
            }
        }
        self.drained()
    }

    fn drained(&self) -> bool {
        (self.injection_halted || self.traffic.exhausted())
            && self.core.in_flight() == 0
            && self.core.queued() == 0
    }

    /// Is the network deadlocked *right now* according to the oracle?
    ///
    /// # Panics
    ///
    /// With the auditor enabled, every oracle call also re-derives the
    /// read-only invariants (conservation, VC legality) and panics with a
    /// rendered [`ForensicsReport`] on violation — a wedged network with
    /// corrupt accounting must not be mistaken for a mere deadlock.
    pub fn deadlocked_now(&self) -> bool {
        if self.audit_every > 0 {
            let mut violations = Vec::new();
            audit::check_conservation(&self.core, &mut violations);
            audit::check_vc_legality(&self.core, &mut violations);
            if !violations.is_empty() {
                // `&self` here: the trace stays in the plugin's buffer (the
                // report is rendered into a panic anyway).
                let report = ForensicsReport::capture(
                    &self.core,
                    violations,
                    self.plugin.forensic_lines(&self.core),
                    Vec::new(),
                );
                panic!("invariant audit failed at oracle call:\n{report}");
            }
        }
        deadlock::is_deadlocked(&self.core)
    }

    /// Run until the oracle observes a deadlock (checking every
    /// `check_every` cycles) or `max_cycles` elapse. Returns the cycle of
    /// detection. Never runs more than `max_cycles` cycles: the final check
    /// interval is clamped to the remaining budget. On detection a
    /// [`ForensicsReport`] is captured and stored for
    /// [`Simulator::take_forensics`].
    pub fn run_until_deadlock(&mut self, max_cycles: u64, check_every: u64) -> Option<u64> {
        let check_every = check_every.max(1);
        let start = self.time();
        while self.time() - start < max_cycles {
            let remaining = max_cycles - (self.time() - start);
            // The oracle cadence is itself a clock event: leaps stop at the
            // batch boundary, so every oracle call lands on the cycle it
            // would if every cycle executed.
            self.run(check_every.min(remaining));
            if self.deadlocked_now() {
                self.last_forensics = Some(ForensicsReport::capture(
                    &self.core,
                    Vec::new(),
                    self.plugin.forensic_lines(&self.core),
                    self.plugin.trace_lines(),
                ));
                return Some(self.time());
            }
        }
        None
    }

    // ------------------------------------------------------------------

    fn inject_traffic(&mut self) {
        if self.injection_halted {
            return;
        }
        let t = self.core.time();
        let reqs = self
            .traffic
            .generate(t, self.core.topology(), &mut self.rng);
        let cfg = self.core.config();
        for mut req in reqs {
            assert!(
                req.len_flits >= 1 && req.len_flits <= cfg.max_packet_flits,
                "packet length {} out of range",
                req.len_flits
            );
            req.vnet = req.vnet.min(cfg.vnets - 1);
            let stats = self.core.stats_mut();
            stats.offered_packets += 1;
            stats.offered_flits += req.len_flits as u64;
            stats.offered_packets_vnet[req.vnet as usize] += 1;
            if req.src == req.dst {
                // Local delivery without entering the network.
                stats.count_delivered(req.vnet, req.len_flits);
                stats.latency_sum += req.len_flits as u64;
                continue;
            }
            if !self.planner.routable(req.src, req.dst) {
                // Unreachable destination: dropped at the NI (Sec. V-A).
                self.core.stats_mut().count_dropped(req.vnet, req.len_flits);
                continue;
            }
            let id = self.core.fresh_packet_id();
            let qi = self.core.inject_idx(req.src, req.vnet);
            if self.core.arch.inject[qi].head.is_some() {
                // Only the queue head competes for the crossbar, so an
                // enqueue behind an existing head cannot create a new
                // allocation candidate — park a plain descriptor (no
                // route, no arena slot, no wake) until it surfaces.
                self.core.arch.inject[qi].tail.push_back(QueuedPacket {
                    id,
                    dst: req.dst,
                    vnet: req.vnet,
                    len_flits: req.len_flits,
                    created_at: t,
                    route: None,
                });
                continue;
            }
            match self.planner.route(req.src, req.dst, &mut self.rng) {
                Some(route) => {
                    debug_assert_eq!(
                        route.trace(self.core.topology(), req.src),
                        Some(req.dst),
                        "planner produced an invalid route"
                    );
                    let h = self.core.arch.arena.insert(Packet::new(id, req, route, t));
                    self.core.arch.inject[qi].head = h;
                    // This packet just became the head: it is a fresh
                    // allocation candidate, so wake the source router.
                    self.core.touch(req.src);
                }
                None => {
                    // `routable` said yes but the route draw failed —
                    // treat it as the same NI drop.
                    self.core.stats_mut().count_dropped(req.vnet, req.len_flits);
                }
            }
        }
    }

    /// Separable round-robin allocation over the **change-driven worklist**,
    /// one router at a time in ascending id order; grants commit immediately
    /// so downstream claims are visible to later routers within the same
    /// cycle.
    ///
    /// The worklist is consumed each cycle. A scanned router re-enters it
    /// only through an event that can create a new candidate: it granted
    /// something (more heads may be switchable next cycle), a mutation
    /// touched it ([`NetCore::touch`] — fresh injection, plugin state
    /// change), or a timed wake matured ([`NetCore::wake_at`] — an arriving
    /// packet's `ready_at`, the drain deadline of a slot at the port it
    /// feeds, whatever it found to wait for when it last blocked). A
    /// router absent from the set would have granted nothing under the
    /// reference `0..n` sweep, and a zero-grant sweep has no side effects —
    /// round-robin pointers move only on grants — so skipping it is
    /// invisible in [`crate::Stats`]. Per-cycle cost therefore tracks the
    /// number of routers whose state *changed*, not occupancy: a saturated
    /// or deadlocked mesh where nothing moves costs almost nothing.
    ///
    /// Per-router work runs on the SoA tables: candidate collection walks
    /// the router's occupancy word with trailing-zeros iteration (ascending
    /// rr index = the reference loop order) into five per-output candidate
    /// masks, and the round-robin winner search scans those masks as two
    /// `u64` words split at the rr pointer.
    fn allocate(&mut self) {
        // Wheel wakes mature before the snapshot so a router scheduled for
        // this cycle is scanned this cycle.
        self.core.drain_wheel();
        let mut freed_bubbles = std::mem::take(&mut self.core.sched.freed_scratch);
        if self.full_scan {
            let n = self.core.topology().mesh().node_count();
            for r in 0..n {
                self.scan_router(NodeId::from(r), &mut freed_bubbles);
            }
        } else {
            let scan = self.core.begin_scan();
            let mut cur = 0usize;
            while let Some(router) = scan.first_set_from(cur) {
                cur = router.index() + 1;
                self.scan_router(router, &mut freed_bubbles);
            }
            self.core.end_scan(scan);
        }
        for &node in &freed_bubbles {
            self.plugin.on_bubble_freed(&mut self.core, node);
        }
        freed_bubbles.clear();
        self.core.sched.freed_scratch = freed_bubbles;
    }

    /// Run the separable allocator at one router: collect candidate masks,
    /// pick one winner per free output in `[eject, N, E, S, W]` order, and
    /// commit the grants. Handles the worklist re-entry bookkeeping unless
    /// the reference full sweep is active.
    fn scan_router(&mut self, router: NodeId, freed_bubbles: &mut Vec<NodeId>) {
        if !self.core.topology().router_alive(router) {
            // Dead routers hold no packets (reconfigure clears them) and
            // are woken again by the next reconfiguration.
            return;
        }
        self.counters.scans += 1;
        let mut cand = [0u64; 5];
        let next_ready = self.core.candidate_masks(router, &mut cand);
        if cand.iter().all(|&m| m == 0) && next_ready.is_none() {
            // Completely empty: cannot produce a candidate until some
            // mutation touches it again.
            return;
        }
        let r5 = router.index() * 5;
        let mut any_grant = false;
        // Input-side exclusion: rr indices whose input port already granted
        // this cycle (one grant per input port per cycle).
        let mut blocked: u64 = 0;
        // Ejection first, then the four directions.
        for out_idx in [EJECT, 0, 1, 2, 3] {
            let mask = cand[out_idx] & !blocked;
            if mask == 0 {
                continue;
            }
            let Some(out) = self.open_output(router, out_idx) else {
                continue;
            };
            let (won, examined) =
                self.find_winner(router, out, mask, self.core.arch.rr[r5 + out_idx]);
            self.counters.winner_searches += 1;
            self.counters.candidates_examined += u64::from(examined);
            let Some((winner, input, slot)) = won else {
                continue;
            };
            self.counters.grants += 1;
            blocked |= self.input_block_mask(winner);
            // The committed packet is gone; a later output port must not
            // re-select it.
            for m in cand.iter_mut() {
                *m &= !(1u64 << winner);
            }
            self.core.arch.rr[r5 + out_idx] = winner as u32 + 1;
            if let Some(freed) = self.commit(router, input, out, slot) {
                freed_bubbles.push(freed);
            }
            any_grant = true;
        }
        if !any_grant {
            self.counters.zero_grant_scans += 1;
        }
        if self.full_scan {
            return;
        }
        if any_grant {
            // Something moved; remaining or newly-ready heads may be
            // switchable next cycle.
            self.core.touch(router);
        } else {
            // Quiescent-blocked: sleep until the earliest timed event
            // that could create a candidate, or until a mutation wake.
            self.schedule_block_wake(router, &cand, next_ready);
        }
    }

    /// The allocator's per-output gate: the port behind `out_idx` if it can
    /// take a grant this cycle — not mid-packet and, for a direction, over
    /// a usable link. The wakeup audit asks here too, so it holds the
    /// worklist against the gate the allocator runs.
    #[inline]
    fn open_output(&self, router: NodeId, out_idx: usize) -> Option<OutPort> {
        if self.core.arch.out_busy[router.index() * 5 + out_idx] > self.core.time() {
            return None;
        }
        if out_idx == EJECT {
            return Some(OutPort::Eject);
        }
        let d = Direction::from_index(out_idx);
        (self.core.topology().link_alive(router, d)).then_some(OutPort::Dir(d))
    }

    /// The rr indices excluded from further grants this cycle once index
    /// `i` won: all VCs of the same input port, the bubble, or every
    /// injection vnet (one local injection per cycle).
    fn input_block_mask(&self, i: usize) -> u64 {
        let cfg = self.core.config();
        let vcs = cfg.vcs_per_port();
        if i < 4 * vcs {
            let port = i / vcs;
            ((1u64 << vcs) - 1) << (port * vcs)
        } else if i == 4 * vcs {
            1u64 << i
        } else {
            ((1u64 << cfg.vnets) - 1) << (4 * vcs + 1)
        }
    }

    /// A scanned router granted nothing this cycle. Schedule its next wake
    /// at the earliest *timed* event that could hand it a candidate: an
    /// occupant finishing the hop pipeline (`next_ready`), a wanted output
    /// link going idle, or a draining buffer on a wanted downstream port
    /// returning its credit. Every unblocking path with no deadline to read
    /// yet — a downstream grant (its buffer take wakes this feeder at the
    /// new drain deadline), a plugin lifting a veto, a fresh injection, a
    /// reconfiguration — wakes the router from the mutation site instead.
    /// If no timed event exists the router is fully quiescent (e.g. inside
    /// a deadlock) and sleeps until a mutation arrives.
    fn schedule_block_wake(&mut self, router: NodeId, cand: &[u64; 5], next_ready: Option<u64>) {
        let t = self.core.time();
        let vcs = self.core.config().vcs_per_port();
        let mut wake = next_ready;
        let note = |wake: &mut Option<u64>, at: u64| {
            if at > t && wake.is_none_or(|w| at < w) {
                *wake = Some(at);
            }
        };
        for (out_idx, &want) in cand.iter().enumerate() {
            if want == 0 {
                continue;
            }
            let link_idle_at = self.core.arch.out_busy[router.index() * 5 + out_idx];
            note(&mut wake, link_idle_at);
            if out_idx == EJECT {
                continue;
            }
            let d = Direction::from_index(out_idx);
            let Some(nb) = self.core.topology().neighbor(router, d) else {
                continue; // revived only by reconfiguration, which wakes all
            };
            // Any draining slot at the downstream input port is a pending
            // credit; the min over all of them (regardless of vnet — a
            // conservative superset of any plugin's pick_slot policy) bounds
            // the earliest possible unblock. Occupied slots free through a
            // grant at `nb`, whose buffer take wakes this feeder at the new
            // drain deadline.
            let port = d.opposite();
            let pbase = self.core.vc_base(nb) + port.index() * vcs;
            let mut empty = self.core.empty_vcs(nb, port);
            while empty != 0 {
                let drain = self.core.arch.vc_drain[pbase + empty.trailing_zeros() as usize];
                empty &= empty - 1;
                if drain != 0 {
                    note(&mut wake, drain);
                }
            }
            let nbr = nb.index();
            if self.core.arch.bub_exists[nbr]
                && self.core.arch.bub_occ[nbr].is_none()
                && self.core.arch.bub_drain[nbr] != 0
            {
                note(&mut wake, self.core.arch.bub_drain[nbr]);
            }
        }
        if let Some(at) = wake {
            self.core.wake_at(router, at);
        }
    }

    /// Reconstruct the [`InputRef`] behind rr index `i` at `router`.
    fn input_of(&self, router: NodeId, i: usize, vcs: usize) -> InputRef {
        if i < 4 * vcs {
            InputRef::Vc(VcRef {
                router,
                port: Direction::from_index(i / vcs),
                vc: (i % vcs) as u8,
            })
        } else if i == 4 * vcs {
            InputRef::Bubble(router)
        } else {
            InputRef::Inject {
                node: router,
                vnet: (i - 4 * vcs - 1) as u8,
            }
        }
    }

    /// Scan `mask` (the candidates of `router` wanting `out`, minus inputs
    /// already granted) in round-robin order from `rr_ptr` and return the
    /// first eligible `(index, input, slot)`, with the number of candidate
    /// packets it dereferenced on the way.
    ///
    /// Round-robin order — ascending `(i - start) mod total` — is the bits
    /// `>= start` in ascending order followed by the bits `< start`: two
    /// word scans with trailing-zeros iteration, no sort, no allocation.
    ///
    /// Whether the output can be served is a property of the downstream
    /// port's buffers, not of each queued head: the first time
    /// [`Plugin::pick_slot`] refuses a candidate of some vnet, the search
    /// asks once whether the downstream port has *any* free buffer of that
    /// vnet, and if not drops the vnet's VCs and injection queue from the
    /// rest of the search — by the slot contract on [`Plugin::pick_slot`]
    /// every one of them would be refused too. A full single-vnet port
    /// therefore costs one candidate, not one per queued head. The question
    /// is asked once per vnet per search, not per refusal: a vnet can be
    /// refused and alive at once (escape-VC `Normal` packets while only the
    /// escape VC is free), and would otherwise pay it on every candidate.
    fn find_winner(
        &self,
        router: NodeId,
        out: OutPort,
        mask: u64,
        rr_ptr: u32,
    ) -> (Option<(usize, InputRef, Option<SlotRef>)>, u32) {
        let core = &self.core;
        let cfg: SimConfig = core.config();
        let vcs = cfg.vcs_per_port();
        let total = 4 * vcs + 1 + cfg.vnets as usize;
        let start = rr_ptr as usize % total; // start <= 63: the shift is safe
        let above = !0u64 << start;
        // The downstream input port, the same for every candidate.
        let downstream = match out {
            OutPort::Eject => None,
            OutPort::Dir(d) => {
                let neighbor = core.topology().neighbor(router, d);
                Some((neighbor.expect("alive link has endpoint"), d.opposite()))
            }
        };
        let mut live = mask;
        let mut asked = 0u8; // vnets whose downstream buffers were checked
        let mut examined = 0u32;
        for half in [above, !above] {
            let mut w = live & half;
            while w != 0 {
                let i = w.trailing_zeros() as usize;
                w &= w - 1;
                let input = self.input_of(router, i, vcs);
                let pkt = core.packet_at(input).expect("candidate has a packet");
                examined += 1;
                if !self.plugin.allow_grant(core, router, input, out, pkt) {
                    continue;
                }
                let Some((neighbor, port)) = downstream else {
                    return (Some((i, input, None)), examined);
                };
                if let Some(slot) = self.plugin.pick_slot(core, neighbor, port, pkt) {
                    // Validate the plugin's choice.
                    debug_assert!(self.slot_is_free(neighbor, port, pkt, slot));
                    return (Some((i, input, Some(slot))), examined);
                }
                if asked & (1 << pkt.vnet) == 0 {
                    asked |= 1 << pkt.vnet;
                    if !core.vnet_has_free_slot(neighbor, port, pkt.vnet) {
                        let dead = cfg.arbitration_mask_of_vnet(pkt.vnet);
                        live &= !dead;
                        w &= !dead;
                    }
                }
            }
        }
        (None, examined)
    }

    /// Probe the round-robin winner search without committing anything:
    /// the `(rr index, input, slot)` the allocator would grant at `router`
    /// for output `out`, given candidate mask `mask` and round-robin
    /// pointer `rr_ptr`. Read-only — exposed for the allocator
    /// microbenchmarks (the audit's wakeup check uses the same probe
    /// internally).
    pub fn probe_winner(
        &self,
        router: NodeId,
        out: OutPort,
        mask: u64,
        rr_ptr: u32,
    ) -> Option<(usize, InputRef, Option<SlotRef>)> {
        self.find_winner(router, out, mask, rr_ptr).0
    }

    /// The slot contract of [`Plugin::pick_slot`]: a free buffer of the
    /// packet's own vnet at that port.
    fn slot_is_free(&self, router: NodeId, port: Direction, pkt: &Packet, slot: SlotRef) -> bool {
        match slot {
            SlotRef::Regular(vc) => {
                self.core.config().vnet_of(vc) == pkt.vnet
                    && self.core.vc_is_free(VcRef { router, port, vc })
            }
            SlotRef::Bubble => self.core.bubble_available(router, port, pkt.vnet),
        }
    }

    /// Promote the next tail descriptor (if any) of `(node, vnet)`'s
    /// injection queue to a materialized head: stamp its route and insert
    /// it into the arena. A descriptor whose destination has become
    /// unroutable since it was offered (it passed the `routable` check at
    /// the NI) is dropped with the same drop-at-NI accounting, and the next
    /// one is tried, until one routes or the tail empties. Reconfiguration
    /// pre-stamps routes into surviving descriptors; those are consumed
    /// without touching the RNG.
    fn materialize_head(&mut self, node: NodeId, vnet: u8) {
        let qi = self.core.inject_idx(node, vnet);
        debug_assert!(self.core.arch.inject[qi].head.is_none());
        while let Some(entry) = self.core.arch.inject[qi].tail.pop_front() {
            let QueuedPacket {
                id,
                dst,
                vnet: pkt_vnet,
                len_flits,
                created_at,
                route,
            } = entry;
            let route = route
                .map(|boxed| *boxed)
                .or_else(|| self.planner.route(node, dst, &mut self.rng));
            match route {
                Some(route) => {
                    debug_assert_eq!(
                        route.trace(self.core.topology(), node),
                        Some(dst),
                        "planner produced an invalid route"
                    );
                    let req = NewPacket {
                        src: node,
                        dst,
                        vnet: pkt_vnet,
                        len_flits,
                    };
                    let h = self
                        .core
                        .arch
                        .arena
                        .insert(Packet::new(id, req, route, created_at));
                    self.core.arch.inject[qi].head = h;
                    return;
                }
                None => {
                    self.core.stats_mut().count_dropped(pkt_vnet, len_flits);
                }
            }
        }
    }

    /// Commit a grant; returns `Some(router)` if the router's bubble was
    /// freed by this movement.
    fn commit(
        &mut self,
        router: NodeId,
        input: InputRef,
        out: OutPort,
        slot: Option<SlotRef>,
    ) -> Option<NodeId> {
        let t = self.core.time();
        let mut freed_bubble = None;
        // 1. Remove the packet's handle from its input buffer (VC and
        // bubble takes leave the slot draining for `len` cycles).
        let h = match input {
            InputRef::Vc(v) => self.core.vc_take(v),
            InputRef::Bubble(b) => {
                freed_bubble = Some(b);
                self.core.bubble_take(b)
            }
            InputRef::Inject { node, vnet } => {
                let qi = self.core.inject_idx(node, vnet);
                let q = &mut self.core.arch.inject[qi];
                let h = q.head;
                assert!(h.is_some(), "winner had a queued packet");
                q.head = PacketHandle::NONE;
                self.core.arch.arena.get_mut(h).injected_at = t;
                self.core.stats_mut().injected_packets += 1;
                // The next descriptor (if any) surfaces: route it and give
                // it an arena slot now that it can compete for the crossbar.
                self.materialize_head(node, vnet);
                h
            }
        };
        let (len, vnet) = {
            let pkt = self.core.arch.arena.get(h);
            (pkt.len_flits as u64, pkt.vnet)
        };
        // 2. Deliver or forward.
        match out {
            OutPort::Eject => {
                self.core.arch.out_busy[router.index() * 5 + EJECT] = t + len;
                self.core.record_delivery(router);
                // The handle dies here: delivery is one of the two arena
                // removal points (the other is reconfiguration loss).
                let pkt = self.core.arch.arena.remove(h);
                let stats = self.core.stats_mut();
                stats.count_delivered(pkt.vnet, pkt.len_flits);
                let latency = (t + len).saturating_sub(pkt.created_at);
                stats.latency_sum += latency;
                stats.latency_max = stats.latency_max.max(latency);
                stats.network_latency_sum += (t + len).saturating_sub(pkt.injected_at);
                self.traffic.on_delivered(&pkt, t + len);
            }
            OutPort::Dir(d) => {
                self.core.arch.arena.get_mut(h).advance_hop();
                let neighbor = (self.core.topology().neighbor(router, d)).expect("alive link");
                match slot.expect("forward grants carry a slot") {
                    SlotRef::Regular(vc) => {
                        self.core.vc_put(
                            VcRef {
                                router: neighbor,
                                port: d.opposite(),
                                vc,
                            },
                            h,
                            t + HOP_LATENCY,
                        );
                    }
                    SlotRef::Bubble => {
                        debug_assert!(self.core.bubble_available(neighbor, d.opposite(), vnet));
                        self.core.bubble_put(neighbor, h, t + HOP_LATENCY);
                    }
                }
                self.core.arch.out_busy[router.index() * 5 + d.index()] = t + len;
                let stats = self.core.stats_mut();
                stats.data_link_flits += len;
                stats.data_router_flits += len;
            }
        }
        self.core.stats_mut().movements += 1;
        self.core.arch.last_movement = t;
        freed_bubble
    }
}
