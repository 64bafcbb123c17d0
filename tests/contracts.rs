//! Tier-1 representatives of the engine's determinism contracts (ROADMAP
//! 4c): the full equivalence suites live in the member crates and only
//! `cargo test --workspace` sees them, so this file runs one short scenario
//! per deadlock design through the three ways a run may legitimately be
//! executed differently and asserts that nothing observable moves:
//!
//! * change-driven worklist vs the `scan_all_routers` reference sweep,
//!   which executes every cycle;
//! * every phase in one call (the engine skips whatever is dead) vs one
//!   cycle a call (a call's last cycle always executes, so every cycle
//!   does) vs a chunk of cycles at a time (how `sbsim --bisect` keeps a
//!   replay point near the wedge);
//! * uninterrupted vs snapshot → restore into a fresh engine → continue,
//!   driven either way and across the two scan modes.
//!
//! The last one is what catches a plugin index that is derived from its
//! serialized state (Static Bubble's frozen-router list, FSM slot index and
//! live sets, the escape plugin's stall mask) and not rebuilt by
//! `restore_state`, a traffic source that keeps state a snapshot does not
//! carry, and a wake the engine's own re-derived scheduler state fails to
//! re-arm: snapshots are taken at moments such state is populated, and —
//! scheduler history being no part of a snapshot — the runs must end in the
//! same snapshot *bytes*, not just the same statistics.
//!
//! A fourth contract is the fleet's: a grid's aggregated report is the same
//! bytes whether its runs were simulated, or served from a result cache.

use static_bubble_repro::core::StaticBubblePlugin;
use static_bubble_repro::fleet::{run_sweep, CacheConfig, ExecOptions, SweepSpec};
use static_bubble_repro::scenario::{Design, FaultSpec, Scenario, SimRunner};
use static_bubble_repro::sim::{SimConfig, Stats, UniformTraffic};
use static_bubble_repro::topology::FaultKind;
use static_bubble_repro::workloads::{AppTraffic, RodiniaApp};

/// What a contract run offers the network.
enum Load {
    /// Open loop: uniform-random at this rate, geometric inter-arrival gaps
    /// (the sampler that leaves the engine cycles to skip).
    Uniform(f64),
    /// Closed loop: requests, and the replies owed for them.
    App(RodiniaApp),
}

/// How a run is driven: `run(1)` a cycle at a time is the stepper — a
/// call's last cycle always executes, so every cycle does — and one call a
/// phase lets the engine skip what is dead.
const A_CYCLE_A_CALL: u64 = 1;
const ONE_CALL: u64 = u64::MAX;

/// `total` cycles as calls of at most `chunk`.
fn calls(total: u64, chunk: u64) -> impl Iterator<Item = u64> {
    (0..total)
        .step_by(chunk as usize)
        .map(move |at| chunk.min(total - at))
}

/// Nothing to hold between a snapshot's source and its restored twin.
fn nothing_to_hold(_: &dyn SimRunner, _: &dyn SimRunner) {}

/// One design's contract run: `load` cycles of traffic, then the tap closes
/// and the network drains.
struct Contract {
    scenario: Scenario,
    traffic: Load,
    load: u64,
    /// Is the plugin's derived state populated right now? The snapshot is
    /// taken at the first cycle this holds.
    worth_snapshotting: fn(&dyn SimRunner) -> bool,
    /// Held between the engine the snapshot was taken from (at that
    /// moment) and the fresh one it was restored into, before either runs
    /// on.
    restored_like: fn(&dyn SimRunner, &dyn SimRunner),
    /// Does the load phase ever leave nothing runnable (a leap pending)?
    goes_quiet: bool,
}

/// Everything a run leaves behind that a user can observe, and the whole
/// final snapshot, as written (the plugin's and the traffic source's own
/// end states are blobs in it).
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    stats: Stats,
    end_time: u64,
    escapes: Option<u64>,
    snapshot: String,
}

impl Contract {
    fn new(design: Design, config: SimConfig, faults: usize, traffic: Load, load: u64) -> Self {
        Contract {
            scenario: Scenario::new("contract", design)
                .with_mesh(8, 8)
                .with_faults(FaultSpec::Model {
                    kind: FaultKind::Links,
                    count: faults,
                    seed: 2,
                })
                .with_config(config)
                .with_tdd(10)
                .with_seed(1),
            traffic,
            load,
            worth_snapshotting: |runner| runner.core().in_flight() > 0,
            restored_like: nothing_to_hold,
            goes_quiet: false,
        }
    }

    /// A fresh engine.
    fn build(&self) -> Box<dyn SimRunner> {
        let topo = self.scenario.topology();
        match self.traffic {
            Load::Uniform(rate) => {
                let traffic = UniformTraffic::new(rate).geometric();
                let traffic = if self.scenario.config.vnets == 1 {
                    traffic.single_vnet()
                } else {
                    traffic
                };
                self.scenario.build_with(&topo, traffic)
            }
            Load::App(app) => {
                let traffic = AppTraffic::new(app.profile(), &topo).expect("a usable topology");
                self.scenario.build_with(&topo, traffic)
            }
        }
    }

    /// Run the rest of the load phase, close the tap, drain, audit — at
    /// most `chunk` cycles a call.
    fn finish(&self, mut runner: Box<dyn SimRunner>, chunk: u64) -> Observed {
        calls(self.load - runner.time(), chunk).for_each(|n| runner.run(n));
        runner.halt_injection();
        let drained = calls(50_000, chunk).any(|n| runner.run_until_drained(n));
        assert!(drained, "network must drain");
        if let Some(report) = runner.audit_now() {
            panic!("end-of-run audit failed:\n{report}");
        }
        let end = runner.snapshot().expect("snapshot");
        Observed {
            stats: runner.stats().clone(),
            end_time: runner.time(),
            escapes: runner.escapes(),
            snapshot: end.to_json().expect("snapshot serializes"),
        }
    }

    /// A whole run the way `sbsim` drives one — warm-up, window, tap closed,
    /// drain — at most `chunk` cycles a call; the final snapshot, as written.
    fn driven(&self, chunk: u64) -> String {
        let mut runner = self.build();
        let calls = |total| calls(total, chunk);
        let warmup = self.load / 4;
        calls(warmup).for_each(|n| runner.warmup(n));
        calls(self.load - warmup).for_each(|n| runner.run(n));
        runner.halt_injection();
        let drained = calls(50_000).any(|n| runner.run_until_drained(n));
        assert!(drained, "network must drain");
        let end = runner.snapshot().expect("snapshot");
        end.to_json().expect("snapshot serializes")
    }

    /// The cycles worth interrupting a run at, each with what is populated
    /// there: the contract's own moment; the first packet in the network,
    /// its arrival wake on the wheel; and, from then on, the first cycle
    /// whose tick leaves nothing runnable, so that a leap is pending after
    /// it (absent when the load phase never goes quiet).
    fn snapshot_points(&self) -> Vec<(&'static str, u64)> {
        let mut scout = self.build();
        let (mut own, mut wheel, mut leap) = (None, None, None);
        while scout.time() < self.load && (own.is_none() || leap.is_none()) {
            let now = scout.time();
            if own.is_none() && (self.worth_snapshotting)(scout.as_ref()) {
                own = Some(("its derived state populated", now));
            }
            if wheel.is_none() && scout.core().in_flight() > 0 {
                wheel = Some(("a wake on the wheel", now));
            }
            scout.run(1);
            if wheel.is_some() && leap.is_none() && scout.core().active_count() == 0 {
                leap = Some(("one cycle before a pending leap", now));
            }
        }
        assert!(own.is_some(), "never reached a state worth snapshotting");
        assert_eq!(
            leap.is_some(),
            self.goes_quiet,
            "a pending leap to stop before"
        );
        [own, wheel, leap].into_iter().flatten().collect()
    }

    /// Run to cycle `at`, snapshot, restore into a fresh engine and finish
    /// there, both at most `chunk` cycles a call; `interrupted` and
    /// `resumed` set each engine up first, and `restored_like` is held
    /// between the two at the restore.
    fn resume_at(
        &self,
        at: u64,
        chunk: u64,
        interrupted: impl FnOnce(&mut dyn SimRunner),
        resumed: impl FnOnce(&mut dyn SimRunner),
        restored_like: fn(&dyn SimRunner, &dyn SimRunner),
    ) -> Observed {
        let mut from = self.build();
        interrupted(from.as_mut());
        calls(at, chunk).for_each(|n| from.run(n));
        let snapshot = from.snapshot().expect("snapshot");
        assert_eq!(snapshot.time, at);
        let mut into = self.build();
        resumed(into.as_mut());
        into.restore(&snapshot).expect("restore");
        restored_like(from.as_ref(), into.as_ref());
        self.finish(into, chunk)
    }

    /// The reference run — every cycle executed, a call each — and the
    /// variants held against it.
    fn check(&self) -> Observed {
        let reference = self.finish(self.build(), A_CYCLE_A_CALL);

        let mut full_scan = self.build();
        full_scan.scan_all_routers(true);
        assert_eq!(
            self.finish(full_scan, ONE_CALL),
            reference,
            "worklist vs scan_all_routers"
        );

        // Skipping the dead cycles moves nothing, down to the bytes of the
        // final snapshot: a plugin catches its counters up on the next
        // executed tick, and the last cycle of every call is one.
        assert_eq!(
            self.finish(self.build(), ONE_CALL),
            reference,
            "a cycle a call vs one call a phase"
        );

        // Driven either way, a restored engine owes its uninterrupted twin
        // the bytes.
        let points = self.snapshot_points();
        for chunk in [A_CYCLE_A_CALL, ONE_CALL] {
            for (i, &(what, at)) in points.iter().enumerate() {
                let like = if i == 0 {
                    self.restored_like
                } else {
                    nothing_to_hold
                };
                let resumed = self.resume_at(at, chunk, |_| {}, |_| {}, like);
                assert!(
                    resumed == reference,
                    "chunk {chunk}: uninterrupted vs restored at cycle {at} ({what})"
                );
            }
        }
        // The scan mode is the restoring engine's own, whichever the
        // snapshot was taken under.
        let (_, at) = points[0];
        let full = |r: &mut dyn SimRunner| r.scan_all_routers(true);
        let into_full_scan = self.resume_at(at, A_CYCLE_A_CALL, |_| {}, full, nothing_to_hold);
        assert!(
            into_full_scan == reference,
            "worklist snapshot, full-scan engine"
        );
        let from_full_scan = self.resume_at(at, A_CYCLE_A_CALL, full, |_| {}, nothing_to_hold);
        assert!(
            from_full_scan == reference,
            "full-scan snapshot, worklist engine"
        );
        // A run loop's deadline is a clock event and only a warm-up's last
        // window reset stands, so where the calls are cut changes nothing:
        // chunk ends fall inside every phase, some across a pending leap.
        let whole = self.driven(ONE_CALL);
        assert!(self.driven(100) == whole, "100 cycles a call vs one call");
        assert!(
            self.driven(A_CYCLE_A_CALL) == whole,
            "a cycle a call vs one call"
        );
        reference
    }
}

#[test]
fn static_bubble_recovers_identically_in_every_mode() {
    fn plugin(runner: &dyn SimRunner) -> &StaticBubblePlugin {
        let plugin = runner.plugin_any().downcast_ref::<StaticBubblePlugin>();
        plugin.expect("static-bubble run")
    }
    let load = Load::Uniform(0.3);
    let mut contract = Contract::new(
        Design::StaticBubble,
        SimConfig::single_vnet(),
        12,
        load,
        600,
    );
    // Mid-recovery: some router's injection restriction is in force.
    contract.worth_snapshotting = |runner| plugin(runner).frozen_routers() > 0;
    // A deadlocked network has nothing runnable while the FSMs count.
    contract.goes_quiet = true;
    // The node → FSM index finds, at every router, the FSM the snapshot
    // held there (some of them mid-round) or none.
    contract.restored_like = |interrupted, resumed| {
        let mesh = interrupted.core().topology().mesh();
        let fsms = |runner| -> Vec<_> { mesh.nodes().map(|n| plugin(runner).fsm(n)).collect() };
        let before = fsms(interrupted);
        assert!(before.iter().flatten().any(|fsm| fsm.in_recovery()));
        assert_eq!(fsms(resumed), before);
    };
    let seen = contract.check();
    assert!(
        seen.stats.deadlocks_recovered > 0,
        "the burst must force a recovery"
    );
}

#[test]
fn escape_vc_escalates_identically_in_every_mode() {
    let load = Load::Uniform(0.3);
    let mut contract = Contract::new(Design::EscapeVc, SimConfig::default(), 10, load, 600);
    // Stall clocks are being tracked, and the load phase is about to end:
    // a slot that empties after the restore is not refilled, so a clock the
    // restored sweep failed to visit stays in the end state.
    contract.worth_snapshotting = |runner| runner.escapes() > Some(0) && runner.time() >= 590;
    let seen = contract.check();
    assert!(seen.escapes > Some(100), "stalls must escalate: {seen:?}");
}

#[test]
fn spanning_tree_leaps_identically_in_every_mode() {
    // Sparse enough that the engine skips most cycles.
    let mut contract = Contract::new(
        Design::SpanningTree,
        SimConfig::single_vnet(),
        10,
        Load::Uniform(0.01),
        4_000,
    );
    contract.goes_quiet = true;
    let seen = contract.check();
    assert!(seen.stats.delivered_packets > 100, "{seen:?}");
}

#[test]
fn closed_loop_traffic_resumes_identically_in_every_mode() {
    let load = Load::App(RodiniaApp::Kmeans);
    let mut contract = Contract::new(Design::EscapeVc, SimConfig::default(), 10, load, 4_000);
    // Requests are in the network and replies are owed for others: a
    // restored source that forgot either never sends those replies.
    contract.worth_snapshotting = |runner| runner.core().in_flight() > 0 && runner.time() >= 1_500;
    contract.goes_quiet = true;
    let seen = contract.check();
    let by_vnet = seen.stats.delivered_packets_vnet;
    assert!(by_vnet[0] > 1_000 && by_vnet[2] > 1_000, "{seen:?}");
}

#[test]
fn a_grid_reports_identically_uncached_cold_and_warm() {
    let mut spec = SweepSpec::new("contract-grid");
    spec.designs = vec!["static-bubble".into(), "escape-vc".into()];
    spec.rates = vec![0.05, 0.2];
    spec.warmup = 50;
    spec.cycles = 350;

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("contract-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pass = |cache: &CacheConfig| {
        let (report, acct) =
            run_sweep(&spec, 2, ExecOptions::default(), cache).expect("valid grid");
        (report.to_json().expect("report serializes"), acct)
    };
    let (uncached, _) = pass(&CacheConfig::none());
    let (cold, cold_acct) = pass(&CacheConfig::dir(&dir));
    let (warm, warm_acct) = pass(&CacheConfig::dir(&dir));
    let _ = std::fs::remove_dir_all(&dir);

    assert!(uncached.contains("\"contract-grid\""), "{uncached}");
    assert_eq!(cold, uncached, "cold cache vs no cache");
    assert_eq!(warm, uncached, "warm cache vs no cache");
    assert_eq!(cold_acct.simulated, 4, "{cold_acct:?}");
    assert_eq!(
        (warm_acct.simulated, warm_acct.disk_hits),
        (0, 4),
        "{warm_acct:?}"
    );
}
