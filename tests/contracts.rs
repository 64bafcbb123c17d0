//! Tier-1's determinism harness. One short scenario at a time runs through
//! the ways a run may legitimately be executed differently, and nothing
//! observable may move:
//!
//! * change-driven worklist vs the `scan_all_routers` reference sweep,
//!   which executes every cycle;
//! * every phase in one call (the engine skips whatever is dead) vs one
//!   cycle a call (a call's last cycle always executes, so every cycle
//!   does) vs a chunk of cycles at a time;
//! * untraced vs a run that turns the auditor (every cycle) and protocol
//!   tracing on part-way, at a moment the plugin's derived state is
//!   populated, a wake is on the wheel or a leap is pending. That is what
//!   `sbsim --bisect` does at the start of the drain's last chunk, in its
//!   one and only pass.
//!
//! Runs are compared by everything a user can observe and by the bytes of
//! the engine's end-state dump (`EngineSnapshot`, write-only), not just the
//! statistics. A traced run is exempt only in what tracing itself writes:
//! the plugin's trace ring and the `trace:` lines of a forensics report.
//!
//! The inputs are four named contracts, one per deadlock design and the
//! closed loop, and a property test that draws the rest: design, fault
//! count, load from near-idle to past the knee (then a halted drain, which
//! may wedge), audit cadence, arrival sampler, seeds and a split point.
//! `tests/mutants/run.sh` measures what they guard (`results/mutants.txt`).
//!
//! A fifth contract is the fleet's: a grid's aggregated report is the same
//! bytes whatever the worker count, and whether its runs were simulated or
//! served from a result cache.

use proptest::prelude::*;
use static_bubble_repro::core::StaticBubblePlugin;
use static_bubble_repro::fleet::{run_sweep, CacheConfig, ExecOptions, SweepSpec};
use static_bubble_repro::scenario::TrafficSpec;
use static_bubble_repro::scenario::{json, ClockMode, Design, FaultSpec, Scenario, SimRunner};
use static_bubble_repro::sim::value::Value;
use static_bubble_repro::sim::{SimConfig, Stats};
use static_bubble_repro::topology::FaultKind;
use static_bubble_repro::workloads::{AppTraffic, RodiniaApp};

/// What a contract run offers the network.
enum Load {
    /// Open loop: the scenario's own synthetic traffic, at its rate and
    /// under its `clock`'s arrival sampler.
    Synthetic,
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

/// One contract run: `load` cycles of traffic, then the tap closes and the
/// network drains for at most `drain` cycles.
struct Contract {
    scenario: Scenario,
    traffic: Load,
    load: u64,
    drain: u64,
    /// Must the drain empty the network? (A drawn input may wedge it.)
    drains: bool,
    /// Is the plugin's derived state populated right now? The first cycle
    /// this holds is a split point.
    worth_splitting: fn(&dyn SimRunner) -> bool,
    /// Does the load phase ever leave nothing runnable (a leap pending)?
    /// `None`: not pinned.
    goes_quiet: Option<bool>,
    /// One more cycle to interrupt the run at.
    split: Option<u64>,
}

/// Everything a run leaves behind that a user can observe, and the whole
/// end-state dump, as written (the plugin's and the traffic source's own
/// end states are blobs in it).
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    stats: Stats,
    end_time: u64,
    wedge: Option<(Option<u64>, Option<String>)>,
    escapes: Option<u64>,
    snapshot: String,
}

/// The keys of a plugin's blob that tracing writes: its switch and its
/// event ring.
const TRACE_KEYS: [&str; 3] = ["trace_on", "events", "events_lost"];

impl Observed {
    /// What the run left behind, less what tracing itself writes.
    fn untraced(mut self) -> Self {
        if let Some((_, Some(report))) = &mut self.wedge {
            let kept = report.lines().filter(|line| !line.starts_with("trace: "));
            *report = kept.collect::<Vec<_>>().join("\n");
        }
        let mut dump = json::parse(&self.snapshot).expect("dump parses");
        let Value::Map(fields) = &mut dump else {
            panic!("a dump is an object");
        };
        let plugin = fields.iter_mut().find(|(key, _)| key == "plugin");
        if let Some((_, Value::Str(blob))) = plugin {
            if let Ok(Value::Map(mut state)) = json::parse(blob) {
                state.retain(|(key, _)| !TRACE_KEYS.contains(&key.as_str()));
                *blob = json::render(&Value::Map(state));
            }
        }
        self.snapshot = json::render(&dump);
        self
    }
}

impl Contract {
    fn new(design: Design, config: SimConfig, faults: usize, traffic: Load, load: u64) -> Self {
        let faults = match faults {
            0 => FaultSpec::Pristine,
            count => FaultSpec::Model {
                kind: FaultKind::Links,
                count,
                seed: 2,
            },
        };
        Contract {
            scenario: Scenario::new("contract", design)
                .with_mesh(8, 8)
                .with_faults(faults)
                .with_config(config)
                .with_tdd(10)
                .with_seed(1),
            traffic,
            load,
            drain: 50_000,
            drains: true,
            worth_splitting: |runner| runner.core().in_flight() > 0,
            goes_quiet: None,
            split: None,
        }
    }

    /// Uniform-random traffic at `rate`, all of it in vnet 0 of a one-vnet
    /// network or the 50/50 control / data mix over Table II's three, with
    /// geometric inter-arrival gaps (the sampler that leaves the engine
    /// cycles to skip).
    fn open_loop(design: Design, config: SimConfig, faults: usize, rate: f64, load: u64) -> Self {
        let single_vnet = config.vnets == 1;
        let mut contract = Contract::new(design, config, faults, Load::Synthetic, load);
        contract.scenario = (contract.scenario)
            .with_traffic(TrafficSpec::Uniform { rate, single_vnet })
            .with_clock(ClockMode::Leap);
        contract
    }

    /// A fresh engine.
    fn build(&self) -> Box<dyn SimRunner> {
        let topo = self.scenario.topology();
        match self.traffic {
            Load::Synthetic => self.scenario.build_on(&topo),
            Load::App(app) => {
                let traffic = AppTraffic::new(app.profile(), &topo).expect("a usable topology");
                self.scenario.build_with(&topo, traffic)
            }
        }
    }

    /// Close the tap and drain, at most `chunk` cycles a call.
    fn drain(&self, runner: &mut dyn SimRunner, chunk: u64) -> bool {
        runner.halt_injection();
        let drained = calls(self.drain, chunk).any(|n| runner.run_until_drained(n));
        assert!(drained || !self.drains, "network must drain");
        drained
    }

    /// Run the rest of the load phase, drain, audit — at most `chunk`
    /// cycles a call.
    fn finish(&self, mut runner: Box<dyn SimRunner>, chunk: u64) -> Observed {
        calls(self.load - runner.time(), chunk).for_each(|n| runner.run(n));
        let drained = self.drain(runner.as_mut(), chunk);
        if let Some(report) = runner.audit_now() {
            panic!("end-of-run audit failed:\n{report}");
        }
        // A network the drain left wedged: the oracle's verdict, and what
        // its forensics report says.
        let wedge = (!drained).then(|| {
            let at = runner.run_until_deadlock(1_000, 7);
            (at, runner.take_forensics().map(|report| report.to_string()))
        });
        let end = runner.snapshot().expect("snapshot");
        Observed {
            stats: runner.stats().clone(),
            end_time: runner.time(),
            wedge,
            escapes: runner.escapes(),
            snapshot: end.to_json().expect("snapshot serializes"),
        }
    }

    /// A whole run the way `sbsim` drives one — warm-up, window, tap closed,
    /// drain — at most `chunk` cycles a call; the end-state dump, as written.
    fn driven(&self, chunk: u64) -> String {
        let mut runner = self.build();
        let calls = |total| calls(total, chunk);
        let warmup = self.load / 4;
        calls(warmup).for_each(|n| runner.warmup(n));
        calls(self.load - warmup).for_each(|n| runner.run(n));
        self.drain(runner.as_mut(), chunk);
        let end = runner.snapshot().expect("snapshot");
        end.to_json().expect("snapshot serializes")
    }

    /// The cycles worth splitting a run at, each with what is populated
    /// there: the contract's own moment; the first packet in the network,
    /// its arrival wake on the wheel; from then on, the first cycle whose
    /// tick leaves nothing runnable, so that a leap is pending after it
    /// (absent when the load phase never goes quiet); and the drawn split.
    fn split_points(&self) -> Vec<(&'static str, u64)> {
        let mut scout = self.build();
        let (mut own, mut wheel, mut leap) = (None, None, None);
        while scout.time() < self.load && (own.is_none() || leap.is_none()) {
            let now = scout.time();
            if own.is_none() && (self.worth_splitting)(scout.as_ref()) {
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
        assert!(own.is_some(), "never reached a state worth splitting at");
        if let Some(quiet) = self.goes_quiet {
            assert_eq!(leap.is_some(), quiet, "a pending leap to stop before");
        }
        let split = self.split.map(|at| ("the drawn split", at));
        [own, wheel, leap, split].into_iter().flatten().collect()
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
        // end-state dump: a plugin catches its counters up on the next
        // executed tick, and the last cycle of every call is one.
        assert_eq!(
            self.finish(self.build(), ONE_CALL),
            reference,
            "a cycle a call vs one call a phase"
        );

        // Turning the auditor and tracing on part-way moves nothing but
        // what tracing writes.
        let untraced = reference.clone().untraced();
        for (what, at) in self.split_points() {
            let mut traced = self.build();
            traced.run(at);
            traced.set_tracing(true);
            traced.set_audit(1);
            assert!(
                self.finish(traced, ONE_CALL).untraced() == untraced,
                "untraced vs traced from cycle {at} ({what})"
            );
        }
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
    let mut contract =
        Contract::open_loop(Design::StaticBubble, SimConfig::single_vnet(), 12, 0.3, 600);
    // Mid-recovery: some router's injection restriction is in force.
    contract.worth_splitting = |runner| plugin(runner).frozen_routers() > 0;
    // A deadlocked network has nothing runnable while the FSMs count.
    contract.goes_quiet = Some(true);
    let seen = contract.check();
    assert!(
        seen.stats.deadlocks_recovered > 0,
        "the burst must force a recovery"
    );
}

#[test]
fn escape_vc_escalates_identically_in_every_mode() {
    let mut contract = Contract::open_loop(Design::EscapeVc, SimConfig::default(), 10, 0.3, 600);
    // Stall clocks are being tracked, and the load phase is about to end:
    // a slot that empties after the split is not refilled, so a clock the
    // audited sweep disturbed stays in the end state.
    contract.worth_splitting = |runner| runner.escapes() > Some(0) && runner.time() >= 590;
    // A router whose grant emptied it is not re-scanned, so between bursts
    // of arrivals nothing is runnable.
    contract.goes_quiet = Some(true);
    let seen = contract.check();
    assert!(seen.escapes > Some(100), "stalls must escalate: {seen:?}");
}

#[test]
fn spanning_tree_leaps_identically_in_every_mode() {
    // Sparse enough that the engine skips most cycles.
    let mut contract = Contract::open_loop(
        Design::SpanningTree,
        SimConfig::single_vnet(),
        10,
        0.01,
        4_000,
    );
    contract.goes_quiet = Some(true);
    let seen = contract.check();
    assert!(seen.stats.delivered_packets > 100, "{seen:?}");
}

#[test]
fn closed_loop_traffic_resumes_identically_in_every_mode() {
    let load = Load::App(RodiniaApp::Kmeans);
    let mut contract = Contract::new(Design::EscapeVc, SimConfig::default(), 10, load, 4_000);
    // Requests are in the network and replies are owed for others.
    contract.worth_splitting = |runner| runner.core().in_flight() > 0 && runner.time() >= 1_500;
    contract.goes_quiet = Some(true);
    let seen = contract.check();
    let by_vnet = seen.stats.delivered_packets_vnet;
    assert!(by_vnet[0] > 1_000 && by_vnet[2] > 1_000, "{seen:?}");
}

/// The load phase of a drawn input.
const DRAWN_LOAD: u64 = 300;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The axes the older equivalence suites swept, drawn, as inputs to the
    /// same check: each deadlock design and none (minimal routes, no
    /// mechanism), 0–12 faulty links, uniform or bit-complement traffic at
    /// a load from near-idle to past the knee and then a halted drain,
    /// which may wedge; an audit every cycle (a missed wake fails the cycle
    /// it happens), every 64 or never; either arrival sampler; t_DD, the
    /// seeds and a split point.
    fn drawn_runs_agree_in_every_mode(
        (design_ix, faults, fault_seed) in (0usize..4, 0usize..13, any::<u64>()),
        (rate_centi, complement) in (1u32..45, any::<bool>()),
        (audit_ix, geometric) in (0usize..3, any::<bool>()),
        (tdd, seed) in (10u64..40, any::<u64>()),
        split_permille in 1u64..1000,
    ) {
        let design = [
            Design::Unprotected,
            Design::SpanningTree,
            Design::EscapeVc,
            Design::StaticBubble,
        ][design_ix];
        // Escape-VC on Table II's three vnets, where a vnet can be refused
        // downstream while its escape VC is still free.
        let config = match design {
            Design::EscapeVc => SimConfig::default(),
            _ => SimConfig::single_vnet(),
        };
        let rate = f64::from(rate_centi) / 100.0;
        let mut contract = Contract::open_loop(design, config, 0, rate, DRAWN_LOAD);
        if faults > 0 {
            let (kind, count, seed) = (FaultKind::Links, faults, fault_seed);
            contract.scenario.faults = FaultSpec::Model { kind, count, seed };
        }
        if complement {
            let single_vnet = config.vnets == 1;
            contract.scenario.traffic = TrafficSpec::BitComplement { rate, single_vnet };
        }
        let clock = if geometric { ClockMode::Leap } else { ClockMode::Step };
        contract.scenario = (contract.scenario)
            .with_mesh(5, 5)
            .with_tdd(tdd)
            .with_seed(seed)
            .with_audit_every([0, 1, 64][audit_ix])
            .with_clock(clock);
        contract.drain = 2_000;
        contract.drains = false;
        contract.split = Some((DRAWN_LOAD * split_permille / 1000).max(1));
        // Printed only when the case fails.
        println!("{:?}", contract.scenario);
        contract.check();
    }
}

/// The fleet's contract, one input a row: the worker count of the cached
/// passes, the grid's audit cadence and arrival sampler, and whether the
/// executor's extra phases (injection halt, drain probe, forensics) run.
#[test]
fn a_grid_reports_identically_uncached_cold_and_warm() {
    let drain_and_forensics = ExecOptions {
        forensics: true,
        drain_budget: Some(5_000),
    };
    let inputs = [
        (2, 0, ClockMode::Step, ExecOptions::default()),
        (3, 64, ClockMode::Leap, drain_and_forensics),
    ];
    for (jobs, audit_every, clock, opts) in inputs {
        let mut spec = SweepSpec::new("contract-grid");
        spec.designs = vec!["static-bubble".into(), "escape-vc".into()];
        spec.rates = vec![0.05, 0.2];
        spec.warmup = 50;
        spec.cycles = 350;
        spec.audit_every = audit_every;
        spec.clock = clock;

        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("contract-cache-{jobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pass = |jobs, cache: &CacheConfig| {
            let (report, acct) = run_sweep(&spec, jobs, opts, cache).expect("valid grid");
            (report.to_json().expect("report serializes"), acct)
        };
        let (uncached, _) = pass(1, &CacheConfig::none());
        let (parallel, _) = pass(jobs, &CacheConfig::none());
        let (cold, cold_acct) = pass(jobs, &CacheConfig::dir(&dir));
        let (warm, warm_acct) = pass(jobs, &CacheConfig::dir(&dir));
        let _ = std::fs::remove_dir_all(&dir);

        assert!(uncached.contains("\"contract-grid\""), "{uncached}");
        assert_eq!(parallel, uncached, "--jobs {jobs} vs --jobs 1");
        assert_eq!(cold, uncached, "cold cache vs no cache");
        assert_eq!(warm, uncached, "warm cache vs no cache");
        assert_eq!(cold_acct.simulated, 4, "{cold_acct:?}");
        assert_eq!(
            (warm_acct.simulated, warm_acct.disk_hits),
            (0, 4),
            "{warm_acct:?}"
        );
    }
}
