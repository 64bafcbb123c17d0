//! Executing one single-scenario instance through the public scenario API,
//! timing set-up and the run separately, and checking the result.
//!
//! The same code serves both passes. The window is cut into
//! `slice_cycles`-long `run` calls of some 0.25 host milliseconds each, so
//! `measure.rs` can take the fastest repetition of every slice; the traced
//! pass also records each as a span and decomposes set-up into its layers.

use sb_scenario::{BubbleSpec, Design, SimRunner};
use sb_sim::Stats;
use sb_topology::Topology;
use sb_workloads::AppTraffic;
use static_bubble::placement;

use crate::onoff::OnOff;
use crate::trace::Tracer;
use crate::workloads::{regime_guard, Instance, Observed, Source, Workload};

/// One timed `run` slice of the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Simulated cycles the slice advanced.
    pub cycles: u64,
    /// Host seconds the slice took.
    pub secs: f64,
    /// Did probes, recoveries or special-message flits advance in it?
    pub recovery: bool,
    /// Packet movements (grants) in it.
    pub movements: u64,
}

/// Host seconds per set-up layer. The planner and placement are timed on
/// their own by the traced pass only (zero otherwise).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupLayers {
    /// `Scenario::topology`.
    pub topology_s: f64,
    /// `Design::planner` (route tables), on its own.
    pub planner_s: f64,
    /// `placement::alive_bubbles`, on its own.
    pub placement_s: f64,
    /// Does the scenario's own build compute the placement too?
    pub build_places: bool,
    /// `Scenario::build_on` / `build_with`, which repeats the planner and,
    /// if `build_places`, the placement.
    pub build_s: f64,
}

/// Everything one execution produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Spec → runnable: topology, route tables, placement, `Simulator`.
    pub setup_s: f64,
    /// Warmup + window + drain.
    pub wall_s: f64,
    /// Simulated cycles covered by `wall_s`.
    pub sim_cycles: u64,
    /// Final measurement-window statistics.
    pub stats: Stats,
    /// Drain outcome, when the instance drains.
    pub drained: Option<bool>,
    /// Completed transactions (`AppTraffic`).
    pub requests: Option<u64>,
    /// Why this execution is incorrect (panic, audit, conservation).
    pub failure: Option<String>,
    /// Why it is correct but outside the workload's regime.
    pub out_of_regime: Option<String>,
    /// Set-up by layer (traced pass).
    pub layers: SetupLayers,
    /// Host seconds of the warmup, window, drain and final audit.
    pub phase_s: [f64; 4],
    /// Simulated cycles of the warmup.
    pub warmup_cycles: u64,
    /// Simulated cycles the drain took.
    pub drain_cycles: u64,
    /// Window slices.
    pub slices: Vec<Slice>,
}

impl Outcome {
    /// Correct and in its regime?
    pub fn passed(&self) -> bool {
        self.failure.is_none() && self.out_of_regime.is_none()
    }

    /// Host seconds of every timed unit, in execution order: warmup, each
    /// window slice, drain (see [`Instance::unit_count`]).
    pub fn units(&self) -> impl Iterator<Item = f64> + '_ {
        let drain = self.drained.map(|_| self.phase_s[2]);
        std::iter::once(self.phase_s[0])
            .chain(self.slices.iter().map(|s| s.secs))
            .chain(drain)
    }
}

/// Set-ups timed per execution (and per grid pass); the fastest counts.
pub const SETUP_REPS: usize = 3;

fn build(inst: &Instance, topo: &Topology) -> Result<Box<dyn SimRunner>, String> {
    let scenario = &inst.scenario;
    Ok(match inst.source {
        Source::Spec => scenario.build_on(topo),
        Source::OnOff {
            burst,
            floor,
            period,
            on_cycles,
        } => scenario.build_with(topo, OnOff::new(burst, floor, period, on_cycles)),
        Source::App(app) => {
            let traffic = AppTraffic::new(app.profile(), topo)
                .ok_or("no memory controller is reachable on this topology")?;
            scenario.build_with(topo, traffic)
        }
    })
}

/// Sum of the counters only the recovery protocol advances.
fn recovery_activity(stats: &Stats) -> u64 {
    stats.probes_sent + stats.deadlocks_recovered + stats.special_link_flits.iter().sum::<u64>()
}

/// Execute `inst` once. A panic inside the simulator is caught and
/// reported as the outcome's `failure`.
pub fn execute(w: Workload, inst: &Instance, tracer: &mut Tracer) -> Outcome {
    let depth = tracer.depth();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_unguarded(w, inst, tracer)
    }));
    caught.unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        tracer.unwind_to(depth);
        Outcome {
            failure: Some(format!("panic: {what}")),
            ..Outcome::default()
        }
    })
}

fn execute_unguarded(w: Workload, inst: &Instance, tracer: &mut Tracer) -> Outcome {
    let scenario = &inst.scenario;
    let mut out = Outcome::default();

    // Set up `SETUP_REPS` times over and keep the fastest (set-up is a
    // few milliseconds at most, once per execution: too few samples
    // otherwise); the last one built is the one that runs.
    let mut ready = None;
    out.setup_s = f64::INFINITY;
    for _ in 0..SETUP_REPS {
        let setup = tracer.begin("setup");
        let t = tracer.begin("topology.build");
        let topo = scenario.topology();
        let topology_s = tracer.end(t);
        let t = tracer.begin("scenario.build");
        let built = build(inst, &topo);
        let build_s = tracer.end(t);
        let setup_s = tracer.end(setup);
        if setup_s < out.setup_s {
            out.setup_s = setup_s;
            out.layers.topology_s = topology_s;
            out.layers.build_s = build_s;
        }
        ready = Some((topo, built));
    }
    let (topo, built) = ready.expect("SETUP_REPS > 0");
    if tracer.enabled() {
        // `build_*` constructs the planner and the placement itself; time
        // each once more on its own (after the build, so neither call runs
        // colder than its twin inside it): what is left of the build is
        // the `Simulator` construction.
        let t = tracer.begin("routing.table_build");
        std::hint::black_box(scenario.design.planner(&topo));
        out.layers.planner_s = tracer.end(t);
        let t = tracer.begin("core.placement");
        std::hint::black_box(placement::alive_bubbles(&topo));
        out.layers.placement_s = tracer.end(t);
        out.layers.build_places =
            scenario.design == Design::StaticBubble && scenario.bubbles == BubbleSpec::Auto;
    }
    let mut runner = match built {
        Ok(runner) => runner,
        Err(why) => {
            out.failure = Some(why);
            return out;
        }
    };

    let run = tracer.begin("run");
    let t = tracer.begin("sim.warmup");
    runner.warmup(scenario.warmup);
    out.warmup_cycles = runner.time();
    out.phase_s[0] = tracer.end_counted(t, out.warmup_cycles);

    let t = tracer.begin("sim.measure");
    let end = runner.time() + scenario.cycles;
    let mut activity = recovery_activity(runner.stats());
    let mut movements = runner.stats().movements;
    while runner.time() < end {
        let from = runner.time();
        let s = tracer.begin("sim.slice");
        runner.run(inst.slice_cycles.min(end - from));
        let cycles = runner.time() - from;
        let secs = tracer.end_counted(s, cycles);
        let stats = runner.stats();
        out.slices.push(Slice {
            cycles,
            secs,
            recovery: recovery_activity(stats) != activity,
            movements: stats.movements - movements,
        });
        activity = recovery_activity(stats);
        movements = stats.movements;
    }
    out.phase_s[1] = tracer.end_counted(t, scenario.cycles);

    out.drained = inst.drain_budget.map(|budget| {
        let t = tracer.begin("sim.drain");
        let from = runner.time();
        runner.halt_injection();
        let drained = runner.run_until_drained(budget);
        out.drain_cycles = runner.time() - from;
        out.phase_s[2] = tracer.end_counted(t, out.drain_cycles);
        drained
    });
    out.sim_cycles = runner.time();
    out.wall_s = tracer.end_counted(run, out.sim_cycles);

    // Correctness, outside the timed section.
    let t = tracer.begin("sim.audit_now");
    let audit = runner.audit_now();
    out.phase_s[3] = tracer.end(t);
    out.stats = runner.stats().clone();
    out.requests = runner
        .traffic_any()
        .downcast_ref::<AppTraffic>()
        .map(AppTraffic::completed);
    let stats = &out.stats;
    let core = runner.core();
    let accounted = stats.delivered_packets
        + stats.dropped_packets
        + stats.lost_packets
        + core.in_flight() as u64
        + core.queued() as u64;
    if let Some(report) = audit {
        out.failure = Some(format!(
            "audit: {} invariant violation(s) at cycle {}",
            report.violations.len(),
            report.time
        ));
    } else if accounted != stats.offered_packets {
        out.failure = Some(format!(
            "conservation: {} packets offered, {accounted} accounted for",
            stats.offered_packets
        ));
    } else {
        let seen = Observed {
            stats,
            queued: core.queued() as u64,
            drained: out.drained,
            requests: out.requests,
        };
        out.out_of_regime = regime_guard(w, &seen).err();
    }
    out
}
