//! The fleet workload: one fig12-shaped grid through `run_records` →
//! `aggregate` → `to_json`, uncached, submitted run by run so that every
//! run is a timed unit of its own. (Whole-grid passes at one and two
//! workers into a fresh cache directory, single stores and loads, and warm
//! passes over a populated store are timed by the traced pass, `layers.rs`.)
//!
//! The program is handed the grid as TOML text; parsing and expanding it
//! is this workload's set-up. The report bytes of an uncached `jobs = 1`
//! pass are the reference every later pass must reproduce exactly.

use std::path::{Path, PathBuf};

use sb_fleet::{
    aggregate, run_records, CacheAccounting, CacheConfig, ExecOptions, ScenarioRecord, SweepReport,
    SweepRun, SweepSpec,
};

use crate::exec::SETUP_REPS;
use crate::measure::Round;
use crate::summary::{fnv1a, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workloads::{grid, Workload};

/// Worker threads of the timed passes: the reference box has two cores.
pub const JOBS: usize = 2;

/// State of the fleet workload across rounds.
#[derive(Debug)]
pub struct Grid {
    /// The generated spec, as the text the program parses.
    pub spec_toml: String,
    /// Report bytes of the uncached `jobs = 1` reference pass.
    pub reference: String,
    /// Directory holding every cache directory of this process.
    root: PathBuf,
    cold_dirs: u64,
}

/// One pass over the grid.
#[derive(Debug)]
pub struct GridPass {
    /// The aggregated report.
    pub report: SweepReport,
    /// Its serialized bytes.
    pub json: String,
    /// How the runs were serviced.
    pub acct: CacheAccounting,
    /// Host seconds of every timed unit: each `run_records` call, then
    /// `aggregate`, then `to_json`.
    pub units: Vec<f64>,
}

impl GridPass {
    /// Host seconds for `run_records` + `aggregate` + `to_json`.
    pub fn wall_s(&self) -> f64 {
        self.units.iter().sum()
    }
}

/// Parse and expand `spec_toml` (the fleet workload's set-up).
pub fn parse_and_expand(spec_toml: &str) -> Result<(SweepSpec, Vec<SweepRun>), String> {
    let spec = SweepSpec::from_toml(spec_toml).map_err(|e| format!("grid spec: {e}"))?;
    let runs = spec.expand().map_err(|e| format!("grid expand: {e}"))?;
    Ok((spec, runs))
}

/// Aggregate and serialize `records`; the two calls are the last two units.
fn report(
    spec: &SweepSpec,
    runs: &[SweepRun],
    records: Vec<ScenarioRecord>,
    acct: CacheAccounting,
    mut units: Vec<f64>,
    tracer: &mut Tracer,
) -> Result<GridPass, String> {
    let t = tracer.begin("fleet.aggregate");
    let report = aggregate(&spec.name, spec.accept, runs, records);
    units.push(tracer.end_counted(t, runs.len() as u64));
    let t = tracer.begin("fleet.report_json");
    let json = report.to_json().map_err(|e| format!("report: {e}"));
    units.push(tracer.end(t));
    Ok(GridPass {
        report,
        json: json?,
        acct,
        units,
    })
}

/// Run the whole of `runs` in one `run_records` call at `jobs` workers
/// against `cache`, aggregate and serialize: how `sweep` runs a grid. The
/// reference pass and the traced pass's job-count and warm passes.
pub fn pass(
    spec: &SweepSpec,
    runs: &[SweepRun],
    jobs: usize,
    cache: &CacheConfig,
    tracer: &mut Tracer,
) -> Result<GridPass, String> {
    let t = tracer.begin("fleet.run_records");
    let (records, acct) = run_records(&spec.name, runs, jobs, ExecOptions::default(), cache);
    let units = vec![tracer.end_counted(t, runs.len() as u64)];
    report(spec, runs, records, acct, units, tracer)
}

/// The timed pass: the same grid against `cache`, one `run_records` call
/// per run (inline, `jobs = 1`), then aggregate and serialize.
///
/// A whole-grid call on two workers is one unit of a third of a second
/// that needs both cores undisturbed, and on the shared reference box a
/// core is left alone for 2 ms at a time (median; README.md, "Why
/// minima"): ten such runs spread 27 % where the single-scenario workloads
/// next to them spread 1 to 5 %. Run by run, a unit is one scenario's
/// fingerprint, set-up and simulation, a millisecond or two on one
/// thread. What this leaves out, the pool's scheduling, the traced pass
/// reports (`fleet.jobs2_speedup`, `pool.*`).
pub fn pass_by_run(
    spec: &SweepSpec,
    runs: &[SweepRun],
    cache: &CacheConfig,
    tracer: &mut Tracer,
) -> Result<GridPass, String> {
    let mut records = Vec::with_capacity(runs.len());
    let mut units = Vec::with_capacity(runs.len() + 2);
    let mut acct = CacheAccounting::default();
    for (index, run) in runs.iter().enumerate() {
        let t = tracer.begin("fleet.run_records");
        let one = std::slice::from_ref(run);
        let (mut record, served) = run_records(&spec.name, one, 1, ExecOptions::default(), cache);
        units.push(tracer.end_counted(t, 1));
        // A record names its run by position in the slice it was run from.
        record.iter_mut().for_each(|r| r.index = index as u32);
        records.append(&mut record);
        acct.total_requested += served.total_requested;
        acct.unique_scenarios += served.unique_scenarios;
        acct.simulated += served.simulated;
        acct.dedup_served += served.dedup_served;
        acct.disk_hits += served.disk_hits;
        acct.stored += served.stored;
        acct.journal_resumed += served.journal_resumed;
    }
    report(spec, runs, records, acct, units, tracer)
}

impl Grid {
    /// Generate the grid for `seed` and take the `jobs = 1` reference
    /// pass. Cache directories live under `out_dir`, inside the checkout.
    pub fn new(seed: u64, len_div: u64, out_dir: &Path) -> Result<Grid, String> {
        let spec_toml = grid(seed, len_div)
            .to_toml()
            .map_err(|e| format!("grid spec: {e}"))?;
        let (spec, runs) = parse_and_expand(&spec_toml)?;
        let name = Workload::FleetGrid.name();
        let root = out_dir.join(format!("cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let reference = pass(&spec, &runs, 1, &CacheConfig::none(), &mut Tracer::off())?.json;
        Ok(Grid {
            spec_toml,
            reference,
            root,
            cold_dirs: 0,
        })
    }

    /// A cache directory nothing has written to yet.
    pub fn fresh_cache(&mut self) -> (CacheConfig, PathBuf) {
        self.cold_dirs += 1;
        let dir = self.root.join(format!("cold-{}", self.cold_dirs));
        (CacheConfig::dir(&dir), dir)
    }

    /// One round: set-up (parse + expand), then one timed pass, run by run.
    pub fn round(&mut self, tracer: &mut Tracer) -> Round {
        // As in `exec.rs`: set up several times over, keep the fastest.
        let mut setup_s = f64::INFINITY;
        let mut parsed = Err(String::new());
        for _ in 0..SETUP_REPS {
            let t = tracer.begin("setup");
            parsed = parse_and_expand(&self.spec_toml);
            setup_s = setup_s.min(tracer.end(t));
        }
        let (spec, runs) = match parsed {
            Ok(parsed) => parsed,
            Err(why) => return Round::failed(1, why),
        };
        let attempted = runs.len() as u64;
        // Uncached: with a cache directory the same pass spread 35 % over
        // five same-seed runs on the box's shared disk and 0.6 % on tmpfs,
        // and the benchmark may write only inside its checkout. Stores and
        // loads are the traced pass's (`fleet.cache_*`, unbounded).
        let done = pass_by_run(&spec, &runs, &CacheConfig::none(), tracer);
        let done = match done {
            Ok(done) => done,
            Err(why) => return Round::failed(attempted, why),
        };

        let mut failures = Vec::new();
        let acct = done.acct;
        let all_simulated = acct.simulated == acct.unique_scenarios;
        if done.json != self.reference {
            failures.push(format!(
                "report bytes differ from the jobs-1 reference ({} vs {} bytes)",
                done.json.len(),
                self.reference.len()
            ));
        } else if !all_simulated {
            failures.push(format!("unexpected servicing: {}", acct.to_json_line()));
        }
        if !failures.is_empty() {
            // A pass that cannot be trusted as a whole fails every run.
            let why = failures.remove(0);
            return Round::failed(attempted, why);
        }
        for row in &done.report.failed {
            failures.push(format!("{}: {}", row.id, row.error));
        }
        for row in &done.report.shortfall {
            failures.push(format!(
                "{}: {} of {} runs completed",
                row.group, row.completed, row.expected
            ));
        }
        let mut packets = 0;
        for row in &done.report.scenarios {
            match &row.stats {
                Some(stats) if stats.delivered_packets > 0 => packets += stats.delivered_packets,
                Some(_) => failures.push(format!("{}: delivered no packets", row.id)),
                None => {}
            }
        }
        Round {
            setup_units: vec![setup_s],
            wall_units: done.units,
            cycles: acct.unique_scenarios as u64 * (spec.warmup + spec.cycles),
            packets,
            attempted,
            failures,
            digest: fnv1a(FNV_OFFSET, done.json.as_bytes()),
        }
    }
}

impl Drop for Grid {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
