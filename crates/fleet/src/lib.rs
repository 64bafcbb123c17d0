#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Parallel sweep fleet (system **S12**, see `DESIGN.md` §10): fan a grid
//! of [`Scenario`]s across worker threads, one run each, and fold the
//! streamed results into a byte-identical-for-any-`--jobs` report.
//!
//! The pipeline:
//!
//! ```text
//! SweepSpec ──expand()──▶ Vec<SweepRun>          (stable ScenarioIds)
//!     │                        │
//!     │                   sb_pool::run_stream    (N workers, one cursor)
//!     │                        │  (index, Result<RunResult, panic>)
//!     └──────── agg::aggregate ◀┘                (index-sorted finalize)
//!                    │
//!                SweepReport ──to_json()──▶ identical bytes ∀ jobs
//! ```
//!
//! Determinism rests on two facts: every scenario owns its RNG (seeded
//! from the spec, never from ambient state), so a run's result is a pure
//! function of its `SweepRun`; and the aggregator defers all arithmetic
//! to a finalize pass over index-sorted records, so float summation order
//! is fixed. The root package's `tests/contracts.rs` checks the composition
//! across worker counts and cache temperature.
//!
//! A library only: the `sweep` CLI, which runs a spec file through
//! [`run_sweep`], and the figure binaries, which hand [`run_records`] a
//! list of scenarios, live in `sb-bench`.

mod agg;
pub mod cache;
mod spec;

pub use agg::{
    aggregate, FailedRow, PointSummary, RunResult, SampleStats, SaturationRow, ScenarioRecord,
    ScenarioRow, ShortfallRow, SweepReport,
};
pub use cache::{schema_epoch, CacheAccounting, CacheKey, DiskCache};
pub use spec::{SweepRun, SweepSpec};

use std::path::PathBuf;

use sb_scenario::{Scenario, SpecError};

/// Knobs for how each scenario is executed beyond its own spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Capture a [`sb_sim::ForensicsReport`] when a run ends deadlocked.
    pub forensics: bool,
    /// After the measurement window, stop injection and try to drain for
    /// this many cycles; record whether the network emptied.
    pub drain_budget: Option<u64>,
}

/// Execute one scenario to completion: materialize the topology, warm up,
/// run the measurement window, optionally drain, and capture forensics for
/// a deadlocked end state. Deterministic given the scenario (all RNG is
/// seeded from its fields). Panics propagate to the caller — under the
/// pool they become the run's `Err` payload.
pub fn execute_one(scenario: &Scenario, opts: ExecOptions) -> RunResult {
    let topo = scenario.topology();
    let nodes = topo.alive_node_count();
    let mut runner = scenario.build_on(&topo);
    runner.warmup(scenario.warmup);
    runner.run(scenario.cycles);
    let stats = runner.stats().clone();
    let drained = opts.drain_budget.map(|budget| {
        runner.halt_injection();
        runner.run_until_drained(budget)
    });
    let deadlocked = runner.deadlocked_now();
    let forensics = (opts.forensics && deadlocked)
        .then(|| {
            // The oracle already flags the wedge; one audited cycle makes
            // the engine capture and store the report for take_forensics().
            runner.run_until_deadlock(1, 1);
            runner.take_forensics()
        })
        .flatten();
    RunResult {
        stats,
        nodes,
        deadlocked,
        drained,
        forensics,
    }
}

/// Where memoized results live. [`CacheConfig::none`] keeps everything in
/// process (the in-process dedup still applies — it is pure win and
/// deterministic).
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Directory of the content-addressed store (`--cache-dir`). `None`
    /// disables memoization.
    pub dir: Option<PathBuf>,
}

impl CacheConfig {
    /// No on-disk cache: in-process dedup only.
    pub fn none() -> Self {
        CacheConfig::default()
    }

    /// Memoize into (and serve from) `dir`.
    pub fn dir(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: Some(dir.into()),
        }
    }
}

/// Execute `runs` with content-addressed servicing and collect one
/// [`ScenarioRecord`] per run, plus the [`CacheAccounting`] of how the
/// batch was serviced.
///
/// Before anything is scheduled, the runs are grouped by full content key
/// (`cache::content_key`: schema epoch + name-normalized scenario
/// fingerprint + execution options). Each distinct key is serviced
/// **once** — from the on-disk store when `cache.dir` holds a valid
/// entry, otherwise by one simulation on the pool — and the
/// result fans out to every requesting `ScenarioId`. The records are
/// value-identical to simulating every run individually (equal content ⇒
/// equal result, by the determinism contract), so aggregated reports are
/// byte-identical whether a point was simulated, deduped or served warm.
///
/// Panics are isolated into `Err` payloads (a panicking unique scenario
/// fails every run that requested it, and is not stored). An interrupted
/// sweep resumes by running again against the same `cache.dir`.
pub fn run_records(
    // Unused: kept only because `benchmark/src/fleet.rs` passes it
    // (ROADMAP item 4's benchmark-PR list).
    _name: &str,
    runs: &[SweepRun],
    jobs: usize,
    opts: ExecOptions,
    cache: &CacheConfig,
) -> (Vec<ScenarioRecord>, CacheAccounting) {
    let epoch = schema_epoch();
    let mut acct = CacheAccounting {
        total_requested: runs.len(),
        ..CacheAccounting::default()
    };

    // Group requesters by content key, preserving first-occurrence order
    // (the pool's deterministic scheduling order). A scenario that cannot
    // fingerprint (unreachable for plain data) stays unkeyed: it is
    // simulated individually and never touches the store.
    let mut slot_of: std::collections::BTreeMap<CacheKey, usize> =
        std::collections::BTreeMap::new();
    let mut groups: Vec<(Option<CacheKey>, Vec<u32>)> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        match cache::content_key(&run.scenario, opts, epoch) {
            Ok(key) => match slot_of.get(&key) {
                Some(&slot) => groups[slot].1.push(i as u32),
                None => {
                    slot_of.insert(key, groups.len());
                    groups.push((Some(key), vec![i as u32]));
                }
            },
            Err(_) => groups.push((None, vec![i as u32])),
        }
    }
    acct.unique_scenarios = groups.len();
    acct.dedup_served = runs.len() - groups.len();

    let disk = cache.dir.as_ref().and_then(DiskCache::open);

    let mut records = Vec::with_capacity(runs.len());
    let mut fan_out = |group: &[u32], result: &Result<RunResult, String>| {
        for &index in group {
            records.push(ScenarioRecord {
                index,
                result: result.clone(),
            });
        }
    };

    // Warm phase: serve every key the store already holds (validated
    // header; any defect falls through to simulation).
    let mut misses: Vec<(usize, &SweepRun)> = Vec::new();
    for (slot, (key, group)) in groups.iter().enumerate() {
        let served = key.as_ref().and_then(|k| disk.as_ref()?.load(k));
        match served {
            Some(hit) => {
                acct.disk_hits += 1;
                fan_out(group, &Ok(hit));
            }
            None => misses.push((slot, &runs[group[0] as usize])),
        }
    }

    // Cold phase: simulate each remaining unique scenario once, store it
    // as it completes, and fan its result out.
    acct.simulated = misses.len();
    let slots: Vec<usize> = misses.iter().map(|(slot, _)| *slot).collect();
    sb_pool::run_stream(
        misses
            .iter()
            .map(|(_, run)| *run)
            .collect::<Vec<&SweepRun>>(),
        jobs,
        &|_, run: &SweepRun| execute_one(&run.scenario, opts),
        |i, result| {
            let (key, group) = &groups[slots[i]];
            if let (Some(key), Ok(res), Some(d)) = (key, &result, &disk) {
                if d.store(key, &runs[group[0] as usize].id.key, res) {
                    acct.stored += 1;
                }
            }
            fan_out(group, &result);
        },
    );
    (records, acct)
}

/// Expand a spec, execute the grid on `jobs` workers through the
/// content-addressed result cache, and aggregate: the report plus the
/// servicing accounting. The report is byte-identical (after
/// [`SweepReport::to_json`]) for any `jobs` value — `jobs == 1` is the
/// inline sequential reference path — and for any cache state; with a warm
/// cache `accounting.simulated == 0`, the determinism dividend.
pub fn run_sweep(
    spec: &SweepSpec,
    jobs: usize,
    opts: ExecOptions,
    cache: &CacheConfig,
) -> Result<(SweepReport, CacheAccounting), SpecError> {
    let runs = spec.expand()?;
    let (records, acct) = run_records(&spec.name, &runs, jobs, opts, cache);
    Ok((aggregate(&spec.name, spec.accept, &runs, records), acct))
}
