//! Order-independent aggregation of streamed worker results.
//!
//! The determinism contract: workers complete in arbitrary order, but the
//! aggregator buffers every record keyed by [`ScenarioId::index`] and does
//! **all** arithmetic only at [`aggregate`] time, iterating in expansion
//! order. Floating-point summation order is therefore fixed, percentiles
//! are computed on value-sorted copies, and the serialized
//! [`SweepReport`] is byte-identical for any worker count or completion
//! permutation — `tests/aggregator.rs` shuffles completion order, and the
//! root package's `tests/contracts.rs` compares worker counts.
//!
//! Degenerate points do not erode silently: a group that completed fewer
//! runs than the grid expanded (worker panic, filtered sample) appears in
//! [`SweepReport::shortfall`], extending the sample-size erosion guard of
//! `crates/bench/src/sweep.rs` from a stderr warning to a first-class
//! report row.

use std::collections::BTreeMap;

use sb_scenario::ScenarioId;
use sb_sim::{ForensicsReport, Stats};
use serde::{Deserialize, Serialize};

use crate::spec::SweepRun;

/// Everything a worker reports for one completed scenario. Serializable
/// because this is exactly what the content-addressed result cache
/// memoizes on disk (`crate::cache`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Measurement-window statistics (captured before any drain probe).
    pub stats: Stats,
    /// Alive routers of the materialized topology (throughput denominator).
    pub nodes: usize,
    /// Did the deadlock oracle flag the final state?
    pub deadlocked: bool,
    /// Outcome of the optional post-window drain probe.
    pub drained: Option<bool>,
    /// Forensics captured for a deadlocked end state (when requested).
    pub forensics: Option<ForensicsReport>,
}

/// One streamed record: an expansion index plus success or panic payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// [`ScenarioId::index`] of the run this record belongs to.
    pub index: u32,
    /// The worker's result, or the panic payload of an isolated failure.
    pub result: Result<RunResult, String>,
}

/// Per-scenario row of the aggregated report, in expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Stable identity.
    pub id: ScenarioId,
    /// Whether the run completed (false ⇒ see [`SweepReport::failed`]).
    pub ok: bool,
    /// Alive routers of the materialized topology (0 for failed runs) —
    /// the denominator for per-run throughput.
    pub nodes: usize,
    /// Oracle verdict on the final state (false for failed runs).
    pub deadlocked: bool,
    /// Drain-probe outcome, when the executor ran one.
    pub drained: Option<bool>,
    /// Measurement-window statistics of a completed run.
    pub stats: Option<Stats>,
    /// Deadlock forensics, when requested and the run ended wedged.
    pub forensics: Option<ForensicsReport>,
}

/// Summary statistics over one per-seed sample set. All fields are `None`
/// when no sample contributes (e.g. latency of a point that delivered
/// nothing) — absence is explicit, never a fake zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Number of contributing samples.
    pub n: usize,
    /// Arithmetic mean (summed in expansion order).
    pub mean: Option<f64>,
    /// Sample standard deviation (`None` for n < 2).
    pub stddev: Option<f64>,
    /// Smallest sample.
    pub min: Option<f64>,
    /// Median (nearest-rank).
    pub p50: Option<f64>,
    /// 95th percentile (nearest-rank).
    pub p95: Option<f64>,
    /// Largest sample.
    pub max: Option<f64>,
}

impl SampleStats {
    /// Compute from samples given in expansion order. The mean/stddev sum
    /// in that order (fixed regardless of completion order); percentiles
    /// sort a copy.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return SampleStats {
                n: 0,
                mean: None,
                stddev: None,
                min: None,
                p50: None,
                p95: None,
                max: None,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = (n >= 2).then(|| {
            let ss = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>();
            (ss / (n - 1) as f64).sqrt()
        });
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| -> f64 {
            let k = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            sorted[k - 1]
        };
        SampleStats {
            n,
            mean: Some(mean),
            stddev,
            min: Some(sorted[0]),
            p50: Some(rank(50.0)),
            p95: Some(rank(95.0)),
            max: Some(sorted[n - 1]),
        }
    }
}

/// Aggregate over one group (grid point × every seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSummary {
    /// Group key (scenario key minus the seed axis).
    pub group: String,
    /// Runs the grid expanded for this group.
    pub expected: usize,
    /// Runs that completed.
    pub completed: usize,
    /// All completed windows merged into one long window
    /// ([`Stats::merge`]).
    pub merged: Stats,
    /// Per-seed average packet latency samples.
    pub latency: SampleStats,
    /// Per-seed delivered throughput samples (flits/node/cycle).
    pub throughput: SampleStats,
    /// Per-seed acceptance samples.
    pub acceptance: SampleStats,
    /// Per-seed deadlock-recovery counts.
    pub recoveries: SampleStats,
}

/// Saturation knee of one series (group ladder over the rate axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationRow {
    /// Series key (group key minus the rate axis).
    pub series: String,
    /// Highest sustained mean throughput on the ladder (`None` when no
    /// group of the series completed any run).
    pub knee_throughput: Option<f64>,
    /// First rate whose mean acceptance fell below the threshold.
    pub saturated_at: Option<f64>,
    /// Mean latency at the lowest completed rate (zero-load-ish latency).
    pub low_load_latency: Option<f64>,
}

/// A group that completed fewer runs than expanded: sample-size erosion,
/// surfaced instead of silently averaged over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShortfallRow {
    /// Group key.
    pub group: String,
    /// Runs the grid expanded.
    pub expected: usize,
    /// Runs that completed.
    pub completed: usize,
}

/// A run that failed (worker panic), reported with its payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedRow {
    /// Which run failed.
    pub id: ScenarioId,
    /// The panic payload.
    pub error: String,
}

/// The aggregated output of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Sweep label (from the spec).
    pub name: String,
    /// Acceptance threshold used for saturation detection.
    pub accept: f64,
    /// Total expanded runs.
    pub total_runs: usize,
    /// Distinct scenario *contents* among the expanded runs (by
    /// [`sb_scenario::Scenario::content_fingerprint`]): the number of
    /// simulations the fleet's in-process dedup actually needs, versus
    /// `total_runs` requested. A pure function of the grid — byte-identical
    /// between a cold and a warm (fully cached) execution of the same spec.
    pub unique_scenarios: usize,
    /// Runs that completed.
    pub completed: usize,
    /// Per-scenario rows, in expansion order.
    pub scenarios: Vec<ScenarioRow>,
    /// Per-point aggregates, in expansion order of first member.
    pub points: Vec<PointSummary>,
    /// Saturation knees, in expansion order of first member.
    pub saturation: Vec<SaturationRow>,
    /// Groups with sample-size erosion.
    pub shortfall: Vec<ShortfallRow>,
    /// Failed runs with panic payloads.
    pub failed: Vec<FailedRow>,
}

impl SweepReport {
    /// Serialize as pretty JSON (the `sweep` binary's output format).
    pub fn to_json(&self) -> Result<String, sb_scenario::SpecError> {
        sb_scenario::json::to_json_string(self)
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<Self, sb_scenario::SpecError> {
        sb_scenario::json::from_json_str(text)
    }
}

/// Fold streamed records into the deterministic report. `records` may
/// arrive in any order and any multiplicity ≤ 1 per index; indices outside
/// `runs` are ignored. All arithmetic happens here, in expansion order.
pub fn aggregate(
    name: &str,
    accept: f64,
    runs: &[SweepRun],
    records: Vec<ScenarioRecord>,
) -> SweepReport {
    let mut by_index: BTreeMap<u32, Result<RunResult, String>> = BTreeMap::new();
    for rec in records {
        if (rec.index as usize) < runs.len() {
            by_index.insert(rec.index, rec.result);
        }
    }

    // Run accounting: how many distinct scenario contents the grid asked
    // for. Derived from the runs (not from how they were serviced), so the
    // figure is identical whether results came from simulation, in-process
    // dedup or the disk cache. A spec that cannot fingerprint (unreachable
    // in practice) counts as unique.
    let mut contents: Vec<u64> = runs
        .iter()
        .enumerate()
        .map(|(i, run)| run.scenario.content_fingerprint().unwrap_or(i as u64))
        .collect();
    contents.sort_unstable();
    contents.dedup();
    let unique_scenarios = contents.len();

    // Group and series membership in expansion (first-seen) order.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    let mut series: Vec<(String, Vec<usize>)> = Vec::new(); // values: group indices
    for (i, run) in runs.iter().enumerate() {
        match groups.last_mut() {
            Some((g, members)) if *g == run.group => members.push(i),
            _ => {
                // Expansion emits each group contiguously, so first-seen
                // order needs no hash lookup; assert the contiguity.
                debug_assert!(
                    groups.iter().all(|(g, _)| *g != run.group),
                    "group {} not contiguous in expansion",
                    run.group
                );
                let gi = groups.len();
                groups.push((run.group.clone(), vec![i]));
                match series.last_mut() {
                    Some((s, members)) if *s == run.series => members.push(gi),
                    _ => series.push((run.series.clone(), vec![gi])),
                }
            }
        }
    }

    let mut scenarios = Vec::with_capacity(runs.len());
    let mut failed = Vec::new();
    let mut completed_total = 0usize;
    for run in runs {
        match by_index.get(&run.id.index) {
            Some(Ok(res)) => {
                completed_total += 1;
                scenarios.push(ScenarioRow {
                    id: run.id.clone(),
                    ok: true,
                    nodes: res.nodes,
                    deadlocked: res.deadlocked,
                    drained: res.drained,
                    stats: Some(res.stats.clone()),
                    forensics: res.forensics.clone(),
                });
            }
            Some(Err(payload)) => {
                failed.push(FailedRow {
                    id: run.id.clone(),
                    error: payload.clone(),
                });
                scenarios.push(ScenarioRow {
                    id: run.id.clone(),
                    ok: false,
                    nodes: 0,
                    deadlocked: false,
                    drained: None,
                    stats: None,
                    forensics: None,
                });
            }
            None => {
                failed.push(FailedRow {
                    id: run.id.clone(),
                    error: "no result streamed for this run".to_string(),
                });
                scenarios.push(ScenarioRow {
                    id: run.id.clone(),
                    ok: false,
                    nodes: 0,
                    deadlocked: false,
                    drained: None,
                    stats: None,
                    forensics: None,
                });
            }
        }
    }

    let mut points = Vec::with_capacity(groups.len());
    let mut shortfall = Vec::new();
    for (group, members) in &groups {
        let mut latency = Vec::new();
        let mut throughput = Vec::new();
        let mut acceptance = Vec::new();
        let mut recoveries = Vec::new();
        let mut merged = Stats::default();
        let mut completed = 0usize;
        for &i in members {
            let Some(Ok(res)) = by_index.get(&runs[i].id.index) else {
                continue;
            };
            completed += 1;
            merged.merge(&res.stats);
            if let Some(l) = res.stats.avg_latency() {
                latency.push(l);
            }
            throughput.push(res.stats.throughput(res.nodes));
            acceptance.push(res.stats.acceptance());
            recoveries.push(res.stats.deadlocks_recovered as f64);
        }
        if completed < members.len() {
            shortfall.push(ShortfallRow {
                group: group.clone(),
                expected: members.len(),
                completed,
            });
        }
        points.push(PointSummary {
            group: group.clone(),
            expected: members.len(),
            completed,
            merged,
            latency: SampleStats::from_samples(&latency),
            throughput: SampleStats::from_samples(&throughput),
            acceptance: SampleStats::from_samples(&acceptance),
            recoveries: SampleStats::from_samples(&recoveries),
        });
    }

    let mut saturation = Vec::with_capacity(series.len());
    for (s, group_idxs) in &series {
        // Walk the ladder in ascending rate order (the spec may list rates
        // in any order); `fig09`'s `knee` walks a ladder the same way.
        let mut ladder: Vec<(f64, usize)> = group_idxs
            .iter()
            .map(|&gi| (runs[groups[gi].1[0]].rate, gi))
            .collect();
        ladder.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let mut knee: Option<f64> = None;
        let mut saturated_at = None;
        let mut low_load_latency = None;
        for (rate, gi) in ladder {
            let point = &points[gi];
            if point.completed == 0 {
                continue; // erosion is visible in `shortfall`
            }
            let thr = point.throughput.mean.expect("completed > 0");
            let acc = point.acceptance.mean.expect("completed > 0");
            if low_load_latency.is_none() {
                low_load_latency = point.latency.mean;
            }
            if acc >= accept {
                knee = Some(knee.map_or(thr, |k: f64| k.max(thr)));
            } else {
                // Past the knee; deeper rates only wedge harder.
                knee = Some(knee.map_or(thr, |k: f64| k.max(thr.min(rate))));
                saturated_at = Some(rate);
                break;
            }
        }
        saturation.push(SaturationRow {
            series: s.clone(),
            knee_throughput: knee,
            saturated_at,
            low_load_latency,
        });
    }

    SweepReport {
        name: name.to_string(),
        accept,
        total_runs: runs.len(),
        unique_scenarios,
        completed: completed_total,
        scenarios,
        points,
        saturation,
        shortfall,
        failed,
    }
}
