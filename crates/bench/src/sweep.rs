//! Topology sampling, the `--jobs` / `--cache-dir` plumbing, and the one
//! call that runs a figure's grid.

use sb_fleet::{CacheConfig, ExecOptions, RunResult, SweepRun};
use sb_scenario::{Scenario, ScenarioId};
use sb_topology::{FaultKind, FaultModel, Mesh, Topology};

/// Sample `count` random topologies for a fault point, keeping only those
/// accepted by `filter` (e.g. "memory controllers reachable"); gives up
/// after `8 × count` attempts so heavily-partitioned fault counts still
/// terminate.
///
/// Returns the accepted topologies plus the number of injection attempts
/// made. A shortfall (`topologies.len() < count`) is *silent sample-size
/// erosion* if ignored: a sweep point that filtered out most of its samples
/// averages over fewer topologies than its neighbours. Callers should
/// compare `len()` against the requested `count` and at least warn (the
/// `fig12`/`fig13` binaries do).
pub fn sample_topologies_filtered(
    mesh: Mesh,
    kind: FaultKind,
    faults: usize,
    count: usize,
    base_seed: u64,
    mut filter: impl FnMut(&Topology) -> bool,
) -> (Vec<Topology>, usize) {
    use rand::SeedableRng;
    let model = FaultModel::new(kind, faults);
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    for i in 0..(count * 8) {
        if out.len() == count {
            break;
        }
        attempts = i + 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            base_seed ^ 0xC0FF_EE00_0000_0000 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let topo = model.inject(mesh, &mut rng);
        if filter(&topo) {
            out.push(topo);
        }
    }
    (out, attempts)
}

/// `--jobs`: worker threads, `0` (the default) = one per core, `1` = the
/// sequential reference path. [`sb_pool::run_stream`] resolves the `0`.
pub fn jobs_from_args(args: &crate::Args) -> usize {
    args.get("jobs", 0)
}

/// The fleet cache configuration selected by `--cache-dir`: memoize
/// simulation results there when given, run in-process-only otherwise.
pub fn cache_from_args(args: &crate::Args) -> CacheConfig {
    match args.get_str("cache-dir") {
        Some(dir) => CacheConfig::dir(dir),
        None => CacheConfig::none(),
    }
}

/// Run a figure's grid — its scenarios in the order it built them — on
/// `--jobs` workers through the fleet's content-addressed servicing
/// ([`sb_fleet::run_records`]: equal content simulates once, `--cache-dir`
/// memoizes across processes), and return one result per scenario in that
/// order. A scenario that fails [`Scenario::validate`] or panics panics
/// here, named. With a cache directory the servicing accounting goes to
/// stderr as one JSON line (the tables own stdout).
pub fn run_grid(scenarios: &[Scenario], args: &crate::Args) -> Vec<RunResult> {
    let named = |i: usize| format!("run {i} ({})", scenarios[i].name);
    // `run_records` reads a run's scenario and, as the cache entry's label,
    // its key; the aggregation coordinates stay empty.
    let runs: Vec<SweepRun> = scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            if let Err(e) = scenario.validate() {
                panic!("{}: {e}", named(i));
            }
            SweepRun {
                id: ScenarioId::new(i as u32, scenario.name.clone()),
                group: String::new(),
                series: String::new(),
                rate: 0.0,
                scenario: scenario.clone(),
            }
        })
        .collect();
    let cache = cache_from_args(args);
    let (records, acct) = sb_fleet::run_records(
        "",
        &runs,
        jobs_from_args(args),
        ExecOptions::default(),
        &cache,
    );
    if cache.dir.is_some() {
        eprintln!("{}", acct.to_json_line());
    }
    let mut slots: Vec<Option<Result<RunResult, String>>> = vec![None; runs.len()];
    for rec in records {
        slots[rec.index as usize] = Some(rec.result);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let result = slot.expect("every run serviced exactly once");
            result.unwrap_or_else(|e| panic!("{} failed: {e}", named(i)))
        })
        .collect()
}

/// The per-sample fault seeds `FaultModel::sample_topologies(mesh,
/// base_seed, samples)` derives internally, exposed so figure grids can
/// reproduce the historical topology batches through serialized
/// [`sb_scenario::FaultSpec::Model`] specs (one seed per sample).
pub fn sample_seeds(base_seed: u64, samples: usize) -> Vec<u64> {
    (0..samples as u64)
        .map(|i| base_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_respects_filter() {
        let mesh = Mesh::new(6, 6);
        let (topos, attempts) = sample_topologies_filtered(mesh, FaultKind::Links, 8, 5, 42, |t| {
            !t.has_undirected_cycle() // absurd filter: rarely true at 8 faults
        });
        for t in &topos {
            assert!(!t.has_undirected_cycle());
        }
        assert!(attempts <= 40);
        // The permissive filter always fills the quota.
        let (all, attempts) =
            sample_topologies_filtered(mesh, FaultKind::Links, 8, 5, 42, |_| true);
        assert_eq!(all.len(), 5);
        assert_eq!(attempts, 5, "permissive filter accepts every attempt");
    }

    #[test]
    fn sampling_reports_shortfall_instead_of_hiding_it() {
        // A filter nothing passes: the sampler must exhaust its attempt
        // budget, return an empty set, and report how hard it tried — not
        // pretend the quota was met.
        let mesh = Mesh::new(6, 6);
        let (topos, attempts) =
            sample_topologies_filtered(mesh, FaultKind::Links, 4, 5, 42, |_| false);
        assert!(topos.is_empty());
        assert_eq!(attempts, 40, "gave up only after the full 8x budget");
    }

    #[test]
    fn sample_seeds_reproduce_sample_topologies() {
        use rand::SeedableRng;
        let mesh = Mesh::new(8, 8);
        let model = FaultModel::new(FaultKind::Links, 12);
        let batch = model.sample_topologies(mesh, 0xF16_0008 + 12, 4);
        let via_seeds: Vec<Topology> = sample_seeds(0xF16_0008 + 12, 4)
            .into_iter()
            .map(|s| model.inject(mesh, &mut rand::rngs::StdRng::seed_from_u64(s)))
            .collect();
        assert_eq!(batch, via_seeds);
    }
}
