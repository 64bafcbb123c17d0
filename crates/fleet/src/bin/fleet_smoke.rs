//! CI smoke test for the fleet: run a small fig12-shaped grid (8×8 mesh,
//! link faults, spanning-tree baseline vs Static Bubble) sequentially and
//! in parallel, assert the two reports are byte-identical and nonempty,
//! and — on runners with ≥ 4 cores — assert the parallel run is at least
//! 2× faster. Then run the same grid cold and warm through a scratch
//! cache directory and assert the warm re-run performs **zero**
//! simulations while reproducing the same report bytes — the determinism
//! dividend, timed. Prints a one-line JSON timing record for the
//! benchmark log.
//!
//! Exit code 0 = all assertions held.

use std::time::Instant;

use sb_fleet::{run_sweep, CacheConfig, ExecOptions, SweepSpec};

fn main() {
    let mut spec = SweepSpec::new("fleet-smoke-fig12");
    spec.meshes = vec!["8x8".into()];
    spec.link_faults = vec![0, 8];
    spec.topo_seeds = vec![0x00AB_1A7E];
    spec.designs = vec!["sp-tree".into(), "static-bubble".into()];
    spec.rates = vec![0.05, 0.10];
    spec.seeds = vec![1, 2];
    spec.warmup = 500;
    spec.cycles = 3_000;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = cores.clamp(2, 4);

    let opts = ExecOptions::default();
    let uncached = CacheConfig::none();

    let t0 = Instant::now();
    let (seq, _) = run_sweep(&spec, 1, opts, &uncached).expect("sequential sweep");
    let seq_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (par, _) = run_sweep(&spec, jobs, opts, &uncached).expect("parallel sweep");
    let par_secs = t1.elapsed().as_secs_f64();

    let seq_json = seq.to_json().expect("serialize");
    let par_json = par.to_json().expect("serialize");
    assert_eq!(
        seq_json, par_json,
        "fleet output must be byte-identical for --jobs 1 vs --jobs {jobs}"
    );
    assert!(seq.total_runs > 0, "smoke grid expanded to zero runs");
    assert_eq!(
        seq.completed, seq.total_runs,
        "smoke runs failed: {:?}",
        seq.failed
    );
    assert!(
        !seq.points.is_empty() && !seq.saturation.is_empty(),
        "aggregated report is empty"
    );
    assert!(
        seq.points.iter().any(|p| p.merged.delivered_packets > 0),
        "no traffic delivered anywhere in the smoke grid"
    );

    // Cache axis: cold populate, then a warm re-run that must simulate
    // nothing and still emit identical bytes.
    let cache_dir = std::env::temp_dir().join(format!("sb-fleet-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = CacheConfig::dir(&cache_dir);
    let (cold, cold_acct) = run_sweep(&spec, jobs, opts, &cache).expect("cold cached sweep");
    assert_eq!(
        cold.to_json().expect("serialize"),
        seq_json,
        "populating the cache must not change the report"
    );
    assert_eq!(cold_acct.simulated, cold_acct.unique_scenarios);
    let t2 = Instant::now();
    let (warm, warm_acct) = run_sweep(&spec, jobs, opts, &cache).expect("warm cached sweep");
    let warm_secs = t2.elapsed().as_secs_f64();
    assert_eq!(warm_acct.simulated, 0, "warm cache must not simulate");
    assert_eq!(warm_acct.disk_hits, warm_acct.unique_scenarios);
    assert_eq!(
        warm.to_json().expect("serialize"),
        seq_json,
        "warm report must be byte-identical to the cold one"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    let speedup = seq_secs / par_secs.max(1e-9);
    let warm_speedup = seq_secs / warm_secs.max(1e-9);
    println!(
        "{{\"bench\":\"fleet\",\"runs\":{},\"jobs\":{},\"cores\":{},\"seq_secs\":{:.3},\"par_secs\":{:.3},\"speedup\":{:.2},\"warm_secs\":{:.3},\"warm_speedup\":{:.1},\"warm_simulated\":{}}}",
        seq.total_runs,
        jobs,
        cores,
        seq_secs,
        par_secs,
        speedup,
        warm_secs,
        warm_speedup,
        warm_acct.simulated
    );

    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x speedup at --jobs {jobs} on a {cores}-core runner, got {speedup:.2}x"
        );
    } else {
        eprintln!("fleet_smoke: only {cores} core(s) available, skipping the 2x speedup assertion");
    }
}
