//! Perf-floor smoke test for the deterministic parallel tick at the
//! paper's 256-core scale point: an unprotected 16×16 mesh driven at 0.6
//! flits/node/cycle, run at threads=1 and threads=4. (That mesh fills and
//! wedges during the warmup and delivers nothing afterwards — see the
//! finding in `benchmark/README.md` — so the timed window is the tick on a
//! full, blocked network; whether that is the right load for this check is
//! ROADMAP item 2(c)'s question.)
//!
//! Three checks, in increasing strictness:
//! 1. always — both runs produce bit-identical [`sb_sim::Stats`] (the
//!    parallel tick's core contract, cheap to re-verify here);
//! 2. always — the sequential rate stays above the rate the pre-SoA layout
//!    reached on this same run;
//! 3. on runners with >= 4 cores — threads=4 is at least 1.5× faster than
//!    threads=1. On fewer cores (the committed BENCH numbers come from a
//!    1-core box, where the pre-pass only adds handoff cost) the speedup
//!    assertion is skipped with a note, exactly as `fleet_smoke` does.
//!
//! ```text
//! cargo run --release -p sb-bench --bin scale256_smoke
//! ```

use sb_scenario::{Design, Scenario, TrafficSpec};

/// The rate of the nested-`Vec` engine on this run (cycles/sec on the
/// reference box): threads=1 runs the sequential path and must not have
/// been slowed by the parallel-tick plumbing.
const FLOOR_CYCLES_PER_SEC: f64 = 33_661.0;

/// Required threads=4 over threads=1 speedup on a >= 4-core runner.
const MIN_SPEEDUP: f64 = 1.5;

fn timed_run(threads: usize, cycles: u64) -> (sb_sim::Stats, f64) {
    let mut sim = Scenario::new("scale256-smoke", Design::Unprotected)
        .with_mesh(16, 16)
        .with_traffic(TrafficSpec::Uniform {
            rate: 0.6,
            single_vnet: true,
        })
        .with_seed(5)
        .with_threads(threads)
        .build();
    sim.warmup(1_000);
    let start = std::time::Instant::now();
    sim.run(cycles);
    (sim.stats().clone(), start.elapsed().as_secs_f64())
}

fn main() {
    let cycles = 20_000u64;
    let (seq_stats, seq_secs) = timed_run(1, cycles);
    let (par_stats, par_secs) = timed_run(4, cycles);
    assert_eq!(
        seq_stats, par_stats,
        "threads=4 diverged from threads=1 — the parallel tick broke bit-identity"
    );

    let seq_rate = cycles as f64 / seq_secs;
    let par_rate = cycles as f64 / par_secs.max(1e-9);
    let speedup = seq_secs / par_secs.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scale256_smoke: threads=1 {seq_rate:.0} cy/s, threads=4 {par_rate:.0} cy/s \
         ({speedup:.2}x) over {cycles} cycles on {cores} core(s)"
    );
    assert!(
        seq_rate >= FLOOR_CYCLES_PER_SEC,
        "sequential rate {seq_rate:.0} fell below the pre-SoA floor \
         {FLOOR_CYCLES_PER_SEC:.0}"
    );
    if cores >= 4 {
        assert!(
            speedup >= MIN_SPEEDUP,
            "expected >= {MIN_SPEEDUP}x speedup at threads=4 on a {cores}-core runner, \
             got {speedup:.2}x"
        );
        println!("ok ({speedup:.2}x >= {MIN_SPEEDUP}x on {cores} cores)");
    } else {
        println!(
            "scale256_smoke: only {cores} core(s) available, \
             skipping the {MIN_SPEEDUP}x speedup assertion"
        );
    }
}
