//! Performance smoke test for the saturated regime: every router contends
//! every cycle, so candidate collection, the winner search, commit, route
//! stamping and injection-queue growth all run flat out. Runs the
//! `saturated` row of `BENCH_kernel.json` ([`sb_bench::saturated_scenario`]:
//! a live, past-the-knee up*/down* 16×16) once with a plain timing loop and
//! **fails** if the network left its regime, the allocator's work per grant
//! rose above its ceilings, or the cycle rate fell below the floor — a cheap
//! CI tripwire, not a benchmark (use
//! `bash benchmark/run.sh --workload saturated` for real numbers).
//!
//! The work ratios are the regression signal: they are counts
//! ([`sb_sim::KernelCounters`]), so they repeat exactly on any machine,
//! where a single run's cycles/sec swings by a third on a shared box. The
//! floor only catches a collapse.
//!
//! ```text
//! cargo run --release -p sb-bench --bin saturated_smoke
//! ```

/// A quarter of the rate measured when up*/down* routes became table walks
/// (53k cycles/sec on the 2-core reference box; 9.4k before, when every
/// offered packet cost two breadth-first searches). Machine variance moves
/// the rate by tens of percent; losing the route tables moves it 5×.
const FLOOR_CYCLES_PER_SEC: f64 = 13_000.0;

/// Ceilings on allocator work per grant over the whole run, warmup
/// included: router scans, scans that granted nothing, and candidate
/// packets the winner search dereferenced. Measured 2.09 / 0.94 / 2.11 with
/// wakes scheduled at the cycle their event takes effect and the winner
/// search giving up on a full downstream port after one candidate; 2.59 /
/// 1.44 / 9.06 before.
const MAX_SCANS: f64 = 2.2;
const MAX_ZERO_GRANT_SCANS: f64 = 1.0;
const MAX_CANDIDATES: f64 = 2.5;

fn main() {
    let cycles = 20_000u64;
    let mut sim = sb_bench::saturated_scenario("saturated-smoke").build();
    sim.warmup(1_000);
    let start = std::time::Instant::now();
    sim.run(cycles);
    let secs = start.elapsed().as_secs_f64();
    let rate = cycles as f64 / secs;
    let stats = sim.stats();
    println!(
        "saturated_smoke: {rate:.0} cycles/sec over {cycles} cycles ({secs:.3}s), \
         {} packets delivered, acceptance {:.3}",
        stats.delivered_packets,
        stats.acceptance()
    );
    assert!(
        sb_bench::is_live_saturated(stats),
        "not a live saturated network: {} packets delivered, acceptance {:.3} (want 0.2..=0.6)",
        stats.delivered_packets,
        stats.acceptance()
    );
    // The counters run since construction, so divide by their own grant
    // count, not by the measurement window's `stats.movements`.
    let k = sim.kernel_counters();
    let per_grant = |count: u64| count as f64 / k.grants as f64;
    let work = [
        ("router scans", k.scans, MAX_SCANS),
        ("zero-grant scans", k.zero_grant_scans, MAX_ZERO_GRANT_SCANS),
        ("candidates examined", k.candidates_examined, MAX_CANDIDATES),
    ];
    // Print all three before holding any of them to its ceiling.
    println!("work per grant over {} grants:", k.grants);
    for (name, count, ceiling) in work {
        println!("  {name}: {:.3} (ceiling {ceiling})", per_grant(count));
    }
    for (name, count, ceiling) in work {
        assert!(
            per_grant(count) <= ceiling,
            "{name} per grant {:.3} rose above the ceiling {ceiling}",
            per_grant(count)
        );
    }
    println!("floor: {FLOOR_CYCLES_PER_SEC:.0} cycles/sec");
    assert!(
        rate >= FLOOR_CYCLES_PER_SEC,
        "saturated cycle rate {rate:.0} fell below the floor {FLOOR_CYCLES_PER_SEC:.0}"
    );
    println!("ok ({:.1}x the floor)", rate / FLOOR_CYCLES_PER_SEC);
}
