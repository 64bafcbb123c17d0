//! Performance smoke test for the saturated regime: every router contends
//! every cycle, so candidate collection, the winner search, commit, route
//! stamping and injection-queue growth all run flat out. Runs the
//! `saturated` row of `BENCH_kernel.json` ([`sb_bench::saturated_scenario`]:
//! a live, past-the-knee up*/down* 16×16) once with a plain timing loop and
//! **fails** if the network left its regime or the cycle rate fell below
//! the floor — a cheap CI tripwire, not a benchmark (use
//! `bash benchmark/run.sh --workload saturated` for real numbers).
//!
//! ```text
//! cargo run --release -p sb-bench --bin saturated_smoke
//! ```

/// A quarter of the rate measured when up*/down* routes became table walks
/// (53k cycles/sec on the 2-core reference box; 9.4k before, when every
/// offered packet cost two breadth-first searches). Machine variance moves
/// the rate by tens of percent; losing the route tables moves it 5×.
const FLOOR_CYCLES_PER_SEC: f64 = 13_000.0;

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
    println!("floor: {FLOOR_CYCLES_PER_SEC:.0} cycles/sec");
    assert!(
        rate >= FLOOR_CYCLES_PER_SEC,
        "saturated cycle rate {rate:.0} fell below the floor {FLOOR_CYCLES_PER_SEC:.0}"
    );
    println!("ok ({:.1}x the floor)", rate / FLOOR_CYCLES_PER_SEC);
}
