//! The saturated regime's work counts: every router contends every cycle,
//! so candidate collection, the winner search, commit, route stamping and
//! injection-queue growth all run flat out. Runs
//! [`sb_bench::saturated_scenario`] (a live, past-the-knee up*/down* 16×16,
//! the `saturated` row of `BENCH_kernel.json`) and fails if the network
//! left its regime or the allocator's work per grant rose above its
//! ceilings.
//!
//! The ratios are counts ([`sb_sim::KernelCounters`]): they read the same
//! in debug and release and on any machine, so a change to a wake rule or
//! to the winner search shows here before it shows in any timing. Timing
//! itself has one harness, `bash benchmark/run.sh --workload saturated`.

/// Ceilings on allocator work per grant over the whole run, warmup
/// included: router scans, scans that granted nothing, and candidate
/// packets the winner search dereferenced, each 5 % above its measured
/// value. Measured 1.832 / 0.879 / 2.114 once a router is re-scanned after
/// a grant only if it can still compete and a take wakes only a feeder
/// holding a packet; 2.095 / 0.938 / 2.114 before that, with wakes
/// scheduled at the cycle their event takes effect and the winner search
/// giving up on a full downstream port after one candidate; 2.59 / 1.44 /
/// 9.06 before those.
const MAX_SCANS: f64 = 1.93;
const MAX_ZERO_GRANT_SCANS: f64 = 0.93;
const MAX_CANDIDATES: f64 = 2.22;

#[test]
fn saturated_regime_holds_and_work_per_grant_stays_under_its_ceilings() {
    let mut sim = sb_bench::saturated_scenario("saturated").build();
    sim.warmup(1_000);
    sim.run(20_000);
    let stats = sim.stats();
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
    let report: Vec<String> = work
        .iter()
        .map(|(name, count, ceiling)| {
            format!("{name} {:.3} (ceiling {ceiling})", per_grant(*count))
        })
        .collect();
    for (name, count, ceiling) in work {
        assert!(
            per_grant(count) <= ceiling,
            "{name} per grant rose above its ceiling: {report:?}"
        );
    }
}
