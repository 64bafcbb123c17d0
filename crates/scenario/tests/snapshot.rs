//! Snapshot restore refuses what it cannot resume and rewinds what it can.
//! (Resuming from a snapshot is indistinguishable from never having
//! stopped: the determinism harness, `tests/contracts.rs`.)

use sb_scenario::{Design, FaultSpec, Scenario};
use sb_sim::Stats;
use sb_topology::FaultKind;

fn scenario(seed: u64) -> Scenario {
    Scenario::new("snapshot-roundtrip", Design::StaticBubble)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 10,
            seed: 0xF00D,
        })
        .with_rate(0.2)
        .with_tdd(20)
        .with_seed(seed)
}

#[test]
fn restore_rejects_mismatched_config() {
    let spec = scenario(1);
    let topo = spec.topology();
    let mut a = spec.build_on(&topo);
    a.run(100);
    let snap = a.snapshot().unwrap();

    let other = scenario(1).with_config(sb_sim::SimConfig::tiny());
    let mut b = other.build_on(&other.topology());
    assert!(
        b.restore(&snap).is_err(),
        "restoring across differing configs must refuse, not corrupt"
    );
}

#[test]
fn stats_are_part_of_the_snapshot() {
    let spec = scenario(3);
    let topo = spec.topology();
    let mut r = spec.build_on(&topo);
    r.run(1_000);
    let mid = r.snapshot().expect("snapshot capture");
    r.run(250);

    // A restored engine reports the mid-run statistics, not the final ones.
    let end_stats: Stats = r.stats().clone();
    r.restore(&mid).unwrap();
    assert_eq!(r.time(), 1_000);
    assert_ne!(r.stats(), &end_stats, "restore must rewind statistics too");
}
