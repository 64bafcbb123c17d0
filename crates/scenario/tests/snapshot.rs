//! Snapshot round-trip determinism: resuming a run from an
//! [`sb_sim::EngineSnapshot`] must be indistinguishable from never having
//! stopped. This is the contract the deadlock-bisect harness
//! (`sbsim --bisect`, DESIGN.md §12) stands on — a replayed window is only
//! forensic evidence if it is the *same* window.
//!
//! Pinned three ways, property-tested across designs × arrival samplers ×
//! split points:
//!
//!   A. uninterrupted: build, run the full window;
//!   B. observed:      build, run to the split, snapshot, keep running —
//!                     taking the snapshot must not perturb the run;
//!   C. resumed:       build fresh, restore the snapshot, run the rest.
//!
//! All three must agree byte-for-byte on the JSON-serialized [`Stats`]
//! and on the forensics of a subsequent deadlock probe.

use proptest::prelude::*;
use sb_scenario::{ClockMode, Design, FaultSpec, Scenario, SimRunner};
use sb_sim::{json, Stats};
use sb_topology::FaultKind;

const TOTAL_CYCLES: u64 = 2_000;

fn scenario(design: Design, clock: ClockMode, seed: u64) -> Scenario {
    Scenario::new("snapshot-roundtrip", design)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 10,
            seed: 0xF00D,
        })
        .with_rate(0.2)
        .with_tdd(20)
        .with_warmup(0)
        .with_cycles(TOTAL_CYCLES)
        .with_seed(seed)
        .with_clock(clock)
}

/// Run the remaining window and distill everything observable: the JSON
/// Stats plus the outcome (time and rendered report) of a deadlock probe
/// started from the final state.
fn finish(runner: &mut dyn SimRunner, cycles: u64) -> (String, Option<u64>, String) {
    runner.run(cycles);
    let stats = json::to_json_string(runner.stats()).expect("Stats serialize");
    let hit = runner.run_until_deadlock(1_000, 7);
    let report = runner
        .take_forensics()
        .map(|r| r.to_string())
        .unwrap_or_else(|| "clean".to_string());
    (stats, hit, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    fn resume_is_byte_identical_to_uninterrupted(
        design_ix in 0usize..Design::ALL.len(),
        leap in any::<bool>(),
        seed in 0u64..64,
        split in 1u64..TOTAL_CYCLES,
    ) {
        let design = Design::ALL[design_ix];
        let clock = if leap { ClockMode::Leap } else { ClockMode::Step };
        let spec = scenario(design, clock, seed);
        let topo = spec.topology();

        // A: the reference, never interrupted.
        let mut a = spec.build_on(&topo);
        let ra = finish(a.as_mut(), TOTAL_CYCLES);

        // B: same run, but a snapshot is captured mid-flight.
        let mut b = spec.build_on(&topo);
        b.run(split);
        let snap = b.snapshot().expect("snapshot capture");
        prop_assert_eq!(snap.time, split);
        let rb = finish(b.as_mut(), TOTAL_CYCLES - split);

        // C: a fresh engine rewound onto the snapshot.
        let mut c = spec.build_on(&topo);
        c.restore(&snap).expect("snapshot restore");
        prop_assert_eq!(c.time(), split);
        let rc = finish(c.as_mut(), TOTAL_CYCLES - split);

        prop_assert_eq!(&ra, &rb,
            "{:?}/{:?} seed {} split {}: observing a snapshot perturbed the run",
            design, clock, seed, split);
        prop_assert_eq!(&ra, &rc,
            "{:?}/{:?} seed {} split {}: resume diverged from uninterrupted",
            design, clock, seed, split);

        // The snapshot itself round-trips through serde unchanged.
        let json_snap = json::to_json_string(&snap).expect("snapshot serialize");
        let reparsed: sb_sim::EngineSnapshot =
            json::from_json_str(&json_snap).expect("snapshot deserialize");
        let mut d = spec.build_on(&topo);
        d.restore(&reparsed).expect("restore reparsed snapshot");
        let rd = finish(d.as_mut(), TOTAL_CYCLES - split);
        prop_assert_eq!(&ra, &rd,
            "{:?}/{:?} seed {} split {}: serde round-trip changed the snapshot",
            design, clock, seed, split);
    }
}

#[test]
fn restore_rejects_mismatched_config() {
    let spec = scenario(Design::StaticBubble, ClockMode::Step, 1);
    let topo = spec.topology();
    let mut a = spec.build_on(&topo);
    a.run(100);
    let snap = a.snapshot().unwrap();

    let other =
        scenario(Design::StaticBubble, ClockMode::Step, 1).with_config(sb_sim::SimConfig::tiny());
    let mut b = other.build_on(&other.topology());
    assert!(
        b.restore(&snap).is_err(),
        "restoring across differing configs must refuse, not corrupt"
    );
}

#[test]
fn stats_are_part_of_the_snapshot() {
    let spec = scenario(Design::StaticBubble, ClockMode::Step, 3);
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
