//! Regression pins for the once-unrecoverable wedge of the paper pipeline.
//!
//! The full-stack scenario (8×8 mesh, 12 link faults sampled with topology
//! seed 99, Static Bubble at t_DD = 34 under uniform 0.18 load) recovers
//! and drains for most simulation seeds, but two — seeds 2 and 5 of 1..=12
//! — used to wedge in a deadlock the probe/latch protocol never resolved.
//!
//! The deadlock-bisect harness (`sbsim --bisect`; see `DESIGN.md` §12)
//! localized the root cause: **phase-locked probe collisions**. The
//! per-node detection stagger is `id % 7`, applied to the *base* t_DD; the
//! exponential backoff left-shifts the whole threshold, so two detectors
//! whose ids fall in the same mod-7 class back off onto bit-identical
//! retry periods. In the wedged states, the wait-for cycle's highest-id
//! detector forked its probe into an output that a same-period, higher-id
//! detector's wandering probe was crossing at that exact cycle — and the
//! higher sender wins output arbitration, every round, forever. The
//! winner's walk never closed at its own origin (it died at turn
//! capacity), so nothing ever latched: every FSM parked in `SDd`.
//!
//! The fix (`SbOptions::probe_desync`, default on) adds a node-unique term
//! to the retry period once backoff engages, making every pair of periods
//! distinct; collision phases drift and the cycle's own detector
//! eventually gets a clean round. The first test pins the fixed behavior;
//! the second turns the fix off and pins the original wedge signature so
//! the root cause stays demonstrable in-tree.
//!
//! `#[ignore]`d because each drain probe can burn 200k cycles; run with
//! `cargo test --release -p sb-fleet --test wedge_seed -- --ignored`.

use sb_fleet::{execute_one, ExecOptions};
use sb_scenario::{Design, FaultSpec, Scenario, TrafficSpec};
use sb_sim::SimConfig;
use sb_topology::FaultKind;
use static_bubble::SbOptions;

/// Simulation seeds of the pipeline scenario that wedged unrecoverably
/// before probe-retry desynchronization (found by sweeping seeds 1..=12;
/// see the module docs).
const ONCE_WEDGED_SEEDS: [u64; 2] = [2, 5];

/// A seed adjacent to the once-wedged ones that recovered and drained all
/// along — the control showing the pin is about the seed, not the scenario.
const DRAINING_SEED: u64 = 1;

/// The `paper_pipeline_end_to_end` scenario from `tests/full_stack.rs`,
/// expressed through the scenario layer (same topology seed, same load,
/// same window), parameterized over the simulation seed.
fn pipeline_scenario(seed: u64) -> Scenario {
    Scenario::new(format!("pipeline-wedge-s{seed}"), Design::StaticBubble)
        .with_mesh(8, 8)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 12,
            seed: 99,
        })
        .with_traffic(TrafficSpec::Uniform {
            rate: 0.18,
            single_vnet: true,
        })
        .with_config(SimConfig::single_vnet())
        .with_tdd(34)
        .with_warmup(0)
        .with_cycles(4_000)
        .with_seed(seed)
}

const OPTS: ExecOptions = ExecOptions {
    forensics: true,
    drain_budget: Some(200_000),
};

#[test]
#[ignore = "200k-cycle drain probes; run with --ignored --release"]
fn once_wedged_seeds_recover_and_drain_with_desync() {
    for seed in ONCE_WEDGED_SEEDS {
        let res = execute_one(&pipeline_scenario(seed), OPTS);
        assert_eq!(
            res.drained,
            Some(true),
            "seed {seed} wedged with probe desync on — the fix regressed"
        );
        assert!(!res.deadlocked, "seed {seed}: drained but still deadlocked");
        assert!(
            res.forensics.is_none(),
            "seed {seed}: no forensics for a clean drain"
        );
        assert!(
            res.stats.deadlocks_recovered > 0,
            "seed {seed}: the drain must have gone through actual recoveries"
        );
    }
}

#[test]
#[ignore = "200k-cycle drain probes; run with --ignored --release"]
fn desync_ablation_reproduces_the_phase_locked_wedge() {
    for seed in ONCE_WEDGED_SEEDS {
        let scenario = pipeline_scenario(seed).with_sb_options(SbOptions {
            probe_desync: false,
            ..SbOptions::default()
        });
        let res = execute_one(&scenario, OPTS);
        assert_eq!(
            res.drained,
            Some(false),
            "seed {seed} drained without desync — the wedge set changed; re-pin"
        );
        assert!(res.deadlocked, "seed {seed}: undrained but not deadlocked");
        assert!(
            res.stats.deadlocks_recovered > 0,
            "seed {seed}: the protocol should recover several deadlocks before the terminal one"
        );

        let f = res
            .forensics
            .expect("deadlocked run must capture forensics");
        assert!(
            f.deadlocked,
            "seed {seed}: oracle verdict missing from report"
        );
        assert!(
            !f.wait_cycle.is_empty(),
            "seed {seed}: a wedged network must exhibit a concrete wait-for cycle"
        );

        // The signature: detectors saw the deadlock (probes in flight)...
        let fsm_lines: Vec<&String> = f
            .plugin_lines
            .iter()
            .filter(|l| l.starts_with("fsm "))
            .collect();
        assert!(
            !fsm_lines.is_empty(),
            "seed {seed}: no FSM state in forensics"
        );
        assert!(
            f.plugin_lines.iter().any(|l| l.contains("Probe")),
            "seed {seed}: no probe traffic in the special-message history"
        );
        // ...but the latch-capable probe lost arbitration every round:
        // every FSM is still in detection, none latched into recovery
        // (SDisable/SSbActive/SCheckProbe/SEnable).
        for line in &fsm_lines {
            assert!(
                line.contains("SDd"),
                "seed {seed}: FSM left detection — the wedge signature changed: {line}"
            );
        }
    }
}

#[test]
#[ignore = "200k-cycle drain probe; run with --ignored --release"]
fn neighbouring_seed_recovers_and_drains() {
    let res = execute_one(&pipeline_scenario(DRAINING_SEED), OPTS);
    assert_eq!(res.drained, Some(true), "seed {DRAINING_SEED} must drain");
    assert!(!res.deadlocked);
    assert!(res.forensics.is_none(), "no forensics for a clean drain");
    assert!(res.stats.deadlocks_recovered > 0);
}
