//! Regression: simulations are deterministic functions of the scenario.
//! Same spec, same seed → bit-identical [`sb_sim::Stats`], for all three
//! paper designs on a faulted 8×8 mesh, with the worklist kernel and with
//! the reference full sweep.

use sb_scenario::{Design, FaultSpec, Scenario};
use sb_sim::Stats;
use sb_topology::FaultKind;

fn faulted(design: Design, seed: u64) -> Scenario {
    Scenario::new("determinism", design)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 10,
            seed: 0xF00D,
        })
        .with_rate(0.15)
        .with_warmup(500)
        .with_cycles(3_000)
        .with_seed(seed)
}

fn stats_of(scenario: &Scenario, full_scan: bool) -> Stats {
    let topo = scenario.topology();
    let mut runner = scenario.build_on(&topo);
    runner.scan_all_routers(full_scan);
    runner.warmup(scenario.warmup);
    runner.run(scenario.cycles);
    runner.stats().clone()
}

#[test]
fn same_seed_same_stats_all_designs() {
    for design in Design::ALL {
        let scenario = faulted(design, 11);
        let a = stats_of(&scenario, false);
        let b = stats_of(&scenario, false);
        assert_eq!(a, b, "{design:?} must be deterministic");
        assert!(a.delivered_packets > 0, "{design:?} delivered nothing");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the determinism test has teeth: the seed actually
    // steers the injection process.
    let a = faulted(Design::StaticBubble, 11).run().stats;
    let b = faulted(Design::StaticBubble, 12).run().stats;
    assert_ne!(a, b);
}

#[test]
fn worklist_kernel_is_invisible_in_scenario_runs() {
    for design in Design::ALL {
        let scenario = faulted(design, 7);
        let active = stats_of(&scenario, false);
        let reference = stats_of(&scenario, true);
        assert_eq!(active, reference, "{design:?}: worklist changed results");
    }
}

#[test]
fn run_twice_through_serde_is_identical() {
    let scenario = faulted(Design::EscapeVc, 23);
    let direct = scenario.run().stats;
    let reloaded = Scenario::from_json(&scenario.to_json().unwrap())
        .unwrap()
        .run()
        .stats;
    assert_eq!(direct, reloaded);
}
