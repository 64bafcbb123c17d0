//! Worker panic isolation, end to end: a scenario that panics during
//! construction (here: a config the engine rejects by `assert!`) is
//! reported as a failed `ScenarioId` with the panic payload, while every
//! other run of the sweep completes and aggregates normally — one bad grid
//! point cannot take down an hours-long sweep.

use sb_fleet::{aggregate, run_records, CacheConfig, ExecOptions, SweepSpec};

fn small_grid() -> SweepSpec {
    let mut spec = SweepSpec::new("panic-isolation");
    spec.meshes = vec!["4x4".into()];
    spec.designs = vec!["static-bubble".into()];
    spec.rates = vec![0.05];
    spec.seeds = vec![1, 2, 3, 4, 5, 6];
    spec.warmup = 50;
    spec.cycles = 300;
    spec
}

#[test]
fn panicking_scenario_is_reported_failed_and_the_sweep_completes() {
    let spec = small_grid();
    for jobs in [1, 4] {
        let mut runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 6);
        // Sabotage one run: 9 vnets exceeds the engine's MAX_VNETS = 8 and
        // trips a constructor assert inside the worker.
        runs[2].scenario.config.vnets = 9;

        let (records, _) = run_records(
            &spec.name,
            &runs,
            jobs,
            ExecOptions::default(),
            &CacheConfig::none(),
        );
        assert_eq!(records.len(), 6, "jobs={jobs}: the sweep must complete");

        let report = aggregate(&spec.name, spec.accept, &runs, records);
        assert_eq!(report.completed, 5);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].id.index, 2);
        assert!(
            report.failed[0].error.contains("vnets"),
            "jobs={jobs}: payload should carry the assert message, got: {}",
            report.failed[0].error
        );
        // The survivors are genuine simulations, not zero stubs.
        for row in report.scenarios.iter().filter(|r| r.ok) {
            assert!(row.stats.as_ref().unwrap().delivered_packets > 0);
        }
        // The single group shows the erosion.
        assert_eq!(report.shortfall.len(), 1);
        assert_eq!(report.shortfall[0].expected, 6);
        assert_eq!(report.shortfall[0].completed, 5);
    }
}
