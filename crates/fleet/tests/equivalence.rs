//! The fleet's headline property: for any sweep grid, the serialized
//! aggregated report is **byte-identical** under `--jobs 1`, `--jobs 4`
//! and `--jobs 8` — and, since results are content-addressed, whether a
//! point was simulated cold, written through a cache directory, or served
//! entirely warm from the store with zero simulations. Worker count,
//! completion order and cache temperature are pure wall-clock knobs —
//! they must never leak into results.
//!
//! Two layers: an explicit matrix over the knobs the property most
//! plausibly interacts with (invariant auditing on/off × arrival
//! sampler), then a property test over randomly drawn grids (mesh, faults,
//! design mix, ablation variants, loads, seeds, knobs). Every draw runs
//! the full jobs × cold/warm cross.

use proptest::prelude::*;
use sb_fleet::{run_sweep, CacheConfig, ExecOptions, SweepSpec};
use sb_scenario::ClockMode;

/// Run `spec` at jobs = 1, 4, 8 and assert the three serialized reports
/// are identical bytes; then run the cold → warm cache axis against a
/// scratch store and assert the warm report is *still* the same bytes
/// while performing zero simulations. Returns the jobs=1 JSON for extra
/// checks.
fn assert_jobs_equivalent(spec: &SweepSpec, opts: ExecOptions) -> String {
    let reference = run_sweep(spec, 1, opts, &CacheConfig::none())
        .expect("sequential sweep")
        .0
        .to_json()
        .expect("serialize");
    for jobs in [4usize, 8] {
        let report = run_sweep(spec, jobs, opts, &CacheConfig::none())
            .expect("parallel sweep")
            .0
            .to_json()
            .expect("serialize");
        assert_eq!(
            report, reference,
            "sweep `{}` differs between --jobs 1 and --jobs {jobs}",
            spec.name
        );
    }

    // Cold-vs-warm axis: populating the store must not change the report,
    // and a warm re-run must reproduce it byte-for-byte without simulating
    // anything.
    let safe: String = spec
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("equiv-{safe}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheConfig::dir(&dir);
    let (cold, ca) = run_sweep(spec, 4, opts, &cache).expect("cold cached sweep");
    assert_eq!(
        cold.to_json().expect("serialize"),
        reference,
        "sweep `{}` differs between uncached and cold-cache runs",
        spec.name
    );
    assert_eq!(
        ca.simulated, ca.unique_scenarios,
        "a cold store simulates everything"
    );
    let (warm, wa) = run_sweep(spec, 8, opts, &cache).expect("warm cached sweep");
    assert_eq!(
        wa.simulated, 0,
        "sweep `{}`: a warm store must not simulate",
        spec.name
    );
    assert_eq!(wa.disk_hits, wa.unique_scenarios);
    assert_eq!(
        warm.to_json().expect("serialize"),
        reference,
        "sweep `{}` differs between cold and warm cache runs",
        spec.name
    );
    let _ = std::fs::remove_dir_all(&dir);
    reference
}

/// A small grid that still exercises every aggregation path: two designs
/// (one with an ablation variant), a pristine and a faulted topology
/// point, a two-rung load ladder, two seeds — 24 runs.
fn base_grid(name: &str) -> SweepSpec {
    let mut spec = SweepSpec::new(name);
    spec.meshes = vec!["4x4".into()];
    spec.link_faults = vec![0, 4];
    spec.topo_seeds = vec![11];
    spec.designs = vec!["sp-tree".into(), "static-bubble".into()];
    spec.sb_variants = vec!["full".into(), "no-forking".into()];
    spec.rates = vec![0.04, 0.08];
    spec.seeds = vec![3, 4];
    spec.warmup = 100;
    spec.cycles = 400;
    spec
}

#[test]
fn jobs_equivalence_across_audit_and_clock_matrix() {
    for (audit_every, clock) in [
        (0u64, ClockMode::Step),
        (0, ClockMode::Leap),
        (64, ClockMode::Step),
        (64, ClockMode::Leap),
    ] {
        let mut spec = base_grid(&format!("matrix-a{audit_every}-{clock:?}"));
        spec.audit_every = audit_every;
        spec.clock = clock;
        let json = assert_jobs_equivalent(&spec, ExecOptions::default());
        assert!(json.contains("\"points\""), "report must be populated");
    }
}

#[test]
fn jobs_equivalence_with_drain_and_forensics() {
    // The executor's extra phases (injection halt, drain probe, forensics
    // capture) must not break the property either.
    let mut spec = base_grid("drain-forensics");
    spec.rates = vec![0.06];
    let opts = ExecOptions {
        forensics: true,
        drain_budget: Some(5_000),
    };
    let json = assert_jobs_equivalent(&spec, opts);
    assert!(
        json.contains("\"drained\": true"),
        "drain outcomes recorded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random grids: mesh shape, fault count, design mix, ablation
    /// variants, load ladder, seeds, audit cadence and arrival sampler all
    /// drawn at random; the three-way byte equality must hold for every
    /// draw.
    #[test]
    fn jobs_equivalence_for_random_grids(
        mesh_sel in 0usize..3,
        faults in 0usize..5,
        axes_sel in 0usize..3,
        rate_centi in 3u64..9,
        seed in any::<u64>(),
        knob_sel in 0usize..4,
    ) {
        let mut spec = SweepSpec::new(format!("prop-{mesh_sel}-{faults}-{axes_sel}-{rate_centi}-{seed:x}-{knob_sel}"));
        spec.meshes = vec![["4x4", "5x4", "4x5"][mesh_sel].into()];
        spec.link_faults = if faults == 0 { vec![0] } else { vec![0, faults] };
        spec.topo_seeds = vec![seed % 1000];
        let (designs, variants): (&[&str], &[&str]) = match axes_sel {
            0 => (&["static-bubble"], &["full", "neither"]),
            1 => (&["sp-tree", "static-bubble"], &["full"]),
            _ => (&["escape-vc", "static-bubble"], &["no-forking", "no-check-probe"]),
        };
        spec.designs = designs.iter().map(|s| s.to_string()).collect();
        spec.sb_variants = variants.iter().map(|s| s.to_string()).collect();
        spec.rates = vec![rate_centi as f64 / 100.0, (rate_centi + 3) as f64 / 100.0];
        spec.seeds = vec![seed % 97, (seed % 97) + 1];
        spec.warmup = 50 + (seed % 100);
        spec.cycles = 200 + (seed % 200);
        spec.audit_every = [0, 0, 48, 96][knob_sel];
        spec.clock = if knob_sel % 2 == 0 { ClockMode::Step } else { ClockMode::Leap };

        let json = assert_jobs_equivalent(&spec, ExecOptions::default());
        prop_assert!(json.contains("\"saturation\""));
    }
}
