//! Byte-level pin of everything the codec stack writes: cache keys,
//! snapshots and reports must not change when the codec does.
//!
//! The fixtures under `tests/golden/` were generated at the commit before
//! the serde visitor layer was removed (PR 12). Each test asserts that the
//! text written today is byte-identical to the fixture and that the fixture
//! parses back to the value it was written from (the write-only engine
//! snapshot: to the tree it was written from).

use static_bubble_repro::fleet::{
    cache, run_sweep, CacheConfig, ExecOptions, SweepReport, SweepSpec,
};
use static_bubble_repro::scenario::{json, to_value, Scenario};
use static_bubble_repro::sim::{EngineSnapshot, Stats};

fn repo_file(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Assert `text` equals the fixture byte for byte; hands the fixture back.
fn assert_golden(name: &str, text: &str) -> String {
    let want = repo_file(&format!("tests/golden/{name}"));
    assert!(
        text == want,
        "{name}: text written today differs from the fixture"
    );
    want
}

fn example_scenario() -> Scenario {
    Scenario::from_toml(&repo_file("examples/deadlock_recovery.toml")).expect("example parses")
}

fn example_grid() -> SweepSpec {
    SweepSpec::from_toml(&repo_file("examples/sweeps/fig12_shaped.toml")).expect("grid parses")
}

/// A grid small enough to simulate inside tier-1: two designs on a faulty
/// 4x4 mesh, 300 measured cycles each.
fn short_grid() -> SweepSpec {
    let mut spec = SweepSpec::new("golden-short");
    spec.meshes = vec!["4x4".into()];
    spec.link_faults = vec![0, 3];
    spec.designs = vec!["escape-vc".into(), "static-bubble".into()];
    spec.rates = vec![0.05, 0.2];
    spec.warmup = 100;
    spec.cycles = 300;
    spec
}

/// A Static Bubble run caught mid-flight, loaded hard enough that packets
/// are resident and recovery FSMs have left their idle state.
fn mid_run_snapshot() -> EngineSnapshot {
    let mut spec = example_scenario();
    spec.width = 4;
    spec.height = 4;
    spec.faults = static_bubble_repro::scenario::FaultSpec::Model {
        kind: static_bubble_repro::topology::FaultKind::Links,
        count: 4,
        seed: 7,
    };
    let mut runner = spec.build();
    runner.run(700);
    runner.snapshot().expect("snapshot capture")
}

#[test]
fn scenario_text_is_byte_identical() {
    let scenario = example_scenario();
    let json_text = assert_golden("scenario.json", &scenario.to_json().unwrap());
    let toml_text = assert_golden("scenario.toml", &scenario.to_toml().unwrap());
    assert_eq!(Scenario::from_json(&json_text), Ok(scenario.clone()));
    assert_eq!(Scenario::from_toml(&toml_text), Ok(scenario));
}

#[test]
fn sweep_spec_text_is_byte_identical() {
    let grid = example_grid();
    let json_text = assert_golden("sweep_spec.json", &grid.to_json().unwrap());
    let toml_text = assert_golden("sweep_spec.toml", &grid.to_toml().unwrap());
    assert_eq!(SweepSpec::from_json(&json_text), Ok(grid.clone()));
    assert_eq!(SweepSpec::from_toml(&toml_text), Ok(grid));
}

#[test]
fn stats_shape_is_byte_identical() {
    let text = json::to_json_string(&Stats::default()).unwrap();
    let text = assert_golden("stats_default.json", &text);
    assert_eq!(json::from_json_str::<Stats>(&text), Ok(Stats::default()));
}

#[test]
fn sweep_report_is_byte_identical() {
    let (report, _) = run_sweep(
        &short_grid(),
        1,
        ExecOptions::default(),
        &CacheConfig::none(),
    )
    .expect("short grid runs");
    let text = assert_golden("sweep_report.json", &report.to_json().unwrap());
    assert_eq!(SweepReport::from_json(&text), Ok(report));
}

#[test]
fn engine_snapshot_is_byte_identical() {
    let snap = mid_run_snapshot();
    let text = assert_golden("engine_snapshot.json", &snap.to_json().unwrap());
    // A snapshot is write-only: the fixture parses to the tree it was
    // written from.
    assert_eq!(json::parse(&text).unwrap(), to_value(&snap).unwrap());
    // The nested plugin/traffic blobs are JSON documents in their own right.
    assert!(json::parse(&snap.plugin).is_ok());
    assert!(json::parse(&snap.traffic).is_ok());
}

/// A snapshot holds what the network holds. Scheduler state (derived from
/// it) and how the run is driven (scan mode, audit cadence) are not on the
/// wire, so neither can become part of the format again unseen.
#[test]
fn engine_snapshot_holds_architectural_state_only() {
    use static_bubble_repro::sim::value::Value;
    let text = repo_file("tests/golden/engine_snapshot.json");
    let Value::Map(top) = json::parse(&text).unwrap() else {
        panic!("a snapshot is an object");
    };
    let keys = |entries: &[(String, Value)]| -> Vec<String> {
        entries.iter().map(|(key, _)| key.clone()).collect()
    };
    let top_keys = keys(&top);
    for driven in ["clock", "full_scan", "audit_every", "audit_countdown"] {
        assert!(
            !top_keys.iter().any(|k| k == driven),
            "{driven} is on the wire"
        );
    }
    let core = top.into_iter().find(|(key, _)| key == "core");
    let Some((_, Value::Map(core))) = core else {
        panic!("`core` is an object");
    };
    let core_keys = keys(&core);
    for derived in [
        "active",
        "scan_set",
        "wheel",
        "freed_scratch",
        "occ_mask",
        "vc_head",
        "bub_head",
        "vcs",
    ] {
        assert!(
            !core_keys.iter().any(|k| k == derived),
            "{derived} is on the wire"
        );
    }
    assert!(core_keys.iter().any(|k| k == "vc_occ"), "{core_keys:?}");
}

#[test]
fn fingerprints_are_unchanged() {
    let scenario = example_scenario();
    let text = format!(
        "fingerprint={:016x}\ncontent_fingerprint={:016x}\nschema_epoch={:016x}\n",
        scenario.fingerprint().unwrap(),
        scenario.content_fingerprint().unwrap(),
        cache::schema_epoch(),
    );
    assert_golden("fingerprints.txt", &text);
}
