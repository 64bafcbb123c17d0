//! Binary-level behaviour of the `sweep` CLI: `--jobs 0` auto-detects from
//! `std::thread::available_parallelism` instead of erroring and is
//! invisible in the report bytes (a wall-clock lever, not an experiment
//! parameter), the retired `--threads` is a usage error, and a grid that
//! cannot be built exits 1 without writing a report. Every invocation
//! writes to its own path, so no assertion can read an earlier run's file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A private scratch directory under cargo's test tmpdir; wiped on entry
/// so reruns start cold.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The scalar-array spec format has no field defaults: every spec spells
/// out the whole grid. Small enough that the whole test stays quick.
fn spec(dir: &Path, link_faults: usize) -> PathBuf {
    let path = dir.join(format!("grid-{link_faults}.toml"));
    let text = format!(
        "name = \"args-grid\"\nmeshes = [\"4x4\"]\nlink_faults = [{link_faults}]\n\
         router_faults = []\ntopo_seeds = [1]\ndesigns = [\"static-bubble\"]\n\
         sb_variants = [\"full\"]\nrates = [0.05]\nseeds = [1, 2]\npattern = \"uniform\"\n\
         single_vnet = true\nwarmup = 50\ncycles = 200\ntdd = 34\naudit_every = 0\n\
         clock = \"Step\"\naccept = 0.85\n\n[config]\nvnets = 1\nvcs_per_vnet = 4\n\
         max_packet_flits = 5\n"
    );
    std::fs::write(&path, text).expect("write spec");
    path
}

fn run_sweep(spec: &Path, out: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("--spec")
        .arg(spec)
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("run sweep")
}

#[test]
fn zero_means_auto_detect_and_reports_stay_identical() {
    let dir = scratch("auto");
    let spec = spec(&dir, 0);

    // Reference: fully sequential.
    let reference = dir.join("reference.json");
    let out = run_sweep(&spec, &reference, &["--jobs", "1"]);
    assert!(out.status.success(), "sequential reference must exit 0");
    let reference = std::fs::read_to_string(&reference).expect("reference report");
    assert!(reference.contains("\"args-grid\""), "report names the grid");

    // `--jobs 0` auto-detects the core count; whatever the machine
    // reports, the bytes must not move.
    let auto = dir.join("auto.json");
    let out = run_sweep(&spec, &auto, &["--jobs", "0"]);
    assert!(out.status.success(), "--jobs 0 must auto-detect, not error");
    assert_eq!(
        std::fs::read_to_string(&auto).expect("auto report"),
        reference,
        "auto-detected parallelism must emit byte-identical reports"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_options_are_usage_errors() {
    // The tick inside a run is single-threaded (DESIGN.md §13); the flag
    // that used to override it is gone rather than silently ignored, and
    // resuming is running again with the same `--cache-dir`.
    let dir = scratch("bad");
    let spec = spec(&dir, 0);
    for flag in ["--threads", "--resume"] {
        let out_path = dir.join(format!("report{flag}.json"));
        let out = run_sweep(&spec, &out_path, &[flag, "2"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} is a usage error: {err}");
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
        assert!(!out_path.exists(), "a usage error must not run the sweep");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unbuildable_grid_exits_1_and_writes_nothing() {
    // 1000 dead links on a 4x4 mesh: `SweepSpec::expand` refuses the run
    // through `Scenario::validate` before anything simulates. (The other
    // exit-1 path — runs that panic, recorded under `failed` in a report
    // that is still written — is covered at library level by
    // `crates/fleet/tests/panic_isolation.rs`.)
    let dir = scratch("broken");
    let clean = dir.join("clean.json");
    let out = run_sweep(&spec(&dir, 0), &clean, &["--jobs", "2"]);
    assert!(out.status.success(), "clean grid must exit 0");
    assert!(clean.exists(), "clean grid writes its report");

    let broken = dir.join("broken.json");
    let out = run_sweep(&spec(&dir, 1000), &broken, &["--jobs", "2"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!broken.exists(), "no report for a grid that never ran");
    assert!(err.contains("links:1000"), "names the run: {err}");
    assert!(err.contains("has 24 links"), "names the limit: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}
