//! Binary-level argument handling for the `sweep` CLI: `--jobs 0`
//! auto-detects from `std::thread::available_parallelism` instead of
//! erroring and is invisible in the report bytes (a wall-clock lever, not an
//! experiment parameter), and the retired `--threads` is a usage error.

use std::path::{Path, PathBuf};
use std::process::Command;

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
const SPEC: &str = "name = \"args-grid\"\nmeshes = [\"4x4\"]\nlink_faults = [0]\n\
    router_faults = []\ntopo_seeds = [1]\ndesigns = [\"static-bubble\"]\n\
    sb_variants = [\"full\"]\nrates = [0.05]\nseeds = [1, 2]\npattern = \"uniform\"\n\
    single_vnet = true\nwarmup = 50\ncycles = 200\ntdd = 34\naudit_every = 0\n\
    clock = \"Step\"\naccept = 0.85\n\n[config]\nvnets = 1\nvcs_per_vnet = 4\n\
    max_packet_flits = 5\n";

fn run_sweep(spec: &Path, out: &Path, extra: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "--spec",
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .args(extra)
        .status()
        .expect("run sweep")
}

#[test]
fn zero_means_auto_detect_and_reports_stay_identical() {
    let dir = scratch("auto");
    let spec = dir.join("grid.toml");
    std::fs::write(&spec, SPEC).expect("write spec");

    // Reference: fully sequential.
    let reference = dir.join("reference.json");
    let status = run_sweep(&spec, &reference, &["--jobs", "1"]);
    assert!(status.success(), "sequential reference must exit 0");
    let reference = std::fs::read_to_string(&reference).expect("reference report");
    assert!(reference.contains("\"args-grid\""), "report names the grid");

    // `--jobs 0` auto-detects the core count; whatever the machine
    // reports, the bytes must not move.
    let auto = dir.join("auto.json");
    let status = run_sweep(&spec, &auto, &["--jobs", "0"]);
    assert!(status.success(), "--jobs 0 must auto-detect, not error");
    assert_eq!(
        std::fs::read_to_string(&auto).expect("auto report"),
        reference,
        "auto-detected parallelism must emit byte-identical reports"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_is_an_unknown_argument() {
    // The tick inside a run is single-threaded (DESIGN.md §13); the flag
    // that used to override it is gone rather than silently ignored.
    let dir = scratch("bad");
    let spec = dir.join("grid.toml");
    std::fs::write(&spec, SPEC).expect("write spec");
    let out = dir.join("report.json");
    let status = run_sweep(&spec, &out, &["--threads", "2"]);
    assert_eq!(status.code(), Some(2), "--threads 2 is a usage error");
    assert!(!out.exists(), "a usage error must not run the sweep");
    let _ = std::fs::remove_dir_all(&dir);
}
