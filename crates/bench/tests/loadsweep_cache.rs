//! `loadsweep --cache-dir DIR` is honoured, not just accepted: a second run
//! against the same directory simulates nothing and writes the same table.

use std::path::Path;
use std::process::Command;

/// Run a short-window `loadsweep` caching under `dir`, returning the CSV bytes
/// it wrote and its stderr (where the cache accounting line goes).
fn loadsweep(dir: &Path, csv: &str) -> (Vec<u8>, String) {
    let csv = dir.join(csv);
    let out = Command::new(env!("CARGO_BIN_EXE_loadsweep"))
        .args(["--window", "300", "--jobs", "2", "--cache-dir"])
        .arg(dir.join("cache"))
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("run loadsweep");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{err}");
    (std::fs::read(&csv).expect("csv written"), err)
}

#[test]
fn a_warm_cache_dir_simulates_nothing_and_writes_the_same_table() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ls-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let (cold_csv, cold_err) = loadsweep(&dir, "cold.csv");
    assert!(cold_err.contains("\"simulated\": 36"), "{cold_err}");
    let (warm_csv, warm_err) = loadsweep(&dir, "warm.csv");
    assert!(warm_err.contains("\"simulated\": 0"), "{warm_err}");
    assert!(warm_err.contains("\"disk_hits\": 36"), "{warm_err}");
    assert_eq!(cold_csv, warm_csv, "the warm table must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}
