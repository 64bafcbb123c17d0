//! The cache's safety contract: a content-addressed store may only ever
//! say "here is *exactly* the result you would have computed" or "miss —
//! go compute it". These tests attack every way an on-disk entry can be
//! wrong or missing — corruption, truncation, a stale engine epoch, a
//! hand-copied foreign entry, concurrent writers, an interrupted sweep —
//! and assert the fleet always falls back to re-simulation with
//! byte-identical aggregated output, never crashing and never serving
//! stale bytes. Plus the in-process dedup ledger.

use std::path::{Path, PathBuf};

use sb_fleet::{
    aggregate, cache, execute_one, run_records, run_sweep, schema_epoch, CacheConfig, DiskCache,
    ExecOptions, SweepSpec,
};

/// A private scratch directory under cargo's test tmpdir; wiped on entry
/// so reruns start cold.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A small all-unique grid: 2 fault points × 2 designs × 2 seeds = 8 runs.
fn grid(name: &str) -> SweepSpec {
    let mut spec = SweepSpec::new(name);
    spec.meshes = vec!["4x4".into()];
    spec.link_faults = vec![0, 3];
    spec.topo_seeds = vec![7];
    spec.designs = vec!["sp-tree".into(), "static-bubble".into()];
    spec.sb_variants = vec!["full".into()];
    spec.rates = vec![0.05];
    spec.seeds = vec![1, 2];
    spec.warmup = 50;
    spec.cycles = 200;
    spec
}

/// Entry files of a cache directory, name-sorted for determinism.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    found.sort();
    found
}

#[test]
fn defective_entries_are_misses_never_crashes_or_stale_serves() {
    let dir = scratch("defects");
    let spec = grid("defects");
    let opts = ExecOptions::default();
    let (cold, _) = run_sweep(&spec, 2, opts, &CacheConfig::dir(&dir)).expect("cold sweep");
    let reference = cold.to_json().expect("serialize");

    let files = entries(&dir);
    assert_eq!(files.len(), 8);

    // Four distinct defects on four distinct entries.
    std::fs::write(&files[0], "total garbage, not even a header").expect("corrupt");
    let text = std::fs::read_to_string(&files[1]).expect("read entry");
    std::fs::write(&files[1], &text[..text.len() / 2]).expect("truncate");
    let text = std::fs::read_to_string(&files[2]).expect("read entry");
    let (header, body) = text.split_once('\n').expect("entry has a header line");
    let mut stale = String::new();
    for part in header.split_ascii_whitespace() {
        if let Some(hex) = part.strip_prefix("epoch=") {
            assert_eq!(hex, format!("{:016x}", schema_epoch()));
            stale.push_str("epoch=0000000000000000 ");
        } else {
            stale.push_str(part);
            stale.push(' ');
        }
    }
    std::fs::write(&files[2], format!("{}\n{body}", stale.trim_end())).expect("stale epoch");
    // A foreign entry copied onto this key's path: internally consistent
    // bytes, wrong content — the header/key cross-check must reject it.
    std::fs::copy(&files[4], &files[3]).expect("foreign copy");

    let (warm, wa) = run_sweep(&spec, 2, opts, &CacheConfig::dir(&dir)).expect("warm sweep");
    assert_eq!(wa.disk_hits, 4, "only the intact entries serve");
    assert_eq!(
        wa.simulated, 4,
        "every defective entry falls back to simulation"
    );
    assert_eq!(wa.stored, 4, "re-simulated results repair the store");
    assert_eq!(warm.to_json().expect("serialize"), reference);

    // The repaired store is fully warm again.
    let (_, ra) = run_sweep(&spec, 2, opts, &CacheConfig::dir(&dir)).expect("repaired sweep");
    assert_eq!(ra.simulated, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_race_benignly() {
    let dir = scratch("race");
    let runs = grid("race").expand().expect("grid");
    let scenario = runs[0].scenario.clone();
    let opts = ExecOptions::default();
    let result = execute_one(&scenario, opts);
    let key = cache::content_key(&scenario, opts, schema_epoch()).expect("key");
    let disk = DiskCache::open(&dir).expect("open cache");

    // Equal keys ⇒ equal bytes, so last-rename-wins is harmless; readers
    // racing the writers must only ever see "absent" or the full result.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..25 {
                    assert!(disk.store(&key, "race", &result));
                }
            });
        }
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..50 {
                    if let Some(seen) = disk.load(&key) {
                        assert_eq!(seen, result, "a reader saw a partial entry");
                    }
                }
            });
        }
    });

    assert_eq!(disk.load(&key).expect("entry present"), result);
    let litter: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with(".tmp-"))
        .collect();
    assert!(litter.is_empty(), "temp files left behind: {litter:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_interrupted_sweep_resumes_from_the_store() {
    let dir = scratch("interrupted");
    let spec = grid("interrupted");
    let opts = ExecOptions::default();
    let cache = CacheConfig::dir(&dir);
    let pass = |cache: &CacheConfig| {
        let (report, acct) = run_sweep(&spec, 2, opts, cache).expect("sweep");
        (report.to_json().expect("serialize"), acct)
    };
    let (reference, _) = pass(&CacheConfig::none());

    let (cold, ca) = pass(&cache);
    assert_eq!(cold, reference, "caching must not change the report");
    assert_eq!((ca.total_requested, ca.unique_scenarios), (8, 8));
    assert_eq!((ca.simulated, ca.stored, ca.disk_hits), (8, 8, 0));

    let (warm, wa) = pass(&cache);
    assert_eq!(warm, reference);
    assert_eq!(
        (wa.simulated, wa.disk_hits),
        (0, 8),
        "a warm store serves all"
    );

    // What a killed sweep leaves: some entries never written, one torn.
    let files = entries(&dir);
    assert_eq!(files.len(), 8);
    for file in files.iter().step_by(2) {
        std::fs::remove_file(file).expect("remove entry");
    }
    let text = std::fs::read_to_string(&files[1]).expect("read entry");
    std::fs::write(&files[1], &text[..text.len() / 2]).expect("truncate");

    // Running again against the same directory is the resume.
    let (resumed, ra) = pass(&cache);
    assert_eq!(resumed, reference);
    assert_eq!(ra.simulated, 5, "exactly the removed entries re-simulate");
    assert_eq!(ra.disk_hits, 3, "everything that finished is served");

    // A different grid (one knob changed) is different content: nothing is
    // served across the boundary.
    let mut other = grid("interrupted");
    other.cycles = 250;
    let (_, oa) = run_sweep(&other, 2, opts, &cache).expect("other sweep");
    assert_eq!(oa.simulated, 8, "changed content must re-simulate");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_points_dedup_in_process() {
    // A repeated seed asks for every point twice.
    let mut spec = grid("dedup");
    spec.seeds = vec![1, 2, 1, 2];
    let runs = spec.expand().expect("grid");
    assert_eq!(runs.len(), 16);

    let (records, acct) = run_records(
        "dedup",
        &runs,
        2,
        ExecOptions::default(),
        &CacheConfig::none(),
    );
    assert_eq!(acct.total_requested, 16);
    assert_eq!(acct.unique_scenarios, 8, "each point is asked for twice");
    assert_eq!(acct.dedup_served, 8);
    assert_eq!(
        acct.simulated, 8,
        "each unique point simulates exactly once"
    );
    assert_eq!(acct.disk_hits, 0);

    // Fan-out delivers the *same* result to both requesters: seeds run
    // innermost, so run `i` and run `i + 2` are the same point.
    let mut by_index = records.clone();
    by_index.sort_by_key(|r| r.index);
    for (i, run) in runs.iter().enumerate().filter(|(i, _)| i % 4 < 2) {
        assert_eq!(run.scenario, runs[i + 2].scenario);
        assert_eq!(
            by_index[i].result,
            by_index[i + 2].result,
            "duplicate requesters must receive identical results"
        );
    }

    // The dedup factor is observable in the aggregated report itself.
    let report = aggregate("dedup", spec.accept, &runs, records);
    assert_eq!(report.total_runs, 16);
    assert_eq!(report.unique_scenarios, 8);
}
