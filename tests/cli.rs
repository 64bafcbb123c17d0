//! End-to-end test of the `sbsim` CLI binary.

use std::process::Command;

fn sbsim(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sbsim"))
        .args(args)
        .output()
        .expect("sbsim runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (out, ok) = sbsim(&["--help"]);
    assert!(ok);
    assert!(out.contains("usage"));
    assert!(out.contains("static-bubble"));
}

#[test]
fn static_bubble_run_reports_stats() {
    let (out, ok) = sbsim(&[
        "--design",
        "static-bubble",
        "--rate",
        "0.1",
        "--cycles",
        "1500",
        "--warmup",
        "200",
    ]);
    assert!(ok);
    assert!(out.contains("static bubbles: 21 routers"));
    assert!(out.contains("delivered packets"));
    assert!(out.contains("throughput"));
}

#[test]
fn none_design_wedges_at_high_load() {
    let (out, ok) = sbsim(&[
        "--design", "none", "--rate", "0.6", "--cycles", "6000", "--warmup", "0", "--seed", "3",
    ]);
    assert!(ok);
    assert!(
        out.contains("deadlocked (no recovery mechanism attached)"),
        "expected the wedge note, got:\n{out}"
    );
}

#[test]
fn heatmap_renders() {
    let (out, ok) = sbsim(&[
        "--design",
        "sp-tree",
        "--rate",
        "0.05",
        "--cycles",
        "500",
        "--heatmap",
    ]);
    assert!(ok);
    assert!(out.contains("final buffer occupancy"));
}

#[test]
fn unknown_design_fails_cleanly() {
    let (_, ok) = sbsim(&["--design", "bogus"]);
    assert!(!ok);
}

#[test]
fn unknown_option_fails_cleanly() {
    let (_, ok) = sbsim(&["--desing", "static-bubble"]);
    assert!(!ok);

    // Retired flags are usage errors, not silently accepted.
    for flag in ["--snapshot-every", "--threads"] {
        let gone = Command::new(env!("CARGO_BIN_EXE_sbsim"))
            .args([flag, "2"])
            .output()
            .expect("sbsim runs");
        let err = String::from_utf8_lossy(&gone.stderr);
        assert_eq!(gone.status.code(), Some(2), "{err}");
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
    }
}

#[test]
fn drain_takes_a_value() {
    // One meaning: `--drain BUDGET`. A bare `--drain` is a usage error
    // naming the key, not a run with a default budget.
    let out = Command::new(env!("CARGO_BIN_EXE_sbsim"))
        .arg("--drain")
        .output()
        .expect("sbsim runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--drain needs a value"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn bisect_replays_a_wedge_that_forms_before_cycle_1000() {
    // The whole run is shorter than one bisect chunk: it has a replay
    // point only because every phase starts with one.
    let (out, ok) = sbsim(&[
        "--design", "none", "--rate", "0.4", "--warmup", "100", "--cycles", "300", "--drain",
        "400", "--bisect",
    ]);
    assert!(ok);
    assert!(out.contains("bisect: wedged at t=800"), "{out}");
    assert!(out.contains("oracle re-fired"), "{out}");
    assert!(out.contains("=== forensics @ cycle"), "{out}");
}

#[test]
fn example_scenario_file_drives_a_run() {
    // Flags layer over the loaded spec, so the committed example stays a
    // full-length experiment while the test runs a short slice of it.
    let (out, ok) = sbsim(&[
        "--scenario",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/examples/deadlock_recovery.toml"
        ),
        "--cycles",
        "800",
        "--warmup",
        "100",
        "--rate",
        "0.1",
    ]);
    assert!(ok);
    assert!(out.contains("== sbsim: static-bubble"), "{out}");
    assert!(out.contains("static bubbles: 21 routers"), "{out}");
    assert!(out.contains("delivered packets"), "{out}");
}

#[test]
fn misspelt_scenario_key_is_rejected_by_name() {
    // `audit_evry` next to `audit_every` used to load without complaint and
    // silently run unaudited.
    let example = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/deadlock_recovery.toml"
    ))
    .expect("read example");
    let typo = example.replace("audit_every = 0", "audit_every = 0\naudit_evry = 5");
    assert_ne!(typo, example);
    let path = std::env::temp_dir().join(format!("sbsim_typo_{}.toml", std::process::id()));
    std::fs::write(&path, typo).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_sbsim"))
        .args(["--scenario", path.to_str().unwrap(), "--cycles", "100"])
        .output()
        .expect("sbsim runs");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown field `audit_evry`"), "{err}");
    assert!(
        err.contains("\"audit_every\""),
        "expected fields listed: {err}"
    );
}

#[test]
fn dumped_scenario_reproduces_the_flag_run() {
    let flags = &[
        "--design",
        "escape-vc",
        "--link-faults",
        "5",
        "--rate",
        "0.2",
        "--cycles",
        "600",
        "--warmup",
        "50",
        "--seed",
        "8",
    ];
    let (json, ok) = sbsim(&[flags as &[&str], &["--dump-scenario"]].concat());
    assert!(ok);
    assert!(json.contains("\"Mixed\""), "{json}");
    let path = std::env::temp_dir().join(format!("sbsim_dump_{}.json", std::process::id()));
    std::fs::write(&path, &json).expect("write dump");
    let (direct, ok) = sbsim(flags);
    assert!(ok);
    let (reloaded, ok) = sbsim(&["--scenario", path.to_str().unwrap()]);
    assert!(ok);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        direct, reloaded,
        "a reloaded spec must replay the exact run"
    );
    assert!(direct.contains("packets escaped"), "{direct}");
}

#[test]
fn unbuildable_specs_are_refused_by_field_name() {
    // `Scenario::validate` answers before any library `assert!` can: exit
    // 2 and one line naming the field and its limit. `SimConfig` has no
    // flags, so its rows edit a dumped spec file.
    let (spec, ok) = sbsim(&["--dump-scenario"]);
    assert!(ok);
    let spec_with = |row: usize, from: &str, to: &str| {
        assert!(spec.contains(from), "{spec}");
        let name = format!("sbsim_hostile_{}_{row}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, spec.replace(from, to)).expect("write spec");
        path.to_str().expect("utf-8 temp dir").to_string()
    };
    let flags = |a: &str, b: &str| vec![a.to_string(), b.to_string()];
    let file = |path: String| vec!["--scenario".to_string(), path];
    for (args, field, limit) in [
        (
            flags("--link-faults", "9999"),
            "faults: 9999 link",
            "has 112 links",
        ),
        (
            flags("--rate", "5"),
            "traffic rate:",
            "at most 3 flits/node/cycle",
        ),
        (flags("--width", "0"), "width/height: a 0x8 mesh", ">= 1"),
        (
            file(spec_with(0, "\"vnets\": 1", "\"vnets\": 0")),
            "config.vnets: 0",
            "1..=8",
        ),
        (
            file(spec_with(
                1,
                "\"max_packet_flits\": 5",
                "\"max_packet_flits\": 2",
            )),
            "config.max_packet_flits: 2",
            ">= 5",
        ),
        (
            file(spec_with(2, "\"vcs_per_vnet\": 4", "\"vcs_per_vnet\": 40")),
            "config.vcs_per_vnet: 40",
            "at most 64",
        ),
        (
            file(spec_with(3, "\"vcs_per_vnet\": 4", "\"vcs_per_vnet\": 0")),
            "config.vcs_per_vnet: 0",
            ">= 1",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sbsim"))
            .args(&args)
            .output()
            .expect("sbsim runs");
        if args[0] == "--scenario" {
            let _ = std::fs::remove_file(&args[1]);
        }
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(field) && err.contains(limit),
            "{args:?}: {err}"
        );
        assert!(
            !err.contains("panicked") && err.lines().count() == 1,
            "{err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}
