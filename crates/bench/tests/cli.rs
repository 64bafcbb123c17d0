//! A binary accepts exactly the knobs it declares: the figures that never
//! run a fleet grid refuse `--cache-dir`, and the ones that never start a
//! thread refuse `--jobs` too — exit 2, naming the option, before any work
//! reaches stdout.

use std::process::Command;

#[test]
fn options_a_binary_does_not_read_are_usage_errors() {
    let no_jobs = [
        env!("CARGO_BIN_EXE_fig01"),
        env!("CARGO_BIN_EXE_fig04_placement"),
        env!("CARGO_BIN_EXE_table1"),
    ];
    let no_cache = [
        env!("CARGO_BIN_EXE_fig02"),
        env!("CARGO_BIN_EXE_fig03"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_fig13"),
        env!("CARGO_BIN_EXE_diversity"),
    ];
    let cases = no_jobs
        .iter()
        .flat_map(|bin| [(bin, "--jobs", "2"), (bin, "--cache-dir", "d")])
        .chain(no_cache.iter().map(|bin| (bin, "--cache-dir", "d")));
    for (bin, key, value) in cases {
        let out = Command::new(bin)
            .args([key, value])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {key}: {err}");
        assert!(
            err.contains(&format!("unknown option {key}")),
            "{bin}: {err}"
        );
        assert!(out.stdout.is_empty(), "{bin} {key}: nothing may run");
    }
}

#[test]
fn a_bare_valued_knob_and_a_valued_switch_are_usage_errors() {
    // `fig01 --topos 2 --faults` once ran with the default fault count, and
    // `fig02 --sim yes` once ran without the simulation.
    for (bin, args, said) in [
        (
            env!("CARGO_BIN_EXE_fig01"),
            &["--topos", "2", "--faults"][..],
            "--faults needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_fig02"),
            &["--sim", "yes"],
            "--sim is a switch",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {err}");
        assert!(err.contains(said), "{bin}: {err}");
        assert!(out.stdout.is_empty(), "{bin}: nothing may run");
    }
}
