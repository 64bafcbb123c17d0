//! Run a [`SweepSpec`] file across the fleet and emit the aggregated
//! JSON report.
//!
//! ```text
//! sweep --spec grid.toml [--jobs N] [--out report.json] [--forensics]
//!       [--drain CYCLES] [--cache-dir DIR]
//! ```
//!
//! `--jobs 1` is the sequential reference path; any other value produces
//! byte-identical output (the equivalence suite proves it), so the flag is
//! purely a wall-clock knob (`0`, the default, is one worker per core) and
//! the only parallelism there is: the tick inside a run is single-threaded
//! (`DESIGN.md` §13). `--cache-dir` is one too: results memoize in a
//! content-addressed store, a warm re-run of the same spec performs zero
//! simulations and still emits byte-identical report bytes (the cold/warm
//! axis of the same suite proves that), and an interrupted sweep resumes by
//! running again with the same directory — the store serves what finished,
//! the remainder simulates. The servicing accounting goes to stderr as one
//! JSON line; the report owns stdout.
//!
//! Exit status: `2` for a usage error; `1` for a spec that does not load or
//! expand, and — *after* writing the report — for failed runs or
//! sample-size erosion (`failed` / `shortfall` report sections), so CI
//! pipelines cannot green-light a degraded grid by forgetting to inspect
//! the JSON; `0` only for a clean, complete sweep.

use std::process::exit;

use sb_bench::{cache_from_args, sweep::jobs_from_args, Args};
use sb_fleet::{run_sweep, ExecOptions, SweepSpec};

fn main() {
    let args = Args::parse_spec(
        "sweep",
        "run a sweep grid (a TOML or JSON SweepSpec file) and write its JSON report\n  \
         (--out - is stdout); --forensics captures deadlock forensics per wedged\n  \
         run; --drain N stops injection after the window and drains up to N cycles",
        &[
            ("spec", "required"),
            ("out", "-"),
            ("forensics", "off"),
            ("drain", "none"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let Some(path) = args.get_str("spec") else {
        eprintln!("sweep: --spec is required; try --help");
        exit(2);
    };
    let spec = match SweepSpec::load(path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("sweep: {e}");
            exit(1);
        }
    };
    let opts = ExecOptions {
        forensics: args.flag("forensics"),
        drain_budget: args.get_str("drain").map(|_| args.get("drain", 0)),
    };
    let cache = cache_from_args(&args);
    let (report, acct) = match run_sweep(&spec, jobs_from_args(&args), opts, &cache) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sweep: {e}");
            exit(1);
        }
    };
    if cache.dir.is_some() {
        eprintln!("{}", acct.to_json_line());
    }
    let mut degraded = false;
    if !report.failed.is_empty() {
        degraded = true;
        eprintln!(
            "sweep: {} of {} runs failed (see `failed` in the report)",
            report.failed.len(),
            report.total_runs
        );
    }
    if !report.shortfall.is_empty() {
        degraded = true;
        eprintln!(
            "sweep: {} group(s) completed fewer runs than expanded (see `shortfall`)",
            report.shortfall.len()
        );
    }
    let json = report.to_json().expect("report serializes");
    let out = args.get_str("out").unwrap_or("-");
    if out == "-" {
        println!("{json}");
    } else if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("sweep: write {out}: {e}");
        exit(1);
    }
    if degraded {
        exit(1);
    }
}
