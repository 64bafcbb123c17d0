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
//! Exit status: `0` only for a clean, complete sweep — failed runs or
//! sample-size erosion (`failed` / `shortfall` report sections) exit `1`
//! *after* writing the report, so CI pipelines cannot green-light a
//! degraded grid by forgetting to inspect the JSON.

use std::process::exit;

use sb_fleet::{run_sweep, CacheConfig, ExecOptions, SweepSpec};

struct Cli {
    spec: String,
    jobs: usize,
    out: String,
    forensics: bool,
    drain: Option<u64>,
    cache_dir: Option<String>,
}

const USAGE: &str = "usage: sweep --spec FILE [--jobs N] [--out FILE|-] [--forensics]
             [--drain CYCLES] [--cache-dir DIR]
  --spec FILE      sweep grid, TOML or JSON (required)
  --jobs N         worker threads, one scenario each; 0 = all cores (default)
  --out FILE|-     report destination (default: stdout)
  --forensics      capture deadlock forensics per wedged run
  --drain N        after the window, stop injection and drain up to N cycles
  --cache-dir DIR  memoize results in a content-addressed store; warm
                   re-runs simulate nothing and emit identical bytes; an
                   interrupted sweep re-run simulates only the remainder";

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        spec: String::new(),
        jobs: 0,
        out: "-".to_string(),
        forensics: false,
        drain: None,
        cache_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--spec" => cli.spec = value("--spec")?,
            "--jobs" => {
                cli.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--out" => cli.out = value("--out")?,
            "--forensics" => cli.forensics = true,
            "--drain" => {
                cli.drain = Some(
                    value("--drain")?
                        .parse()
                        .map_err(|e| format!("--drain: {e}"))?,
                )
            }
            "--cache-dir" => cli.cache_dir = Some(value("--cache-dir")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.spec.is_empty() {
        return Err("--spec is required".to_string());
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("sweep: {e}\n{USAGE}");
            exit(2);
        }
    };
    let spec = match SweepSpec::load(&cli.spec) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("sweep: {e}");
            exit(1);
        }
    };
    let opts = ExecOptions {
        forensics: cli.forensics,
        drain_budget: cli.drain,
    };
    let cache = CacheConfig {
        dir: cli.cache_dir.map(Into::into),
    };
    let (report, acct) = match run_sweep(&spec, cli.jobs, opts, &cache) {
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
    if cli.out == "-" {
        println!("{json}");
    } else if let Err(e) = std::fs::write(&cli.out, json + "\n") {
        eprintln!("sweep: write {}: {e}", cli.out);
        exit(1);
    }
    if degraded {
        exit(1);
    }
}
