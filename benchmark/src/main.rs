//! `bench` — the repo benchmark (see README.md in this directory).
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one workload; result line last
//! bench [--seed N] [--seconds S]                                 every workload, untraced then traced
//! bench --smoke                                                  every workload at 1/5 length
//! bench --compare A.json B.json                                  apply the bounds to two reports
//! ```

mod compare;
mod exec;
mod fleet;
mod json;
mod layers;
mod measure;
mod metrics;
mod onoff;
mod report;
mod suite;
mod summary;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::PassReport;
use workloads::Workload;

/// Everything the command line can set.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One workload (the driver's mode) or all of them.
    pub workload: Option<Workload>,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long one pass measures, seconds.
    pub seconds: f64,
    /// Traced (per-layer) pass instead of the end-to-end one.
    pub trace: bool,
    /// Divide every cycle count by this (`--smoke`: [`SMOKE_LEN_DIV`]).
    pub len_div: u64,
    /// Rounds a pass must complete whatever `seconds` says.
    pub min_rounds: usize,
    /// Where the span file, reports and cache directories go.
    pub out_dir: PathBuf,
    /// The repo's `sbsim` binary, which `cli.sbsim_overhead_ms` spawns
    /// (`$BENCH_SBSIM`, set by `run.sh`).
    pub sbsim: PathBuf,
}

/// `--smoke` runs every workload at a fifth of its length: the shortest
/// at which each still reaches the regime its guard checks.
const SMOKE_LEN_DIV: u64 = 5;

const USAGE: &str =
    "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       bench --smoke
       bench --compare A.json B.json
workloads: low_load saturated recovery_bursts sparse_leap app_closed_loop fleet_grid";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: 17.0,
        trace: false,
        len_div: 1,
        min_rounds: 3,
        out_dir: PathBuf::from("benchmark/out"),
        sbsim: std::env::var_os("BENCH_SBSIM")
            .map_or_else(|| PathBuf::from("target/release/sbsim"), PathBuf::from),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside 0..=120"));
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => options.out_dir = PathBuf::from(value()?),
            "--smoke" => {
                options.len_div = SMOKE_LEN_DIV;
                options.seconds = 0.0;
                options.min_rounds = 1;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(options)
}

/// One pass over one workload, as the driver runs it.
fn run_one(w: Workload, options: &Options) -> Result<PassReport, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("create {}: {e}", options.out_dir.display()))?;
    if options.trace {
        layers::traced_pass(w, options)
    } else {
        suite::untraced_pass(w, options)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "--compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("--compare takes two report files\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match options.workload {
        Some(w) => match run_one(w, &options) {
            Ok(report) => {
                print!("{}", report.render());
                println!("detail {}", report.to_json());
                println!("{}", report.result_line());
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("bench: {}: {why}", w.name());
                ExitCode::FAILURE
            }
        },
        None => suite::main(&options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args(
            "--workload saturated --seed 42 --seconds 7 --trace 1",
        ))
        .expect("ok");
        assert_eq!(o.workload, Some(Workload::Saturated));
        assert_eq!((o.seed, o.seconds, o.trace), (42, 7.0, true));
        assert_eq!((o.len_div, o.min_rounds), (1, 3));
    }

    #[test]
    fn smoke_shortens_everything() {
        let o = parse(&args("--smoke")).expect("ok");
        assert_eq!(
            (o.len_div, o.seconds, o.min_rounds),
            (SMOKE_LEN_DIV, 0.0, 1)
        );
        assert_eq!(o.workload, None);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
