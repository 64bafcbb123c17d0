//! A minimal `--key value` argument parser (no extra dependencies).
//!
//! Experiment binaries declare their knobs up front with [`Args::parse_spec`],
//! which gets them `--help`, rejection of unknown options, and friendly
//! errors on malformed values for free:
//!
//! ```no_run
//! use sb_bench::Args;
//! let args = Args::parse_spec(
//!     "fig08",
//!     "low-load latency normalized to spanning tree",
//!     &[("topos", "10"), ("cycles", "4000"), ("rate", "0.05"), ("csv", "-")],
//! );
//! let topos = args.get_usize("topos", 10);
//! ```

use std::collections::HashMap;

/// Outcome of strict parsing that should stop the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` was requested; payload is the usage text (exit 0).
    Help(String),
    /// The command line was malformed; payload is the full message (exit 2).
    Bad(String),
}

/// Parsed command-line arguments: `--key value` pairs plus bare flags.
///
/// ```
/// use sb_bench::Args;
/// let argv = ["--topos", "16", "--sim"].map(String::from);
/// let knobs = [("topos", "8"), ("cycles", "5000"), ("sim", "off")];
/// let args = Args::try_parse_spec(argv, "fig02", "deadlock onset", &knobs).unwrap();
/// assert_eq!(args.get_usize("topos", 8), 16);
/// assert!(args.flag("sim"));
/// assert_eq!(args.get_u64("cycles", 5000), 5000);
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    usage: String,
}

/// Keys every experiment binary accepts without declaring them. `--jobs`
/// feeds [`crate::sweep::jobs_from_args`]. `--cache-dir` points the
/// fleet's content-addressed result cache at a directory
/// ([`crate::sweep::cache_from_args`]).
const BUILTIN_KEYS: &[&str] = &["jobs", "cache-dir", "help"];

impl Args {
    /// Strictly parse the process arguments against a declared knob list.
    ///
    /// Prints the familiar `== name: what` banner to stderr, then parses.
    /// `--help` prints usage and exits 0; unknown options or stray positional
    /// arguments print the usage banner and exit 2. `--jobs` is accepted
    /// by every binary (see [`crate::sweep::jobs_from_args`]).
    pub fn parse_spec(name: &str, what: &str, knobs: &[(&str, &str)]) -> Self {
        match Self::try_parse_spec(std::env::args().skip(1), name, what, knobs) {
            Ok(args) => {
                Self::banner(name, what, knobs);
                args
            }
            Err(ArgError::Help(usage)) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(ArgError::Bad(msg)) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`Args::parse_spec`]: parse an explicit argument
    /// iterator, returning [`ArgError`] instead of exiting.
    pub fn try_parse_spec<I: IntoIterator<Item = String>>(
        iter: I,
        name: &str,
        what: &str,
        knobs: &[(&str, &str)],
    ) -> Result<Self, ArgError> {
        let usage = Self::usage_text(name, what, knobs);
        let mut args = Args {
            values: HashMap::new(),
            flags: Vec::new(),
            usage: usage.clone(),
        };
        let mut iter = iter.into_iter().peekable();
        while let Some(a) = iter.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(ArgError::Bad(format!(
                    "stray argument {a:?}; options are --key value pairs\n{usage}"
                )));
            };
            if key == "help" {
                return Err(ArgError::Help(usage));
            }
            if !knobs.iter().any(|(k, _)| *k == key) && !BUILTIN_KEYS.contains(&key) {
                return Err(ArgError::Bad(format!("unknown option --{key}\n{usage}")));
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    args.values.insert(key.to_string(), v);
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        Ok(args)
    }

    fn usage_text(name: &str, what: &str, knobs: &[(&str, &str)]) -> String {
        use std::fmt::Write;
        let mut s = format!("usage: {name} [--KNOB VALUE]...\n  {what}\n  knobs:\n");
        for (k, d) in knobs {
            writeln!(s, "    --{k:<12} (default {d})").expect("write to string");
        }
        s.push_str(
            "    --jobs         worker threads; 1 = sequential, 0 = all cores (default)\n    \
             --cache-dir    memoize simulation results in this directory\n    --help\n",
        );
        s
    }

    fn bail(&self, msg: String) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2);
    }

    fn try_parsed<T: std::str::FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} got {v:?}; expected {what}")),
            None => Ok(None),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, what: &str, default: T) -> T {
        match self.try_parsed(key, what) {
            Ok(v) => v.unwrap_or(default),
            Err(e) => self.bail(e),
        }
    }

    /// Integer option with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.parsed(key, "an integer", default)
    }

    /// u64 option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.parsed(key, "an integer", default)
    }

    /// Float option with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.parsed(key, "a number", default)
    }

    /// String option, `None` if absent.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Bare flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Print a standard usage banner for an experiment binary.
    pub fn banner(name: &str, what: &str, knobs: &[(&str, &str)]) {
        eprintln!("== {name}: {what}");
        eprint!("   knobs:");
        for (k, d) in knobs {
            eprint!(" --{k} (default {d})");
        }
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(argv: &[&str]) -> Result<Args, ArgError> {
        Args::try_parse_spec(
            argv.iter().map(|s| s.to_string()),
            "figX",
            "a test binary",
            &[("topos", "10"), ("rate", "0.05"), ("sim", "off")],
        )
    }

    #[test]
    fn parses_mixed() {
        let a = strict(&["--topos", "3", "--sim", "--rate", "2.5"]).expect("valid argv");
        assert_eq!(a.get_usize("topos", 0), 3);
        assert_eq!(a.get_f64("rate", 0.0), 2.5);
        assert!(a.flag("sim"));
        assert!(!a.flag("other"));
        assert_eq!(a.get_u64("missing", 7), 7);
    }

    #[test]
    fn spec_accepts_declared_knobs_and_builtins() {
        let a = strict(&["--topos", "16", "--sim", "--jobs", "2"]).expect("valid argv");
        assert_eq!(a.get_usize("topos", 10), 16);
        assert!(a.flag("sim"));
        assert_eq!(a.get_usize("jobs", 4), 2);
    }

    #[test]
    fn jobs_zero_is_all_cores_and_the_default() {
        // One meaning, resolved where the threads start (`sb_pool`): absent
        // and an explicit 0 both reach the pool as 0.
        use crate::sweep::jobs_from_args;
        assert_eq!(jobs_from_args(&strict(&[]).expect("valid argv")), 0);
        let zero = strict(&["--jobs", "0"]).expect("valid argv");
        assert_eq!(jobs_from_args(&zero), 0);
        let one = strict(&["--jobs", "1"]).expect("valid argv");
        assert_eq!(jobs_from_args(&one), 1);
        assert!(
            zero.usage.contains("0 = all cores (default)"),
            "{}",
            zero.usage
        );
    }

    #[test]
    fn spec_rejects_the_retired_threads_alias() {
        // The worker count has one spelling, `--jobs`.
        let Err(ArgError::Bad(msg)) = strict(&["--threads", "2"]) else {
            panic!("--threads must be rejected");
        };
        assert!(msg.contains("unknown option --threads"), "{msg}");
    }

    #[test]
    fn spec_rejects_unknown_key_with_usage() {
        let Err(ArgError::Bad(msg)) = strict(&["--bogus", "1"]) else {
            panic!("--bogus must be rejected");
        };
        assert!(msg.contains("unknown option --bogus"), "{msg}");
        assert!(msg.contains("usage: figX"), "{msg}");
        assert!(msg.contains("--topos"), "{msg}");
    }

    #[test]
    fn spec_rejects_stray_positional() {
        let Err(ArgError::Bad(msg)) = strict(&["whoops"]) else {
            panic!("positional args must be rejected");
        };
        assert!(msg.contains("stray argument"), "{msg}");
    }

    #[test]
    fn spec_answers_help() {
        let Err(ArgError::Help(usage)) = strict(&["--help"]) else {
            panic!("--help must short-circuit");
        };
        assert!(usage.contains("a test binary"), "{usage}");
        assert!(usage.contains("--rate"), "{usage}");
        assert!(usage.contains("--jobs"), "{usage}");
    }

    #[test]
    fn malformed_values_report_key_and_value() {
        let a = strict(&["--rate", "fast"]).expect("parses; value checked at get");
        let err = a.try_parsed::<f64>("rate", "a number").unwrap_err();
        assert!(err.contains("--rate"), "{err}");
        assert!(err.contains("fast"), "{err}");
        assert_eq!(a.try_parsed::<f64>("missing", "a number"), Ok(None));
        let err = a.try_parsed::<usize>("rate", "an integer").unwrap_err();
        assert!(err.contains("an integer"), "{err}");
    }
}
