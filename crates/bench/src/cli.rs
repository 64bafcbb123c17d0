//! The one command-line parser of the experiment binaries — `sbsim`,
//! `sweep` and every figure — with no extra dependencies.
//!
//! A binary declares its knobs up front with [`Args::parse_spec`] and
//! accepts exactly those: `--help` lists them, and an unknown option, a
//! stray positional, a valued knob given bare and a switch given a value
//! are usage errors (exit 2) naming the key. A knob declared with the
//! default `off` is a switch. Reading a key the binary did not declare
//! panics: that is a bug in the binary, not in its command line.
//!
//! ```no_run
//! use sb_bench::Args;
//! let args = Args::parse_spec(
//!     "fig08",
//!     "low-load latency normalized to spanning tree",
//!     &[("topos", "10"), ("cycles", "4000"), ("rate", "0.05"), ("csv", "-")],
//! );
//! let topos: usize = args.get("topos", 10);
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

/// Parsed command-line arguments: `--key value` pairs plus bare switches.
///
/// ```
/// use sb_bench::Args;
/// let argv = ["--topos", "16", "--sim"].map(String::from);
/// let knobs = [("topos", "8"), ("cycles", "5000"), ("sim", "off")];
/// let args = Args::try_parse_spec(argv, "fig02", "deadlock onset", &knobs).unwrap();
/// assert_eq!(args.get("topos", 8usize), 16);
/// assert!(args.flag("sim"));
/// assert_eq!(args.get("cycles", 5000u64), 5000);
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    declared: Vec<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
    usage: String,
}

/// The default that declares a knob a switch.
const SWITCH: &str = "off";

impl Args {
    /// Strictly parse the process arguments against a declared knob list.
    /// `--help` prints usage and exits 0; a malformed command line prints
    /// what is wrong plus the usage and exits 2.
    pub fn parse_spec(name: &str, what: &str, knobs: &[(&str, &str)]) -> Self {
        match Self::try_parse_spec(std::env::args().skip(1), name, what, knobs) {
            Ok(args) => args,
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
        let bad = |msg: String| Err(ArgError::Bad(format!("{msg}\n{usage}")));
        let mut args = Args {
            declared: knobs.iter().map(|(k, _)| k.to_string()).collect(),
            values: HashMap::new(),
            flags: Vec::new(),
            usage: usage.clone(),
        };
        let mut iter = iter.into_iter().peekable();
        while let Some(a) = iter.next() {
            let Some(key) = a.strip_prefix("--") else {
                return bad(format!(
                    "stray argument {a:?}; options are --key value pairs"
                ));
            };
            if key == "help" {
                return Err(ArgError::Help(usage));
            }
            let Some(&(_, default)) = knobs.iter().find(|(k, _)| *k == key) else {
                return bad(format!("unknown option --{key}"));
            };
            match (default == SWITCH, iter.next_if(|v| !v.starts_with("--"))) {
                (true, None) => args.flags.push(key.to_string()),
                (true, Some(v)) => {
                    return bad(format!(
                        "--{key} is a switch and takes no value (got {v:?})"
                    ))
                }
                (false, Some(v)) => {
                    args.values.insert(key.to_string(), v);
                }
                (false, None) => return bad(format!("--{key} needs a value")),
            }
        }
        Ok(args)
    }

    fn usage_text(name: &str, what: &str, knobs: &[(&str, &str)]) -> String {
        use std::fmt::Write;
        let mut s = format!("usage: {name} [--KNOB VALUE]...\n  {what}\n  knobs:\n");
        for (k, d) in knobs {
            let help = match *k {
                "jobs" => "worker threads; 1 = sequential, 0 = all cores (default)".to_string(),
                "cache-dir" => "memoize simulation results in this directory".to_string(),
                _ => format!("(default {d})"),
            };
            writeln!(s, "    --{k:<14} {help}").expect("write to string");
        }
        s.push_str("    --help\n");
        s
    }

    fn check_declared(&self, key: &str) {
        assert!(
            self.declared.iter().any(|k| k == key),
            "--{key} is read but not declared"
        );
    }

    fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.check_declared(key);
        match self.values.get(key) {
            Some(v) => v.parse().map(Some).map_err(|_| {
                format!(
                    "--{key} got {v:?}; expected a value of type {}",
                    std::any::type_name::<T>()
                )
            }),
            None => Ok(None),
        }
    }

    /// The value of `--key` parsed as `T`, or `default` when absent. A value
    /// that does not parse is a usage error (exit 2).
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.try_get(key) {
            Ok(v) => v.unwrap_or(default),
            Err(msg) => {
                eprintln!("{msg}\n{}", self.usage);
                std::process::exit(2);
            }
        }
    }

    /// String option, `None` if absent.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.check_declared(key);
        self.values.get(key).map(String::as_str)
    }

    /// Was the switch given?
    pub fn flag(&self, key: &str) -> bool {
        self.check_declared(key);
        self.flags.iter().any(|f| f == key)
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
            &[
                ("topos", "10"),
                ("rate", "0.05"),
                ("sim", "off"),
                ("jobs", "0"),
            ],
        )
    }

    fn bad(argv: &[&str]) -> String {
        match strict(argv) {
            Err(ArgError::Bad(msg)) => msg,
            other => panic!("{argv:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_mixed() {
        let a = strict(&["--topos", "3", "--sim", "--rate", "2.5"]).expect("valid argv");
        assert_eq!(a.get("topos", 0usize), 3);
        assert_eq!(a.get("rate", 0.0f64), 2.5);
        assert!(a.flag("sim"));
        assert_eq!(a.get("jobs", 7usize), 7);
        assert_eq!(a.get_str("jobs"), None);
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
    fn only_declared_knobs_are_accepted() {
        // No built-in keys: `--cache-dir` is unknown unless declared, and
        // the worker count has one spelling, `--jobs`.
        for key in ["--bogus", "--cache-dir", "--threads"] {
            let msg = bad(&[key, "1"]);
            assert!(msg.contains(&format!("unknown option {key}")), "{msg}");
            assert!(msg.contains("usage: figX"), "{msg}");
            assert!(msg.contains("--topos"), "{msg}");
        }
        let usage = strict(&[]).expect("valid argv").usage;
        assert!(!usage.contains("cache-dir"), "{usage}");
    }

    #[test]
    fn a_valued_knob_given_bare_names_the_key() {
        for argv in [&["--topos"][..], &["--topos", "--sim"]] {
            let msg = bad(argv);
            assert!(msg.contains("--topos needs a value"), "{msg}");
        }
    }

    #[test]
    fn a_switch_given_a_value_names_the_key() {
        let msg = bad(&["--sim", "yes"]);
        assert!(msg.contains("--sim is a switch"), "{msg}");
        assert!(msg.contains("\"yes\""), "{msg}");
    }

    #[test]
    #[should_panic(expected = "--cycles is read but not declared")]
    fn reading_an_undeclared_key_panics() {
        strict(&[]).expect("valid argv").get("cycles", 1u64);
    }

    #[test]
    fn spec_rejects_stray_positional() {
        assert!(bad(&["whoops"]).contains("stray argument"));
    }

    #[test]
    fn spec_answers_help() {
        let Err(ArgError::Help(usage)) = strict(&["--topos", "3", "--help"]) else {
            panic!("--help must short-circuit");
        };
        assert!(usage.contains("a test binary"), "{usage}");
        assert!(usage.contains("--rate"), "{usage}");
        assert!(usage.contains("--jobs"), "{usage}");
    }

    #[test]
    fn malformed_values_report_key_and_value() {
        let a = strict(&["--rate", "fast"]).expect("parses; value checked at get");
        let err = a.try_get::<f64>("rate").unwrap_err();
        assert!(err.contains("--rate"), "{err}");
        assert!(err.contains("fast"), "{err}");
        assert!(err.contains("f64"), "{err}");
        assert_eq!(a.try_get::<f64>("topos"), Ok(None));
    }
}
