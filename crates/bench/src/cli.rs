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
/// let args = Args::parse_from(["--topos", "16", "--sim"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("topos", 8), 16);
/// assert!(args.flag("sim"));
/// assert_eq!(args.get_u64("cycles", 5000), 5000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    usage: Option<String>,
}

/// Keys every experiment binary accepts without declaring them. `--jobs`
/// feeds [`crate::sweep::default_threads`]. `--cache-dir` points the
/// fleet's content-addressed result cache at a directory
/// ([`crate::sweep::cache_from_args`]).
const BUILTIN_KEYS: &[&str] = &["jobs", "cache-dir", "help"];

impl Args {
    /// Strictly parse the process arguments against a declared knob list.
    ///
    /// Prints the familiar `== name: what` banner to stderr, then parses.
    /// `--help` prints usage and exits 0; unknown options or stray positional
    /// arguments print the usage banner and exit 2. `--jobs` is accepted
    /// by every binary (see [`crate::sweep::default_threads`]).
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
            usage: Some(usage.clone()),
            ..Args::default()
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
            "    --jobs         worker threads; 1 = sequential (default: available cores)\n    \
             --cache-dir    memoize simulation results in this directory\n    --help\n",
        );
        s
    }

    /// Parse the process arguments (skipping the binary name), leniently.
    ///
    /// Prefer [`Args::parse_spec`] in binaries — it validates option names
    /// and answers `--help`. This stays for quick scripts and tests.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator, leniently (tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut iter = iter.into_iter().peekable();
        while let Some(a) = iter.next() {
            let Some(key) = a.strip_prefix("--") else {
                continue;
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    args.values.insert(key.to_string(), v);
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        args
    }

    fn bail(&self, msg: String) -> ! {
        match &self.usage {
            Some(usage) => eprintln!("{msg}\n{usage}"),
            None => eprintln!("{msg}"),
        }
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

    /// Integer option with default; `Err` describes the malformed value.
    pub fn try_get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        Ok(self.try_parsed(key, "an integer")?.unwrap_or(default))
    }

    /// u64 option with default; `Err` describes the malformed value.
    pub fn try_get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        Ok(self.try_parsed(key, "an integer")?.unwrap_or(default))
    }

    /// Float option with default; `Err` describes the malformed value.
    pub fn try_get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        Ok(self.try_parsed(key, "a number")?.unwrap_or(default))
    }

    /// Integer option with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.try_get_usize(key, default)
            .unwrap_or_else(|e| self.bail(e))
    }

    /// u64 option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.try_get_u64(key, default)
            .unwrap_or_else(|e| self.bail(e))
    }

    /// Float option with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.try_get_f64(key, default)
            .unwrap_or_else(|e| self.bail(e))
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
        let a = Args::parse_from(
            ["--x", "3", "--flag", "--y", "2.5"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get_usize("x", 0), 3);
        assert_eq!(a.get_f64("y", 0.0), 2.5);
        assert!(a.flag("flag"));
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
    fn spec_rejects_the_retired_threads_alias() {
        // `--threads` is `sbsim`'s route-table build knob; the figure
        // binaries' worker count has one spelling, `--jobs`.
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
        let err = a.try_get_f64("rate", 0.05).unwrap_err();
        assert!(err.contains("--rate"), "{err}");
        assert!(err.contains("fast"), "{err}");
        assert_eq!(a.try_get_f64("missing", 0.25), Ok(0.25));
        let err = a.try_get_usize("rate", 1).unwrap_err();
        assert!(err.contains("an integer"), "{err}");
    }
}
