//! `bench --compare A.json B.json`: apply each end-to-end metric's bound,
//! workload by workload, to two reports (A the parent, B the change).

use std::process::ExitCode;

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::report::PassReport;
use crate::suite::load_report;

/// What the bound says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound and the spread.
    Regression,
    /// One side's own repetitions disagree by more than the bound, so the
    /// two values cannot say "unchanged" (and a worsening inside that
    /// spread cannot say "regressed").
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` is `b` worse (negative: better)?
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge one metric given both medians and both sides' round spread.
pub fn judge(def: &MetricDef, a: f64, b: f64, spread: f64) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worse = worse_by(def, a, b);
    if worse > bound && worse > spread {
        Verdict::Regression
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn untraced(passes: &[PassReport]) -> impl Iterator<Item = &PassReport> {
    passes.iter().filter(|p| !p.traced)
}

/// Compare two sets of passes; returns the printed table and whether any
/// row is a regression or any workload's fail share rose.
pub fn compare(a: &[PassReport], b: &[PassReport]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    let mut bad = false;
    for pa in untraced(a) {
        let Some(pb) = untraced(b).find(|p| p.workload == pa.workload) else {
            out.push_str(&format!("{:<16} missing from B\n", pa.workload));
            bad = true;
            continue;
        };
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (pa.metric(def.name), pb.metric(def.name)) else {
                out.push_str(&format!("{:<16} {:<14} missing\n", pa.workload, def.name));
                bad = true;
                continue;
            };
            let spread = ma.spread.max(mb.spread);
            let verdict = judge(def, ma.value, mb.value, spread);
            bad |= verdict == Verdict::Regression;
            out.push_str(&format!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>8.1}% {:>7.1}% {:>6.0}%  {}\n",
                pa.workload,
                def.name,
                ma.value,
                mb.value,
                100.0 * worse_by(def, ma.value, mb.value),
                100.0 * spread,
                100.0 * def.bound.unwrap_or(0.0),
                verdict.label()
            ));
        }
        let (fa, fb) = (pa.fail_share(), pb.fail_share());
        let rose = fb > fa;
        bad |= rose;
        out.push_str(&format!(
            "{:<16} {:<14} {:>14.6} {:>14.6} {:>9} {:>8} {:>6.0}%  {}\n",
            pa.workload,
            "fail_share",
            fa,
            fb,
            "",
            "",
            0.0,
            if rose { "regression" } else { "within" }
        ));
        out.push_str(&format!(
            "{:<16} {:<14} {:>14} {:>14}  {}\n",
            pa.workload,
            "stats_digest",
            format!("{:016x}", pa.stats_digest),
            format!("{:016x}", pb.stats_digest),
            if pa.seed != pb.seed {
                "different seeds"
            } else if pa.stats_digest == pb.stats_digest {
                "identical: both simulate the same"
            } else {
                "DIFFERENT: the simulated statistics changed"
            }
        ));
    }
    (out, bad)
}

/// Entry point of `bench --compare`.
pub fn main(a: &str, b: &str) -> ExitCode {
    match (load_report(a), load_report(b)) {
        (Ok(pa), Ok(pb)) => {
            let (table, bad) = compare(&pa, &pb);
            print!("{table}");
            if bad {
                println!("regression: {b} is worse than {a} beyond a bound, or fails more");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(why), _) | (_, Err(why)) => {
            eprintln!("bench --compare: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, Values};

    fn pass(wall_s: f64, spread: f64, failed: usize) -> PassReport {
        let mut values = Values::default();
        values.set("wall_s", wall_s);
        let mut report = PassReport::new("low_load", 1, false, &values, |name| {
            (if name == "wall_s" { spread } else { 0.0 }, Vec::new())
        });
        report.attempted = 10;
        report.failures = vec!["x".to_string(); failed];
        report
    }

    #[test]
    fn bounds_respect_the_better_direction() {
        let wall = end_to_end("wall_s").expect("defined");
        let rate = end_to_end("cycles_per_s").expect("defined");
        assert!((worse_by(wall, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worse_by(rate, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(rate, 100.0, 120.0) < 0.0);
        assert_eq!(judge(wall, 1.0, 1.05, 0.01), Verdict::Within);
        assert_eq!(judge(wall, 1.0, 1.30, 0.01), Verdict::Regression);
        assert_eq!(judge(wall, 1.0, 0.50, 0.01), Verdict::Within);
        assert_eq!(judge(wall, 1.0, 1.05, 0.40), Verdict::Unresolved);
        assert_eq!(judge(wall, 1.0, 1.30, 0.40), Verdict::Unresolved);
        assert_eq!(judge(wall, 1.0, 1.60, 0.40), Verdict::Regression);
    }

    #[test]
    fn regressions_and_new_failures_fail_the_comparison() {
        let base = [pass(1.0, 0.01, 0)];
        let (table, bad) = compare(&base, &[pass(1.01, 0.01, 0)]);
        assert!(!bad, "{table}");
        assert!(table.contains("within"));
        let (table, bad) = compare(&base, &[pass(1.5, 0.01, 0)]);
        assert!(bad && table.contains("regression"), "{table}");
        let (_, bad) = compare(&base, &[pass(1.0, 0.01, 1)]);
        assert!(bad, "a higher fail share is a regression");
        let (table, bad) = compare(&base, &[]);
        assert!(bad && table.contains("missing"));
        let (table, _) = compare(&base, &[pass(1.0, 0.5, 0)]);
        assert!(table.contains("unresolved"), "{table}");
    }
}
