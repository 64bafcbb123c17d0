//! What one pass over one workload reports: the contract's result line
//! for the driver, and a `detail` line (samples, digest, failure reasons)
//! that the all-workloads mode and `--compare` read.

use crate::json::{number, quote, Json};
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::summary::{median, min_max};

/// One metric as reported: the figure, and the per-round samples behind it
/// (empty for per-layer metrics, which are computed once per pass).
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// How far `value` moves between two halves of the pass's own
    /// repetitions, as a share of it (0 where that was not measured).
    pub spread: f64,
    /// Whole-round samples, for the median/min/max print.
    pub samples: Vec<f64>,
}

/// The outcome of one pass (traced or not) over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Was this the traced pass?
    pub traced: bool,
    /// Digest of every `Stats` the workload produced.
    pub stats_digest: u64,
    /// Executions attempted.
    pub attempted: u64,
    /// Reasons of the executions that failed (one each).
    pub failures: Vec<String>,
    /// The metrics of this pass's table, in table order.
    pub metrics: Vec<Reported>,
}

impl PassReport {
    /// Assemble a report: every metric of the pass's table, with the
    /// spread and samples `repeats_of` knows for it.
    pub fn new(
        workload: &str,
        seed: u64,
        traced: bool,
        values: &Values,
        repeats_of: impl Fn(&str) -> (f64, Vec<f64>),
    ) -> PassReport {
        let table: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        PassReport {
            workload: workload.to_string(),
            seed,
            traced,
            stats_digest: 0,
            attempted: 0,
            failures: Vec::new(),
            metrics: table
                .iter()
                .map(|m| {
                    let (spread, samples) = repeats_of(m.name);
                    Reported {
                        name: m.name.to_string(),
                        unit: m.unit.to_string(),
                        value: values.get(m.name).unwrap_or(0.0),
                        spread,
                        samples,
                    }
                })
                .collect(),
        }
    }

    /// Executions that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed ÷ attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Reported> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed(),
            members.join(", ")
        )
    }

    /// Everything, as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples: Vec<String> = m.samples.iter().map(|&s| number(s)).collect();
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"value\": {}, \"spread\": {}, \"samples\": [{}]}}",
                    quote(&m.name),
                    quote(&m.unit),
                    number(m.value),
                    number(m.spread),
                    samples.join(", ")
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"stats_digest\": {}, \
             \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": [{}]}}",
            quote(&self.workload),
            self.seed,
            self.traced,
            quote(&format!("{:016x}", self.stats_digest)),
            self.attempted,
            self.failed(),
            failures.join(", "),
            metrics.join(", ")
        )
    }

    /// Inverse of [`PassReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<PassReport, String> {
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("pass report: no string `{key}`"))
        };
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("pass report: no number `{key}`"))
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("pass report: no array `{key}`"))
        };
        let metrics = list("metrics")?
            .iter()
            .map(|m| {
                let field = |key: &str| m.get(key).ok_or(format!("metric: no `{key}`"));
                Ok(Reported {
                    name: field("name")?.as_str().ok_or("metric name")?.to_string(),
                    unit: field("unit")?.as_str().ok_or("metric unit")?.to_string(),
                    value: field("value")?.as_f64().ok_or("metric value")?,
                    spread: field("spread")?.as_f64().ok_or("metric spread")?,
                    samples: field("samples")?
                        .as_array()
                        .ok_or("metric samples")?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PassReport {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            traced: matches!(doc.get("traced"), Some(Json::Bool(true))),
            stats_digest: u64::from_str_radix(&text("stats_digest")?, 16)
                .map_err(|e| format!("stats_digest: {e}"))?,
            attempted: num("attempted")? as u64,
            failures: list("failures")?
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect(),
            metrics,
        })
    }

    /// Human-readable rendering: one line per metric with its unit — for
    /// an end-to-end metric also the median, min, max and count of the
    /// whole rounds behind it — then the digest and any failures.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {}): {} ops attempted, {} failed, stats_digest {:016x}\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass, per-layer"
            } else {
                "tracing off, end-to-end"
            },
            self.attempted,
            self.failed(),
            self.stats_digest
        );
        for m in &self.metrics {
            if m.samples.is_empty() {
                out.push_str(&format!("  {:<46} {:>16.4} {}\n", m.name, m.value, m.unit));
            } else {
                let (lo, hi) = min_max(&m.samples);
                out.push_str(&format!(
                    "  {:<14} {:>15.6} {:<9} rounds: median {:.6} min {:.6} max {:.6} n={}\n",
                    m.name,
                    m.value,
                    m.unit,
                    median(&m.samples),
                    lo,
                    hi,
                    m.samples.len()
                ));
            }
        }
        let mut reasons: Vec<&String> = self.failures.iter().collect();
        reasons.dedup();
        for why in reasons.iter().take(8) {
            out.push_str(&format!("  FAILED: {why}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PassReport {
        let mut values = Values::default();
        values.set("wall_s", 1.25);
        values.set("setup_s", 0.012_345_678_9);
        let mut report = PassReport::new("low_load", 7, false, &values, |name| {
            if name == "wall_s" {
                (0.015, vec![1.5, 1.25, 1.0])
            } else {
                (0.0, Vec::new())
            }
        });
        report.stats_digest = 0xdead_beef_0000_0001;
        report.attempted = 12;
        report.failures = vec!["low_load-3: \"wedged\"".to_string()];
        report
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = sample_report();
        let doc = crate::json::parse(&report.result_line()).expect("valid JSON");
        let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(12.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .expect("object");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.012_345_678_9),
            "all digits survive"
        );
        assert!(!report.result_line().contains('\n'));
    }

    #[test]
    fn detail_round_trips() {
        let report = sample_report();
        let doc = crate::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(PassReport::from_json(&doc), Ok(report.clone()));
        assert!((report.fail_share() - 1.0 / 12.0).abs() < 1e-12);
        assert!(report.render().contains("n=3"));
    }
}
