//! The metric tables: name, unit, better-direction and regression bound.
//! `BENCHMARK.json` repeats them for the driver; a unit test keeps the two
//! in step. README.md has the glossary and says which end-to-end metric
//! each per-layer metric should move, on which workload.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of either table. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit; all times are host time unless the name starts with `sim_`.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off.
/// `fail_share` is not here: the result line carries `attempted` and
/// `failed`, and `--compare` rejects any increase of their ratio.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cycles_per_s", "cycles/s", Higher, 0.25),
    e2e("us_per_packet", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics, reported by every workload's traced pass. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("topology.build_us", "us", Lower),
    layer("routing.table_build_us", "us", Lower),
    layer("routing.route_ns_minimal", "ns", Lower),
    layer("routing.route_ns_updown", "ns", Lower),
    layer("core.placement_us", "us", Lower),
    layer("core.recovery_slice_ns_per_cycle", "ns/cycle", Lower),
    layer("core.quiet_slice_ns_per_cycle", "ns/cycle", Lower),
    layer("core.recovery_slices", "count", Lower),
    layer("core.probes_sent", "count", Lower),
    layer("core.deadlocks_recovered", "count", Higher),
    layer("core.probes_dropped", "count", Lower),
    layer("core.wedged_instances", "count", Lower),
    layer("sim.construct_us", "us", Lower),
    layer("sim.warmup_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.measure_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.slice_ns_per_cycle_p50", "ns/cycle", Lower),
    layer("sim.slice_ns_per_cycle_p95", "ns/cycle", Lower),
    layer("sim.slice_count", "count", Higher),
    layer("sim.ns_per_movement", "ns", Lower),
    layer(
        "sim.traffic_generate_ns_per_cycle_bernoulli",
        "ns/cycle",
        Lower,
    ),
    layer(
        "sim.traffic_generate_ns_per_cycle_geometric",
        "ns/cycle",
        Lower,
    ),
    layer("sim.candidate_masks_ns", "ns", Lower),
    layer("sim.probe_winner_ns", "ns", Lower),
    layer("sim.drain_cycles", "cycles", Lower),
    layer("sim.drain_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.leap_speedup", "ratio", Higher),
    layer("sim.par_tick_speedup_t2", "ratio", Higher),
    layer("sim.audit_now_us", "us", Lower),
    layer("scenario.decode_us", "us", Lower),
    layer("scenario.encode_us", "us", Lower),
    layer("scenario.fingerprint_us", "us", Lower),
    layer("workloads.requests_completed", "count", Higher),
    layer("workloads.us_per_request", "us", Lower),
    layer("fleet.expand_us", "us", Lower),
    layer("fleet.execute_one_us_p50", "us", Lower),
    layer("fleet.execute_one_us_p95", "us", Lower),
    layer("fleet.execute_one_samples", "count", Higher),
    layer("fleet.cold_jobs1_s", "s", Lower),
    layer("fleet.jobs2_speedup", "ratio", Higher),
    layer("fleet.aggregate_us", "us", Lower),
    layer("fleet.report_json_us", "us", Lower),
    layer("fleet.report_bytes", "bytes", Lower),
    layer("fleet.cache_store_us_p50", "us", Lower),
    layer("fleet.cache_load_us_p50", "us", Lower),
    layer("fleet.cache_entry_bytes", "bytes", Lower),
    layer("fleet.simulated", "count", Lower),
    layer("fleet.disk_hits", "count", Higher),
    layer("fleet.unique_scenarios", "count", Lower),
    layer("fleet.warm_pass_s", "s", Lower),
    layer("pool.ordered_map_ns_per_job", "ns", Lower),
    layer("pool.batch_roundtrip_ns", "ns", Lower),
    layer("cli.sbsim_overhead_ms", "ms", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];

/// The end-to-end definition named `name`.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Does `name` fit the contract's name rule (starts with a letter or
/// digit; at most 64 letters, digits, `_`, `.` and `-`)?
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Does `unit` fit the contract's unit rule (at most 16 letters, digits,
/// `_`, `/`, `%`, `.` and `-`)?
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A set of measured values keyed by metric name, in table order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` for `name`; a metric is set at most once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.get(name).is_none(),
            "metric {name} recorded twice in one pass"
        );
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "name {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in Workload::ALL {
            assert!(seen.insert(w.name()), "workload name reuses {}", w.name());
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_unit("flits per cycle"));
        let setup = end_to_end("setup_s").expect("required by the contract");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(widest <= 0.25);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program emits. They must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect("array");
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .expect("string member")
                .to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (item, m) in listed.iter().zip(table) {
                assert_eq!(text_of(item, "name"), m.name);
                assert_eq!(text_of(item, "unit"), m.unit, "{}", m.name);
                assert_eq!(text_of(item, "better"), m.better.label(), "{}", m.name);
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
                let members = item.as_object().expect("object").len();
                assert_eq!(members, if m.bound.is_some() { 4 } else { 3 });
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text_of(item, "name"), w.name());
            let why = text_of(item, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(list("paths").len(), 1);
        assert_eq!(list("paths")[0].as_str(), Some("benchmark"));
    }
}
