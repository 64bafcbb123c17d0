//! **Fig. 11** — deadlock-detection threshold (`t_DD`) sweep at high load
//! with 20 router faults: probes sent over 10K cycles, link utilization per
//! message class, and average packet latency.
//!
//! A fleet client: the `t_DD` × topology grid is one list of scenarios
//! with the historical topology seeds and per-topology simulation seeds
//! (`400 + index`), run by [`run_grid`]. Per-class link utilization needs
//! the alive-link count, which rematerializes from each scenario.

use sb_bench::{run_grid, sample_seeds, Args, Design, Scenario, Table};
use sb_scenario::FaultSpec;
use sb_sim::SpecialClass;
use sb_topology::FaultKind;

fn main() {
    let args = Args::parse_spec(
        "fig11",
        "t_DD sweep: probe count and per-class link utilization",
        &[
            ("topos", "8"),
            ("cycles", "10000"),
            ("rate", "0.30"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let topos: usize = args.get("topos", 8);
    let cycles: u64 = args.get("cycles", 10_000);
    let rate: f64 = args.get("rate", 0.30);

    let tdds = [5u64, 10, 20, 34, 60, 100];
    let (kind, count) = (FaultKind::Routers, 20);
    let seeds = sample_seeds(0xF16_0011, topos);
    let mut scenarios = Vec::new();
    for tdd in tdds {
        for (t, &seed) in seeds.iter().enumerate() {
            scenarios.push(
                Scenario::new(format!("fig11/tdd{tdd}/t{t}"), Design::StaticBubble)
                    .with_faults(FaultSpec::Model { kind, count, seed })
                    .with_rate(rate)
                    .with_warmup(0)
                    .with_cycles(cycles)
                    .with_tdd(tdd)
                    .with_seed(400 + t as u64),
            );
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        "Fig. 11: t_DD sweep (SB, 20 router faults, high load, 10K cycles)",
        &[
            "t_dd",
            "probes_10k",
            "probe_util_pct",
            "disable_util_pct",
            "cp_util_pct",
            "enable_util_pct",
            "flit_util_pct",
            "avg_latency",
            "recovered",
        ],
    );
    let cells = scenarios.chunks(topos).zip(results.chunks(topos));
    for (tdd, (scenarios, results)) in tdds.into_iter().zip(cells) {
        let mut probes = 0.0;
        let mut util = [0.0f64; 4];
        let mut flit_util = 0.0;
        let mut lat = 0.0;
        let mut lat_n = 0usize;
        let mut recovered = 0u64;
        for (scenario, res) in scenarios.iter().zip(results) {
            let links = scenario.topology().alive_links().count() * 2;
            probes += res.stats.probes_sent as f64;
            recovered += res.stats.deadlocks_recovered;
            for c in SpecialClass::ALL {
                util[c.index()] += 100.0 * res.stats.special_link_utilization(c, links);
            }
            flit_util += 100.0 * res.stats.data_link_utilization(links);
            if let Some(l) = res.stats.avg_latency() {
                lat += l;
                lat_n += 1;
            }
        }
        let n = topos as f64;
        table.row(&[
            tdd.to_string(),
            format!("{:.0}", probes / n),
            format!("{:.2}", util[SpecialClass::Probe.index()] / n),
            format!("{:.2}", util[SpecialClass::Disable.index()] / n),
            format!("{:.2}", util[SpecialClass::CheckProbe.index()] / n),
            format!("{:.2}", util[SpecialClass::Enable.index()] / n),
            format!("{:.1}", flit_util / n),
            format!(
                "{:.1}",
                if lat_n > 0 {
                    lat / lat_n as f64
                } else {
                    f64::NAN
                }
            ),
            recovered.to_string(),
        ]);
    }
    table.finish(args.get_str("csv"));
}
