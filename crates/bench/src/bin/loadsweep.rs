//! **Supplemental** — the classic offered-load vs. latency/throughput curve
//! for all four designs on one representative irregular topology (the raw
//! curve whose knees Fig. 9 summarizes).
//!
//! A thin fleet client: the design × rate grid is one list of scenarios run
//! by [`run_grid`], one run per worker (`--jobs 1` is the sequential
//! reference path, `--cache-dir` memoizes the runs), and each table row
//! reads its rate's results in the order the list was built — so the
//! printed table is identical for any `--jobs` value.

use sb_bench::{run_grid, Args, Design, Scenario, Table};
use sb_scenario::FaultSpec;
use sb_topology::FaultKind;

fn main() {
    let args = Args::parse_spec(
        "loadsweep",
        "latency/throughput vs offered load on one faulty topology",
        &[
            ("faults", "15"),
            ("seed", "1"),
            ("window", "6000"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let count: usize = args.get("faults", 15);
    let seed: u64 = args.get("seed", 1);
    let window: u64 = args.get("window", 6_000);

    let designs = [
        Design::SpanningTree,
        Design::TreeOnly,
        Design::EscapeVc,
        Design::StaticBubble,
    ];
    let rates = [0.02, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20, 0.25];
    let faults = match count {
        0 => FaultSpec::Pristine,
        count => FaultSpec::Model {
            kind: FaultKind::Links,
            count,
            seed,
        },
    };
    let mut scenarios = Vec::new();
    for design in designs {
        for rate in rates {
            scenarios.push(
                Scenario::new(format!("loadsweep/r{rate}"), design)
                    .with_faults(faults)
                    .with_rate(rate)
                    .with_warmup(1_500)
                    .with_cycles(window)
                    .with_seed(7),
            );
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        &format!("Load sweep on an 8x8 mesh with {count} link faults (latency cycles | thr flits/node/cycle)"),
        &[
            "rate",
            "updown_lat", "updown_thr",
            "treeonly_lat", "treeonly_thr",
            "evc_lat", "evc_thr",
            "sb_lat", "sb_thr",
        ],
    );
    for (r, rate) in rates.into_iter().enumerate() {
        let mut row = vec![format!("{rate:.2}")];
        for res in results.iter().skip(r).step_by(rates.len()) {
            row.push(format!(
                "{:.1}",
                res.stats.avg_latency().unwrap_or(f64::NAN)
            ));
            row.push(format!("{:.3}", res.stats.throughput(res.nodes)));
        }
        table.row(&row);
    }
    table.finish(args.get_str("csv"));
}
