//! **Supplemental** — the classic offered-load vs. latency/throughput curve
//! for all four designs on one representative irregular topology (the raw
//! curve whose knees Fig. 9 summarizes).
//!
//! A thin fleet client: the grid is a [`SweepSpec`], execution fans out
//! one run per worker (`--jobs 1` is the sequential reference path,
//! `--cache-dir` memoizes the runs), and the cells come from the aggregated
//! report — so the printed table is identical for any `--jobs` value.

use std::collections::HashMap;

use sb_bench::{cache_from_args, sweep::jobs_from_args, Args, Table};
use sb_fleet::{run_sweep, ExecOptions, SweepSpec};
use sb_scenario::Design;

fn main() {
    let args = Args::parse_spec(
        "loadsweep",
        "latency/throughput vs offered load on one faulty topology",
        &[
            ("faults", "15"),
            ("seed", "1"),
            ("window", "6000"),
            ("csv", "-"),
        ],
    );
    let faults = args.get_usize("faults", 15);
    let seed = args.get_u64("seed", 1);
    let window = args.get_u64("window", 6_000);
    let jobs = jobs_from_args(&args);

    let designs = [
        Design::SpanningTree,
        Design::TreeOnly,
        Design::EscapeVc,
        Design::StaticBubble,
    ];
    let rates = vec![0.02, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20, 0.25];

    let mut spec = SweepSpec::new("loadsweep");
    spec.meshes = vec!["8x8".into()];
    spec.link_faults = vec![faults];
    spec.topo_seeds = vec![seed];
    spec.designs = designs.iter().map(|d| d.label().to_string()).collect();
    spec.rates = rates.clone();
    spec.seeds = vec![7];
    spec.warmup = 1_500;
    spec.cycles = window;

    // Index the aggregated points by (design, rate) through the expansion
    // (group keys match between expand() and the report).
    let runs = spec.expand().expect("loadsweep grid");
    let coords: HashMap<&str, (Design, f64)> = runs
        .iter()
        .map(|r| (r.group.as_str(), (r.scenario.design, r.rate)))
        .collect();
    let cache = cache_from_args(&args);
    let (report, acct) =
        run_sweep(&spec, jobs, ExecOptions::default(), &cache).expect("loadsweep sweep");
    if cache.dir.is_some() {
        eprintln!("{}", acct.to_json_line());
    }
    let mut cells: HashMap<(Design, u64), (f64, f64)> = HashMap::new();
    for point in &report.points {
        let (design, rate) = coords[point.group.as_str()];
        cells.insert(
            (design, rate.to_bits()),
            (
                point.latency.mean.unwrap_or(f64::NAN),
                point.throughput.mean.unwrap_or(f64::NAN),
            ),
        );
    }

    let mut table = Table::new(
        &format!("Load sweep on an 8x8 mesh with {faults} link faults (latency cycles | thr flits/node/cycle)"),
        &[
            "rate",
            "updown_lat", "updown_thr",
            "treeonly_lat", "treeonly_thr",
            "evc_lat", "evc_thr",
            "sb_lat", "sb_thr",
        ],
    );
    for &rate in &rates {
        let mut row = vec![format!("{rate:.2}")];
        for d in designs {
            let (lat, thr) = cells[&(d, rate.to_bits())];
            row.push(format!("{lat:.1}"));
            row.push(format!("{thr:.3}"));
        }
        table.row(&row);
    }
    table.print();
    if let Some(path) = args.get_str("csv") {
        table
            .write_csv(std::path::Path::new(path))
            .expect("write csv");
    }
}
