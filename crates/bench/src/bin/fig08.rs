//! **Fig. 8** — low-load average latency of escape-VC and Static Bubble,
//! normalized to the spanning-tree baseline, across the irregular topology
//! space (uniform-random and bit-complement traffic; link and router fault
//! sweeps).
//!
//! At low load no deadlocks occur, so SB and escape VC perform identically;
//! both beat the spanning tree because their routes stay minimal.
//!
//! A fleet client: the pattern × fault point × topology × design grid is
//! one list of scenarios — the historical `sample_topologies` seeds
//! through `FaultSpec::Model`, simulation seed `100 + topology index` — run
//! by [`run_grid`] over the pool and the result cache (`--cache-dir`), and
//! the table folds the results in the order the list was built.

use sb_bench::{run_grid, sample_seeds, Args, Design, Scenario, Table};
use sb_scenario::{FaultSpec, TrafficSpec};
use sb_topology::FaultKind;

const DESIGNS: [Design; 4] = [
    Design::SpanningTree,
    Design::TreeOnly,
    Design::EscapeVc,
    Design::StaticBubble,
];

fn main() {
    let args = Args::parse_spec(
        "fig08",
        "low-load latency normalized to spanning tree",
        &[
            ("topos", "10"),
            ("cycles", "4000"),
            ("rate", "0.05"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let topos: usize = args.get("topos", 10);
    let cycles: u64 = args.get("cycles", 4_000);
    let rate: f64 = args.get("rate", 0.05);

    let link_points = [1usize, 5, 13, 21, 29, 37, 45, 53, 61];
    let router_points = [1usize, 4, 8, 12, 16, 21, 26, 31];
    let mut cells = Vec::new();
    let mut scenarios = Vec::new();
    for pattern in ["uniform", "bitcomp"] {
        let traffic = match pattern {
            "uniform" => TrafficSpec::Uniform {
                rate,
                single_vnet: true,
            },
            _ => TrafficSpec::BitComplement {
                rate,
                single_vnet: true,
            },
        };
        for (kind, points) in [
            (FaultKind::Links, &link_points[..]),
            (FaultKind::Routers, &router_points[..]),
        ] {
            for &count in points {
                cells.push((pattern, kind, count));
                let seeds = sample_seeds(0xF16_0008 + count as u64, topos);
                for (t, seed) in seeds.into_iter().enumerate() {
                    for design in DESIGNS {
                        scenarios.push(
                            Scenario::new(format!("fig08/{pattern}/{kind:?}:{count}/t{t}"), design)
                                .with_faults(FaultSpec::Model { kind, count, seed })
                                .with_traffic(traffic)
                                .with_cycles(cycles)
                                .with_seed(100 + t as u64),
                        );
                    }
                }
            }
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        "Fig. 8: avg low-load latency normalized to spanning tree (lower is better)",
        &[
            "pattern",
            "kind",
            "faults",
            "updown_lat",
            "tree_only_norm",
            "escape_vc_norm",
            "static_bubble_norm",
        ],
    );
    let per_cell = topos * DESIGNS.len();
    for ((pattern, kind, faults), cell) in cells.into_iter().zip(results.chunks(per_cell)) {
        let mut sums = [0.0f64; 4];
        let mut n = 0usize;
        for topo in cell.chunks(DESIGNS.len()) {
            let lat: Vec<f64> = topo.iter().filter_map(|r| r.stats.avg_latency()).collect();
            if lat.len() == DESIGNS.len() {
                for (sum, l) in sums.iter_mut().zip(lat) {
                    *sum += l;
                }
                n += 1;
            }
        }
        if n == 0 {
            continue;
        }
        let sp = sums[0] / n as f64;
        table.row(&[
            pattern.to_string(),
            format!("{kind:?}"),
            faults.to_string(),
            format!("{sp:.1}"),
            format!("{:.3}", sums[1] / n as f64 / sp),
            format!("{:.3}", sums[2] / n as f64 / sp),
            format!("{:.3}", sums[3] / n as f64 / sp),
        ]);
    }
    table.finish(args.get_str("csv"));
}
