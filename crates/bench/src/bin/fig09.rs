//! **Fig. 9** — saturation throughput of the three designs, normalized to
//! the spanning tree, across link- and router-fault sweeps with uniform
//! random traffic.
//!
//! Saturation is measured as the knee of the offered/delivered curve
//! (highest rate with acceptance ≥ 92%), the standard definition; see
//! `DESIGN.md` on overload behaviour.
//!
//! A fleet client: each fault point is a topology × design × rate list
//! of scenarios with the historical `sample_topologies` seeds on the
//! topology axis and simulation seed `200 + topology index`. Unlike the
//! pre-fleet version, the whole rate ladder simulates (no early break past
//! the knee) — every rung becomes a cacheable, content-addressed result —
//! while the knee arithmetic below is that of the pre-fleet early-break walk,
//! so the table is unchanged.

use sb_bench::{run_grid, sample_seeds, Args, Design, Scenario, Table};
use sb_fleet::RunResult;
use sb_scenario::FaultSpec;
use sb_topology::FaultKind;

const DESIGNS: [Design; 4] = [
    Design::SpanningTree,
    Design::TreeOnly,
    Design::EscapeVc,
    Design::StaticBubble,
];
const RATES: [f64; 9] = [0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.36];
const ACCEPT: f64 = 0.92;

/// The knee of one (topology, design) rate ladder, one result per rung of
/// [`RATES`]: highest sustained throughput; the first failing rung
/// contributes `min(thr, rate)` and ends the walk (deeper rungs only wedge
/// harder).
fn knee(ladder: &[RunResult]) -> f64 {
    let mut best = 0.0f64;
    for (&rate, res) in RATES.iter().zip(ladder) {
        let thr = res.stats.throughput(res.nodes);
        if res.stats.acceptance() >= ACCEPT {
            best = best.max(thr);
        } else {
            best = best.max(thr.min(rate));
            break;
        }
    }
    best
}

fn main() {
    let args = Args::parse_spec(
        "fig09",
        "saturation throughput normalized to spanning tree",
        &[
            ("topos", "6"),
            ("window", "6000"),
            ("warmup", "2000"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let topos: usize = args.get("topos", 6);
    let warmup: u64 = args.get("warmup", 2_000);
    let window: u64 = args.get("window", 6_000);

    let link_points = [1usize, 9, 17, 25, 33, 41, 49];
    let router_points = [1usize, 6, 11, 16, 21, 26, 31];
    let mut cells = Vec::new();
    let mut scenarios = Vec::new();
    for (kind, points) in [
        (FaultKind::Links, &link_points[..]),
        (FaultKind::Routers, &router_points[..]),
    ] {
        for &count in points {
            cells.push((kind, count));
            let seeds = sample_seeds(0xF16_0009 + count as u64, topos);
            for (t, seed) in seeds.into_iter().enumerate() {
                for design in DESIGNS {
                    for rate in RATES {
                        scenarios.push(
                            Scenario::new(format!("fig09/{kind:?}:{count}/t{t}"), design)
                                .with_faults(FaultSpec::Model { kind, count, seed })
                                .with_rate(rate)
                                .with_warmup(warmup)
                                .with_cycles(window)
                                .with_seed(200 + t as u64),
                        );
                    }
                }
            }
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        "Fig. 9: saturation throughput (flits/node/cycle) and normalization to sp-tree",
        &[
            "kind",
            "faults",
            "updown",
            "tree_only",
            "escape_vc",
            "static_bubble",
            "evc_vs_updown",
            "sb_vs_updown",
            "sb_vs_tree_only",
        ],
    );
    let per_cell = topos * DESIGNS.len() * RATES.len();
    for ((kind, faults), cell) in cells.into_iter().zip(results.chunks(per_cell)) {
        let mut sums = [0.0f64; 4];
        for (i, ladder) in cell.chunks(RATES.len()).enumerate() {
            sums[i % DESIGNS.len()] += knee(ladder);
        }
        let n = topos as f64;
        let (sp, tree, evc, sb) = (sums[0] / n, sums[1] / n, sums[2] / n, sums[3] / n);
        table.row(&[
            format!("{kind:?}"),
            faults.to_string(),
            format!("{sp:.3}"),
            format!("{tree:.3}"),
            format!("{evc:.3}"),
            format!("{sb:.3}"),
            format!("{:.2}", evc / sp.max(1e-9)),
            format!("{:.2}", sb / sp.max(1e-9)),
            format!("{:.2}", sb / tree.max(1e-9)),
        ]);
    }
    table.finish(args.get_str("csv"));
}
