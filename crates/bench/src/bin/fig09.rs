//! **Fig. 9** — saturation throughput of the three designs, normalized to
//! the spanning tree, across link- and router-fault sweeps with uniform
//! random traffic.
//!
//! Saturation is measured as the knee of the offered/delivered curve
//! (highest rate with acceptance ≥ 92%), the standard definition; see
//! `DESIGN.md` on overload behaviour.
//!
//! A fleet client: each fault point expands to a topology × design × rate
//! grid with the historical `sample_topologies` seeds on the topology axis
//! and simulation seed `200 + topology index` patched per run. Unlike the
//! pre-fleet version, the whole rate ladder simulates (no early break past
//! the knee) — every rung becomes a cacheable, content-addressed result —
//! while the knee arithmetic below is that of the pre-fleet early-break walk,
//! so the table is unchanged.

use sb_bench::{fleet_results, sample_seeds, Args, Design, Table};
use sb_fleet::{merge_runs, RunResult, SweepRun, SweepSpec};
use sb_topology::FaultKind;

const DESIGNS: [Design; 4] = [
    Design::SpanningTree,
    Design::TreeOnly,
    Design::EscapeVc,
    Design::StaticBubble,
];
const RATES: [f64; 9] = [0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.36];
const ACCEPT: f64 = 0.92;

/// The knee of one (topology, design) rate ladder: highest sustained
/// throughput; the first failing rung contributes `min(thr, rate)` and
/// ends the walk (deeper rungs only wedge harder).
fn knee(ladder: &[(f64, &RunResult)], nodes: usize) -> f64 {
    let mut best = 0.0f64;
    for &(rate, res) in ladder {
        let thr = res.stats.throughput(nodes);
        if res.stats.acceptance() >= ACCEPT {
            best = best.max(thr);
        } else {
            best = best.max(thr.min(rate));
            break;
        }
    }
    best
}

fn batch(kind: FaultKind, faults: usize, args: &Args) -> Vec<SweepRun> {
    let topos = args.get_usize("topos", 6);
    let mut spec = SweepSpec::new("fig09");
    spec.link_faults = vec![];
    spec.router_faults = vec![];
    match kind {
        FaultKind::Links => spec.link_faults = vec![faults],
        FaultKind::Routers => spec.router_faults = vec![faults],
    }
    spec.topo_seeds = sample_seeds(0xF16_0009 + faults as u64, topos);
    spec.designs = DESIGNS.iter().map(|d| d.label().to_string()).collect();
    spec.rates = RATES.to_vec();
    spec.seeds = vec![0]; // placeholder; patched per topology below
    spec.warmup = args.get_u64("warmup", 2_000);
    spec.cycles = args.get_u64("window", 6_000);
    // Expansion order: topo_seed → design → rate → seed, so run `j` pairs
    // with topology `j / (designs × rates)`.
    let mut runs = spec.expand().expect("fig09 grid");
    for (j, run) in runs.iter_mut().enumerate() {
        run.scenario.seed = 200 + (j / (DESIGNS.len() * RATES.len())) as u64;
    }
    runs
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
        ],
    );
    let topos = args.get_usize("topos", 6);

    let link_points = [1usize, 9, 17, 25, 33, 41, 49];
    let router_points = [1usize, 6, 11, 16, 21, 26, 31];
    let cells: Vec<(FaultKind, usize)> = [
        (FaultKind::Links, link_points.as_slice()),
        (FaultKind::Routers, router_points.as_slice()),
    ]
    .into_iter()
    .flat_map(|(kind, points)| points.iter().map(move |&f| (kind, f)))
    .collect();

    let batches: Vec<(String, Vec<SweepRun>)> = cells
        .iter()
        .map(|&(kind, faults)| (String::new(), batch(kind, faults, &args)))
        .collect();
    let cell_sizes: Vec<usize> = batches.iter().map(|(_, b)| b.len()).collect();
    let runs = merge_runs(batches).expect("fig09 cells have distinct keys");
    let results = fleet_results("fig09", &runs, &args);

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
    let mut offset = 0usize;
    for (&(kind, faults), &size) in cells.iter().zip(&cell_sizes) {
        let cell = &results[offset..offset + size];
        offset += size;
        let mut sums = [0.0f64; 4];
        for topo_idx in 0..topos {
            for (k, _) in DESIGNS.iter().enumerate() {
                let base = (topo_idx * DESIGNS.len() + k) * RATES.len();
                let ladder: Vec<(f64, &RunResult)> = RATES
                    .iter()
                    .enumerate()
                    .map(|(r, &rate)| {
                        let res = cell[base + r]
                            .as_ref()
                            .unwrap_or_else(|e| panic!("fig09 run failed: {e}"));
                        (rate, res)
                    })
                    .collect();
                sums[k] += knee(&ladder, ladder[0].1.nodes);
            }
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
    table.print();
    if let Some(path) = args.get_str("csv") {
        table
            .write_csv(std::path::Path::new(path))
            .expect("write csv");
    }
}
