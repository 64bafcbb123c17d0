//! **Fig. 8** — low-load average latency of escape-VC and Static Bubble,
//! normalized to the spanning-tree baseline, across the irregular topology
//! space (uniform-random and bit-complement traffic; link and router fault
//! sweeps).
//!
//! At low load no deadlocks occur, so SB and escape VC perform identically;
//! both beat the spanning tree because their routes stay minimal.
//!
//! A fleet client: every (pattern × fault point) cell is a one-point
//! [`SweepSpec`] whose topology-seed axis carries the historical
//! `sample_topologies` per-sample seeds and whose simulation seeds
//! (`100 + topology index`) are patched onto the expanded runs, so the
//! numbers match the pre-fleet version bit for bit while the whole grid
//! fans out over one pool and through the content-addressed
//! result cache (`--cache-dir`).

use sb_bench::{fleet_results, sample_seeds, Args, Design, Table};
use sb_fleet::{merge_runs, SweepRun, SweepSpec};
use sb_topology::FaultKind;

const DESIGNS: [Design; 4] = [
    Design::SpanningTree,
    Design::TreeOnly,
    Design::EscapeVc,
    Design::StaticBubble,
];

fn batch(pattern: &str, kind: FaultKind, faults: usize, args: &Args) -> Vec<SweepRun> {
    let topos = args.get_usize("topos", 10);
    let mut spec = SweepSpec::new("fig08");
    spec.link_faults = vec![];
    spec.router_faults = vec![];
    match kind {
        FaultKind::Links => spec.link_faults = vec![faults],
        FaultKind::Routers => spec.router_faults = vec![faults],
    }
    spec.topo_seeds = sample_seeds(0xF16_0008 + faults as u64, topos);
    spec.designs = DESIGNS.iter().map(|d| d.label().to_string()).collect();
    spec.rates = vec![args.get_f64("rate", 0.05)];
    spec.seeds = vec![0]; // placeholder; patched per topology below
    spec.pattern = if pattern == "uniform" {
        "uniform".into()
    } else {
        "bit-complement".into()
    };
    spec.warmup = 1_000;
    spec.cycles = args.get_u64("cycles", 4_000);
    // Expansion order is topo_seed (outer) → design → rate → seed, so run
    // `j` pairs with topology `j / DESIGNS.len()`; restore the historical
    // simulation seed 100+topo onto each run.
    let mut runs = spec.expand().expect("fig08 grid");
    for (j, run) in runs.iter_mut().enumerate() {
        run.scenario.seed = 100 + (j / DESIGNS.len()) as u64;
    }
    runs
}

fn main() {
    let args = Args::parse_spec(
        "fig08",
        "low-load latency normalized to spanning tree",
        &[
            ("topos", "10"),
            ("cycles", "4000"),
            ("rate", "0.05"),
            ("csv", "-"),
        ],
    );
    let topos = args.get_usize("topos", 10);

    let link_points = [1usize, 5, 13, 21, 29, 37, 45, 53, 61];
    let router_points = [1usize, 4, 8, 12, 16, 21, 26, 31];
    let cells: Vec<(&str, FaultKind, usize)> = ["uniform", "bitcomp"]
        .iter()
        .flat_map(|&pattern| {
            [
                (FaultKind::Links, link_points.as_slice()),
                (FaultKind::Routers, router_points.as_slice()),
            ]
            .into_iter()
            .flat_map(move |(kind, points)| {
                points.iter().map(move |&faults| (pattern, kind, faults))
            })
        })
        .collect();

    // One merged grid: the pool schedules every cell's runs together (no
    // idle workers at cell boundaries) and the cache dedups across cells.
    let batches: Vec<(String, Vec<SweepRun>)> = cells
        .iter()
        .map(|&(pattern, kind, faults)| (pattern.to_string(), batch(pattern, kind, faults, &args)))
        .collect();
    let cell_sizes: Vec<usize> = batches.iter().map(|(_, b)| b.len()).collect();
    let runs = merge_runs(batches).expect("fig08 cells have distinct keys");
    let results = fleet_results("fig08", &runs, &args);

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
    let mut offset = 0usize;
    for (&(pattern, kind, faults), &size) in cells.iter().zip(&cell_sizes) {
        let cell = &results[offset..offset + size];
        offset += size;
        let mut sums = [0.0f64; 4];
        let mut n = 0usize;
        for topo_idx in 0..topos {
            let lat: Vec<Option<f64>> = (0..DESIGNS.len())
                .map(|k| {
                    let res = cell[topo_idx * DESIGNS.len() + k]
                        .as_ref()
                        .unwrap_or_else(|e| panic!("fig08 run failed: {e}"));
                    res.stats.avg_latency()
                })
                .collect();
            if let (Some(a), Some(b), Some(c), Some(d2)) = (lat[0], lat[1], lat[2], lat[3]) {
                sums[0] += a;
                sums[1] += b;
                sums[2] += c;
                sums[3] += d2;
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
    table.print();
    if let Some(path) = args.get_str("csv") {
        table
            .write_csv(std::path::Path::new(path))
            .expect("write csv");
    }
}
