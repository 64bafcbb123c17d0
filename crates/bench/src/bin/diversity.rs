//! **Motivation metric** — path diversity collapse on irregular topologies
//! (Section I: "these topologies offer much less path-diversity compared to
//! a regular topology like a Mesh and thus are more prone to deadlocks").
//!
//! Reports the average number of distinct minimal paths per reachable pair
//! (capped per pair to keep long corner pairs from dominating), plus the
//! fraction of pairs left with a *single* minimal path — the pairs that
//! deadlock-prone minimal routing cannot spread at all.

use sb_bench::{sweep::jobs_from_args, Args, Table};
use sb_routing::MinimalRouting;
use sb_topology::{FaultKind, FaultModel, Mesh};

fn main() {
    let args = Args::parse_spec(
        "diversity",
        "minimal-path diversity vs faults",
        &[("topos", "12"), ("cap", "64"), ("csv", "-"), ("jobs", "0")],
    );
    let topos: usize = args.get("topos", 12);
    let cap: u128 = args.get("cap", 64);
    let mesh = Mesh::new(8, 8);
    let jobs = jobs_from_args(&args);

    let mut table = Table::new(
        "Path diversity vs faults (avg minimal paths per pair, capped; % single-path pairs)",
        &["kind", "faults", "avg_diversity", "single_path_pct"],
    );
    for (kind, points) in [
        (FaultKind::Links, vec![0usize, 5, 10, 20, 30, 40, 50]),
        (FaultKind::Routers, vec![4usize, 8, 16, 24, 32]),
    ] {
        let rows = sb_pool::ordered_map_unwrap(points, jobs, |_, faults| {
            let model = FaultModel::new(kind, faults);
            let batch = model.sample_topologies(mesh, 0xD1F + faults as u64, topos);
            let mut div = 0.0;
            let mut single = 0.0;
            for topo in &batch {
                let routing = MinimalRouting::new(topo);
                div += routing.avg_path_diversity(cap);
                let mut pairs = 0u64;
                let mut singles = 0u64;
                for a in topo.alive_nodes() {
                    for b in topo.alive_nodes() {
                        if a == b || !routing.is_reachable(a, b) {
                            continue;
                        }
                        pairs += 1;
                        if routing.minimal_path_count(a, b) == 1 {
                            singles += 1;
                        }
                    }
                }
                single += 100.0 * singles as f64 / pairs.max(1) as f64;
            }
            let n = batch.len() as f64;
            (faults, div / n, single / n)
        });
        for (faults, div, single) in rows {
            table.row(&[
                format!("{kind:?}"),
                faults.to_string(),
                format!("{div:.1}"),
                format!("{single:.1}"),
            ]);
        }
    }
    table.finish(args.get_str("csv"));
}
