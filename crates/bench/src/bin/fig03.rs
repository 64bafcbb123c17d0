//! **Fig. 3** — heat map: cumulative % of irregular topologies that
//! deadlock at or below a given injection rate, vs number of faulty links.
//!
//! For each sampled topology the minimum deadlocking rate is found by
//! running unrestricted minimal routing at each ladder rate until the
//! oracle reports a deadlock or the budget expires.

use sb_bench::{sweep::jobs_from_args, Args, Table};
use sb_routing::MinimalRouting;
use sb_sim::{NullPlugin, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh};

fn main() {
    let args = Args::parse_spec(
        "fig03",
        "cumulative % of topologies deadlocked vs injection rate and faulty links",
        &[
            ("topos", "40"),
            ("cycles", "20000"),
            ("csv", "-"),
            ("jobs", "0"),
        ],
    );
    let topos: usize = args.get("topos", 40);
    let cycles: u64 = args.get("cycles", 20_000);
    let mesh = Mesh::new(8, 8);
    let rates = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5];
    let fault_points = [1usize, 5, 10, 15, 20, 25, 30, 40, 50];
    let jobs = jobs_from_args(&args);

    let mut headers: Vec<String> = vec!["faulty_links".into()];
    headers.extend(rates.iter().map(|r| format!("r{r}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Fig. 3: cumulative % of topologies deadlocked at rate ≤ r (uniform random)",
        &headers_ref,
    );

    let rows = sb_pool::ordered_map_unwrap(fault_points.to_vec(), jobs, |_, faults| {
        let model = FaultModel::new(FaultKind::Links, faults);
        let batch = model.sample_topologies(mesh, 0xF16_0003 + faults as u64, topos);
        // Minimum deadlocking rate index per topology (None = never).
        let mut min_rate_idx: Vec<Option<usize>> = vec![None; batch.len()];
        for (t_idx, topo) in batch.iter().enumerate() {
            for (r_idx, &rate) in rates.iter().enumerate() {
                let mut sim = Simulator::new(
                    topo,
                    SimConfig::single_vnet(),
                    Box::new(MinimalRouting::new(topo)),
                    NullPlugin,
                    UniformTraffic::new(rate).single_vnet(),
                    11 + t_idx as u64,
                );
                if sim.run_until_deadlock(cycles, 64).is_some() {
                    min_rate_idx[t_idx] = Some(r_idx);
                    break;
                }
            }
        }
        let cumulative: Vec<f64> = (0..rates.len())
            .map(|r_idx| {
                let n = min_rate_idx
                    .iter()
                    .filter(|m| m.is_some_and(|i| i <= r_idx))
                    .count();
                100.0 * n as f64 / batch.len() as f64
            })
            .collect();
        (faults, cumulative)
    });
    for (faults, cum) in rows {
        let mut row = vec![faults.to_string()];
        row.extend(cum.iter().map(|c| format!("{c:.0}")));
        table.row(&row);
    }
    table.finish(args.get_str("csv"));
}
