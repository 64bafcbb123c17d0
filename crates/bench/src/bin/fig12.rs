//! **Fig. 12** — Rodinia application throughput (completed transactions per
//! kilocycle) for escape-VC and Static Bubble, normalized to the spanning
//! tree, as link/router faults increase.
//!
//! Application traffic has no serialized form, so this stays a pool-level
//! fleet client: the full app × fault-point grid is flattened into one
//! work list and fanned over the pool (`--jobs 1` runs it
//! sequentially in grid order), instead of the pre-fleet per-app batches
//! that left workers idle at each app boundary.

use sb_bench::{sample_topologies_filtered, sweep::jobs_from_args, Args, Design, Table};
use sb_sim::SimConfig;
use sb_topology::{FaultKind, Mesh};
use sb_workloads::{default_memory_controllers, AppTraffic, RodiniaApp};

fn main() {
    let args = Args::parse_spec(
        "fig12",
        "Rodinia app throughput normalized to spanning tree",
        &[
            ("topos", "4"),
            ("cycles", "20000"),
            ("csv", "-"),
            ("jobs", "0"),
        ],
    );
    let topos: usize = args.get("topos", 4);
    let cycles: u64 = args.get("cycles", 20_000);
    let mesh = Mesh::new(8, 8);
    let jobs = jobs_from_args(&args);

    let mut table = Table::new(
        "Fig. 12: Rodinia app throughput (txn/kcycle), normalized to sp-tree",
        &["app", "kind", "faults", "sptree", "evc_norm", "sb_norm"],
    );

    let fault_points: [(FaultKind, usize); 8] = [
        (FaultKind::Links, 0),
        (FaultKind::Links, 5),
        (FaultKind::Links, 10),
        (FaultKind::Links, 20),
        (FaultKind::Links, 30),
        (FaultKind::Routers, 5),
        (FaultKind::Routers, 10),
        (FaultKind::Routers, 20),
    ];

    // One flat work list: every (app, fault point) cell is an independent
    // task, so a slow cell does not serialize its app.
    let grid: Vec<(RodiniaApp, FaultKind, usize)> = RodiniaApp::ALL
        .iter()
        .flat_map(|&app| fault_points.iter().map(move |&(k, f)| (app, k, f)))
        .collect();

    let rows = sb_pool::ordered_map_unwrap(grid, jobs, |_, (app, kind, faults)| {
        let mcs = default_memory_controllers(mesh);
        let (batch, attempts) = sample_topologies_filtered(
            mesh,
            kind,
            faults,
            topos,
            0xF16_0012 + faults as u64,
            |t| {
                AppTraffic::new(app.profile(), t).is_some() && {
                    // Keep the paper's filter: MCs must not be disconnected.
                    sb_workloads::mc::mcs_connected(t, &mcs) || faults == 0
                }
            },
        );
        if batch.len() < topos {
            eprintln!(
                "fig12: {kind:?}/{faults}: only {}/{topos} topologies passed the filter \
                 in {attempts} attempts",
                batch.len()
            );
        }
        if batch.is_empty() {
            return (app, kind, faults, None);
        }
        let mut thr = [0.0f64; 3];
        for (i, topo) in batch.iter().enumerate() {
            for (k, &d) in Design::ALL.iter().enumerate() {
                let Some(traffic) = AppTraffic::new(app.profile(), topo) else {
                    continue;
                };
                let mut completed_rate = 0.0;
                // Run the closed loop for the window; throughput =
                // completed transactions per kilocycle.
                let (_, completed, _) =
                    d.run_app(topo, SimConfig::default(), traffic, 500 + i as u64, cycles);
                completed_rate += completed as f64 * 1000.0 / cycles as f64;
                thr[k] += completed_rate;
            }
        }
        let n = batch.len() as f64;
        (
            app,
            kind,
            faults,
            Some([thr[0] / n, thr[1] / n, thr[2] / n]),
        )
    });
    for (app, kind, faults, res) in rows {
        let Some([sp, evc, sb]) = res else {
            continue;
        };
        table.row(&[
            app.profile().name.to_string(),
            format!("{kind:?}"),
            faults.to_string(),
            format!("{sp:.2}"),
            format!("{:.2}", evc / sp.max(1e-9)),
            format!("{:.2}", sb / sp.max(1e-9)),
        ]);
    }
    table.finish(args.get_str("csv"));
}
