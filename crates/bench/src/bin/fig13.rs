//! **Fig. 13** — PARSEC application runtime and network EDP with 4 link
//! faults, normalized to the spanning tree.
//!
//! Runtime = cycles to complete a fixed transaction budget per app (the
//! full-system runtime stand-in); EDP = network energy × runtime.
//!
//! Application traffic has no serialized form, so this stays a pool-level
//! fleet client: the per-app work list fans out over the pool (`--jobs 1`
//! runs it sequentially in app order).

use sb_bench::{sample_topologies_filtered, sweep::jobs_from_args, Args, Design, Table};
use sb_energy::EnergyModel;
use sb_sim::SimConfig;
use sb_topology::{FaultKind, Mesh};
use sb_workloads::{AppTraffic, ParsecApp};

fn main() {
    let args = Args::parse_spec(
        "fig13",
        "PARSEC runtime and network EDP with 4 link faults",
        &[
            ("topos", "3"),
            ("budget", "3000"),
            ("max-cycles", "400000"),
            ("csv", "-"),
            ("jobs", "0"),
        ],
    );
    let topos: usize = args.get("topos", 3);
    let budget: u64 = args.get("budget", 3_000);
    let max_cycles: u64 = args.get("max-cycles", 400_000);
    let mesh = Mesh::new(8, 8);
    let model = EnergyModel::dsent_32nm();
    let jobs = jobs_from_args(&args);

    let mut table = Table::new(
        "Fig. 13: PARSEC runtime and network EDP normalized to sp-tree (4 link faults)",
        &[
            "app",
            "updown_runtime",
            "treeonly_rt_norm",
            "evc_rt_norm",
            "sb_rt_norm",
            "evc_edp_norm",
            "sb_edp_norm",
        ],
    );

    let apps: Vec<ParsecApp> = ParsecApp::ALL.to_vec();
    let rows = sb_pool::ordered_map_unwrap(apps, jobs, |_, app| {
        let (batch, attempts) =
            sample_topologies_filtered(mesh, FaultKind::Links, 4, topos, 0xF16_0013, |t| {
                AppTraffic::new(app.profile(), t).is_some()
            });
        if batch.len() < topos {
            eprintln!(
                "fig13: {app:?}: only {}/{topos} topologies passed the filter in {attempts} \
                 attempts",
                batch.len()
            );
        }
        let designs = [
            Design::SpanningTree,
            Design::TreeOnly,
            Design::EscapeVc,
            Design::StaticBubble,
        ];
        let mut runtime = [0.0f64; 4];
        let mut edp = [0.0f64; 4];
        let mut n = 0usize;
        for (i, topo) in batch.iter().enumerate() {
            let mut ok = true;
            let mut rt = [0.0f64; 4];
            let mut ep = [0.0f64; 4];
            for (k, &d) in designs.iter().enumerate() {
                let Some(traffic) = AppTraffic::new(app.profile(), topo) else {
                    ok = false;
                    break;
                };
                let traffic = traffic.with_budget(budget);
                let (finished, _completed, out) = d.run_app(
                    topo,
                    SimConfig::default(),
                    traffic,
                    600 + i as u64,
                    max_cycles,
                );
                let cycles = finished.unwrap_or(max_cycles);
                rt[k] = cycles as f64;
                ep[k] = model.edp_runtime(&out.stats, out.cost, cycles);
            }
            if ok {
                for k in 0..4 {
                    runtime[k] += rt[k];
                    edp[k] += ep[k];
                }
                n += 1;
            }
        }
        (app, runtime, edp, n)
    });
    for (app, runtime, edp, n) in rows {
        if n == 0 {
            continue;
        }
        let sp_rt = runtime[0] / n as f64;
        table.row(&[
            app.profile().name.to_string(),
            format!("{sp_rt:.0}"),
            format!("{:.3}", runtime[1] / n as f64 / sp_rt),
            format!("{:.3}", runtime[2] / n as f64 / sp_rt),
            format!("{:.3}", runtime[3] / n as f64 / sp_rt),
            format!("{:.3}", edp[2] / edp[0]),
            format!("{:.3}", edp[3] / edp[0]),
        ]);
    }
    table.finish(args.get_str("csv"));
}
