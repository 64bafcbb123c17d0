//! **Fig. 2** — percentage of deadlock-prone irregular topologies as
//! links/routers are removed from an 8×8 mesh.
//!
//! A topology is deadlock-prone iff its surviving graph has a cycle (the
//! paper's footnote: verified by injecting a flit per node per cycle with
//! unrestricted minimal routing and watching for deadlock; pass `--sim` to
//! run that verification too).

use sb_bench::{sweep::jobs_from_args, Args, Table};
use sb_routing::MinimalRouting;
use sb_sim::{NullPlugin, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh};

fn main() {
    let args = Args::parse_spec(
        "fig02",
        "% deadlock-prone topologies vs faulty links/routers (8x8)",
        &[
            ("topos", "100"),
            ("step", "5"),
            ("sim", "off"),
            ("csv", "-"),
            ("jobs", "0"),
        ],
    );
    let topos: usize = args.get("topos", 100);
    let step: usize = args.get("step", 5);
    let do_sim = args.flag("sim");
    let mesh = Mesh::new(8, 8);
    let jobs = jobs_from_args(&args);

    let mut table = Table::new(
        "Fig. 2: % deadlock-prone topologies (cycle in the surviving graph)",
        &["kind", "faults", "prone_pct", "sim_confirmed_pct"],
    );
    for (kind, max) in [(FaultKind::Links, 96usize), (FaultKind::Routers, 60)] {
        let points: Vec<usize> = (1..=max).step_by(step).collect();
        let rows = sb_pool::ordered_map_unwrap(points, jobs, |_, faults| {
            let model = FaultModel::new(kind, faults);
            let batch = model.sample_topologies(mesh, 0xF16_0002 + faults as u64, topos);
            let prone = batch.iter().filter(|t| t.has_undirected_cycle()).count();
            let sim_confirmed = if do_sim {
                let confirmed = batch
                    .iter()
                    .filter(|t| {
                        let mut sim = Simulator::new(
                            t,
                            SimConfig::tiny(),
                            Box::new(MinimalRouting::new(t)),
                            NullPlugin,
                            UniformTraffic::new(1.0).single_vnet().data_fraction(1.0),
                            7,
                        );
                        sim.run_until_deadlock(20_000, 32).is_some()
                    })
                    .count();
                format!("{:.1}", 100.0 * confirmed as f64 / topos as f64)
            } else {
                "-".to_string()
            };
            (faults, 100.0 * prone as f64 / topos as f64, sim_confirmed)
        });
        for (faults, pct, simc) in rows {
            table.row(&[
                format!("{kind:?}"),
                faults.to_string(),
                format!("{pct:.1}"),
                simc,
            ]);
        }
    }
    table.finish(args.get_str("csv"));
}
