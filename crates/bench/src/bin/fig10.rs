//! **Fig. 10** — average network energy breakdown (link/router ×
//! dynamic/leakage) for the three designs at 2 / 7 / 15 / 30
//! faulty/power-gated routers, uniform-random traffic at medium load.
//!
//! A fleet client: the fault-count × topology × design grid is one list
//! of scenarios (historical `sample_topologies` seeds on the topology axis,
//! simulation seed `300 + topology index`) run by [`run_grid`] over the
//! pool / result cache. Energy pricing is simulation-free — the hardware
//! inventory comes from each scenario's topology — so it stays client-side,
//! applied to the returned stats.

use sb_bench::{run_grid, sample_seeds, Args, Design, Scenario, Table};
use sb_energy::{EnergyBreakdown, EnergyModel};
use sb_scenario::FaultSpec;
use sb_sim::SimConfig;
use sb_topology::FaultKind;

fn main() {
    let args = Args::parse_spec(
        "fig10",
        "network energy breakdown vs power-gated routers",
        &[
            ("topos", "8"),
            ("cycles", "6000"),
            ("rate", "0.08"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let topos: usize = args.get("topos", 8);
    let cycles: u64 = args.get("cycles", 6_000);
    let rate: f64 = args.get("rate", 0.08);
    let model = EnergyModel::dsent_32nm();

    let (kind, fault_points) = (FaultKind::Routers, [2usize, 7, 15, 30]);
    let mut scenarios = Vec::new();
    for count in fault_points {
        let seeds = sample_seeds(0xF16_0010 + count as u64, topos);
        for (t, seed) in seeds.into_iter().enumerate() {
            for design in Design::ALL {
                scenarios.push(
                    Scenario::new(format!("fig10/{kind:?}:{count}/t{t}"), design)
                        .with_faults(FaultSpec::Model { kind, count, seed })
                        .with_rate(rate)
                        .with_cycles(cycles)
                        .with_seed(300 + t as u64),
                );
            }
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        "Fig. 10: avg network energy (pJ, normalized to sp-tree total at each fault count)",
        &[
            "pg_routers",
            "design",
            "link_dyn",
            "router_dyn",
            "link_leak",
            "router_leak",
            "total_norm",
        ],
    );
    let per_cell = topos * Design::ALL.len();
    let cells = scenarios.chunks(per_cell).zip(results.chunks(per_cell));
    for (faults, (scenarios, results)) in fault_points.into_iter().zip(cells) {
        let mut per_design = [EnergyBreakdown::default(); 3];
        for (i, (scenario, res)) in scenarios.iter().zip(results).enumerate() {
            // The inventory the pricing needs is a pure function of
            // (design, topology); the topology rematerializes from the
            // run's own spec.
            let topo = scenario.topology();
            let cost = scenario.design.cost(&topo, SimConfig::single_vnet());
            let b = model.price(&res.stats, cost);
            let sum = &mut per_design[i % Design::ALL.len()];
            sum.router_dynamic += b.router_dynamic;
            sum.link_dynamic += b.link_dynamic;
            sum.router_leakage += b.router_leakage;
            sum.link_leakage += b.link_leakage;
        }
        let n = topos as f64;
        for sum in &mut per_design {
            sum.router_dynamic /= n;
            sum.link_dynamic /= n;
            sum.router_leakage /= n;
            sum.link_leakage /= n;
        }
        let sp_total = per_design[0].total();
        for (d, b) in Design::ALL.iter().zip(&per_design) {
            table.row(&[
                faults.to_string(),
                d.label().to_string(),
                format!("{:.0}", b.link_dynamic),
                format!("{:.0}", b.router_dynamic),
                format!("{:.0}", b.link_leakage),
                format!("{:.0}", b.router_leakage),
                format!("{:.3}", b.total() / sp_total),
            ]);
        }
    }
    table.finish(args.get_str("csv"));
}
