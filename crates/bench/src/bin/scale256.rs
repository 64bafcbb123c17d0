//! **Scale check** — the paper's 256-core design point: 89 static bubbles
//! on a 16×16 mesh (Table I), with recovery exercised at deadlock-prone
//! load on regular and irregular instances.
//!
//! A fleet client: the three topology instances × three designs are one
//! list of scenarios (the faulted instances are `FaultSpec::Model` draws
//! with seed 256) run by [`run_grid`] through the pool and the
//! content-addressed result cache. The pre-fleet version drew the two
//! faulted instances from one *shared* RNG stream, which no serialized
//! spec can address; they are now independent draws from the same seed,
//! so the sampled instances (and their numbers) differ from pre-fleet
//! output while everything is reproducible from the spec.

use sb_bench::{run_grid, Args, Design, Scenario, Table};
use sb_scenario::FaultSpec;
use sb_topology::{FaultKind, Mesh};
use static_bubble::placement;

fn main() {
    let args = Args::parse_spec(
        "scale256",
        "16x16 (256-core) placement and recovery scale check",
        &[
            ("cycles", "6000"),
            ("rate", "0.08"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let cycles: u64 = args.get("cycles", 6_000);
    let rate: f64 = args.get("rate", 0.08);
    let mesh = Mesh::new(16, 16);

    println!(
        "placement: {} bubbles on 16x16 (paper: 89); coverage holds: {}",
        placement::placement(mesh).len(),
        placement::coverage_holds(mesh)
    );

    let model = |kind, count| FaultSpec::Model {
        kind,
        count,
        seed: 256,
    };
    let instances = [
        ("full", FaultSpec::Pristine),
        ("30-link-faults", model(FaultKind::Links, 30)),
        ("20-router-faults", model(FaultKind::Routers, 20)),
    ];
    let mut scenarios = Vec::new();
    for (name, faults) in instances {
        for design in Design::ALL {
            scenarios.push(
                Scenario::new(format!("scale256/{name}"), design)
                    .with_mesh(16, 16)
                    .with_faults(faults)
                    .with_rate(rate)
                    .with_cycles(cycles),
            );
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        "256-core: throughput and recovery at deadlock-prone load",
        &[
            "topology",
            "design",
            "throughput",
            "avg_latency",
            "probes",
            "recovered",
        ],
    );
    for ((name, _), instance) in instances.into_iter().zip(results.chunks(Design::ALL.len())) {
        for (design, res) in Design::ALL.into_iter().zip(instance) {
            table.row(&[
                name.to_string(),
                design.label().to_string(),
                format!("{:.3}", res.stats.throughput(res.nodes)),
                format!("{:.1}", res.stats.avg_latency().unwrap_or(f64::NAN)),
                res.stats.probes_sent.to_string(),
                res.stats.deadlocks_recovered.to_string(),
            ]);
        }
    }
    table.finish(args.get_str("csv"));
}
