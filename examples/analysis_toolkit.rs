//! The observability toolkit in one place: window latency, delivery
//! fairness, occupancy heat maps and deadlock post-mortems — everything you need to understand *why* a network behaves
//! the way it does.
//!
//! ```text
//! cargo run --release --example analysis_toolkit
//! ```

use rand::SeedableRng;
use static_bubble_repro::core::StaticBubblePlugin;
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{
    find_dependency_cycle, InputRef, NullPlugin, SimConfig, Simulator, UniformTraffic,
};
use static_bubble_repro::topology::{FaultKind, FaultModel, Mesh};

fn main() {
    let mesh = Mesh::new(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let topo = FaultModel::new(FaultKind::Links, 12).inject(mesh, &mut rng);

    // 1. A healthy Static Bubble run.
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        UniformTraffic::new(0.12).single_vnet(),
        9,
    );
    sim.warmup(1_000);
    sim.run(8_000);

    println!("== healthy run (12 link faults, rate 0.12)");
    println!("{}", sim.core().status_line());
    let stats = sim.core().stats();
    println!(
        "latency avg: {:>6.1} cycles",
        stats.avg_latency().unwrap_or(0.0)
    );
    println!("latency max: {:>4} cycles", stats.latency_max);
    println!(
        "delivery fairness (Jain): {:.3}",
        sim.core().delivery_fairness().unwrap_or(0.0)
    );
    println!(
        "\nbuffer occupancy heat map:\n{}",
        sim.core().occupancy_art()
    );

    // 2. A deliberately wedged network and its post-mortem.
    let mut plain = Simulator::new(
        &topo,
        SimConfig::tiny(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.8).single_vnet(),
        9,
    );
    if plain.run_until_deadlock(30_000, 16).is_some() {
        println!("== post-mortem of a deadlocked plain network");
        println!("{}", plain.core().status_line());
        match find_dependency_cycle(plain.core()) {
            Some(cycle) => {
                println!("one dependency cycle ({} buffers):", cycle.len());
                for step in cycle.iter().take(12) {
                    if let InputRef::Vc(v) = step {
                        println!("  router n{} port {:?} vc{}", v.router.0, v.port, v.vc);
                    }
                }
                if cycle.len() > 12 {
                    println!("  ... and {} more", cycle.len() - 12);
                }
            }
            None => println!("no simple cycle found (blocked-behind structure)"),
        }
        println!(
            "\noccupancy at the moment of deadlock:\n{}",
            plain.core().occupancy_art()
        );
    } else {
        println!("(no deadlock formed within the budget — unusual at this load)");
    }
}
