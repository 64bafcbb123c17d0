//! Heterogeneous SoC scenario (the paper's Fig. 1(a)): big accelerator
//! tiles carve rectangular holes out of the mesh at *design time*. The
//! resulting topology is irregular from day one; Static Bubble still
//! guarantees deadlock-freedom with minimal routes, and a realistic
//! request/reply workload runs over it.
//!
//! ```text
//! cargo run --release --example heterogeneous_soc
//! ```

use static_bubble_repro::core::{placement, StaticBubblePlugin};
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{SimConfig, Simulator};
use static_bubble_repro::topology::{Mesh, Topology};
use static_bubble_repro::workloads::{AppTraffic, RodiniaApp};

fn main() {
    // Floorplan: an 8x8 mesh with a 3x2 GPU tile and a 2x2 DSP tile carved
    // out (their interior routers are absent).
    let mesh = Mesh::new(8, 8);
    let mut topo = Topology::full(mesh);
    topo.carve_tile(2, 2, 3, 2); // GPU
    topo.carve_tile(5, 5, 2, 2); // DSP
    println!("heterogeneous SoC floorplan ('x' = carved tile):\n");
    println!("{}", topo.ascii_art());

    assert!(
        placement::coverage_holds_on(&topo),
        "the placement corollary covers design-time irregularity too"
    );

    let bubbles = placement::alive_bubbles(&topo);
    println!(
        "{} routers alive, {} of them carry a static bubble\n",
        topo.alive_node_count(),
        bubbles.len()
    );

    // Run a memory-intensive workload over the irregular SoC.
    let app = AppTraffic::new(RodiniaApp::Kmeans.profile(), &topo)
        .expect("memory controllers reachable")
        .with_budget(4_000);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        app,
        17,
    );
    while sim.traffic().finished_at().is_none() && sim.time() < 2_000_000 {
        sim.run(512);
    }
    let runtime = sim.traffic().finished_at();
    let s = sim.core().stats();
    match runtime {
        Some(t) => println!(
            "kmeans finished 4000 transactions in {t} cycles \
             ({:.2} txn/kcycle), avg packet latency {:.1}",
            4000.0 * 1000.0 / t as f64,
            s.avg_latency().unwrap_or(f64::NAN)
        ),
        None => println!("workload did not finish in budget"),
    }
    println!(
        "deadlock activity on the irregular SoC: {} probes, {} recoveries",
        s.probes_sent, s.deadlocks_recovered
    );
}
