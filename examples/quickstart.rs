//! Quickstart: build a Static Bubble network on an 8×8 mesh, drive it with
//! uniform-random traffic at a deadlock-prone load, and watch it recover.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use static_bubble_repro::core::{placement, StaticBubblePlugin};
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{SimConfig, Simulator, UniformTraffic};
use static_bubble_repro::topology::{Mesh, Topology};

fn main() {
    // 1. The design-time step: place static bubbles on the mesh.
    let mesh = Mesh::new(8, 8);
    let bubbles = placement::placement(mesh);
    println!(
        "8x8 mesh: {} routers get a static bubble ({} total buffers of overhead)",
        bubbles.len(),
        bubbles.len()
    );
    assert!(placement::coverage_holds(mesh), "every cycle covered");

    // 2. The runtime: unrestricted minimal routing (deadlock-prone!) plus
    //    the Static Bubble recovery plugin.
    let topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        UniformTraffic::new(0.28).single_vnet(), // near saturation
        42,
    );

    // 3. Run and report.
    sim.warmup(1_000);
    sim.run(10_000);
    let s = sim.core().stats();
    println!(
        "delivered {} packets, throughput {:.3} flits/node/cycle, avg latency {:.1} cycles",
        s.delivered_packets,
        s.throughput(64),
        s.avg_latency().unwrap_or(f64::NAN),
    );
    println!(
        "deadlock activity: {} probes sent, {} deadlocks recovered",
        s.probes_sent, s.deadlocks_recovered
    );
    if s.deadlocks_recovered > 0 {
        println!("the network deadlocked under minimal routing and Static Bubble recovered it");
    } else {
        println!("no deadlock formed at this load (try a higher rate)");
    }
}
