//! Injection-rate sweep on regular and faulty 8x8 meshes: throughput,
//! recoveries and whether the network drains after the load stops —
//! the quick way to locate the saturation knee.
//!
//! ```text
//! cargo run -p static-bubble --release --example saturation_sweep
//! ```

use rand::SeedableRng;
use sb_routing::MinimalRouting;
use sb_sim::{NoTraffic, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, Topology};
use static_bubble::StaticBubblePlugin;

fn main() {
    let mesh = Mesh::new(8, 8);
    for faults in [0usize, 15] {
        let topo = if faults == 0 {
            Topology::full(mesh)
        } else {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng)
        };
        for rate in [0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
            let mut sim = Simulator::new(
                &topo,
                SimConfig::single_vnet(),
                Box::new(MinimalRouting::new(&topo)),
                StaticBubblePlugin::new(&topo, 34),
                UniformTraffic::new(rate).single_vnet(),
                7,
            );
            sim.warmup(3_000);
            sim.run(15_000);
            let thr = sim.core().stats().throughput(topo.alive_node_count());
            let recov = sim.core().stats().deadlocks_recovered;
            let mut sim = sim.replace_traffic(NoTraffic);
            let drained = sim.run_until_drained(150_000);
            println!("faults={faults:2} rate={rate:.2}: thr={thr:.3} recovered={recov} drained={drained}");
        }
    }
}
