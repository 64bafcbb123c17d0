//! A closed-loop power-gating controller (the Panthre/NoRD use case): idle
//! routers are gated off between epochs and woken again when load returns,
//! using [`Simulator::reconfigure`] for each transition. Static Bubble
//! needs no reconfiguration of its own across any of it.
//!
//! ```text
//! cargo run --release --example runtime_gating
//! ```

use static_bubble_repro::core::{placement, StaticBubblePlugin};
use static_bubble_repro::energy::{EnergyModel, NetworkConfigCost};
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{SimConfig, Simulator, UniformTraffic};
use static_bubble_repro::topology::{Mesh, NodeId, Topology};

fn main() {
    let mesh = Mesh::new(8, 8);
    let cfg = SimConfig::single_vnet();
    let model = EnergyModel::dsent_32nm();
    let mut topo = Topology::full(mesh);
    let mut sim = Simulator::new(
        &topo,
        cfg,
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        UniformTraffic::new(0.10).single_vnet(),
        3,
    );

    // The controller: every epoch, gate the interior routers that delivered
    // the least traffic — but never the mesh frame, so connectivity holds —
    // then wake everything for the next busy phase.
    println!(
        "{:>6} {:>7} {:>9} {:>11} {:>10} {:>10}",
        "epoch", "gated", "delivered", "avg_latency", "leak_pJ/cyc", "recovered"
    );
    for epoch in 0..6 {
        let busy = epoch % 2 == 0;
        if busy {
            // Wake every router.
            topo = Topology::full(mesh);
        } else {
            // Gate the 12 least-used interior routers.
            let per_node = sim.core().delivered_per_node().to_vec();
            let mut interior: Vec<NodeId> = mesh
                .nodes()
                .filter(|&n| {
                    let c = mesh.coord(n);
                    c.x > 0 && c.y > 0 && c.x < 7 && c.y < 7
                })
                .collect();
            interior.sort_by_key(|n| per_node[n.index()]);
            topo = Topology::full(mesh);
            for n in interior.into_iter().take(12) {
                topo.remove_router(n);
            }
        }
        sim.reconfigure(&topo, Box::new(MinimalRouting::new(&topo)));
        sim.core_mut().reset_measurement();
        sim.run(4_000);

        let s = sim.core().stats();
        let cost = NetworkConfigCost::for_topology(
            &topo,
            cfg.vcs_per_port(),
            placement::alive_bubbles(&topo).len(),
        );
        let leak = model.price(s, cost).leakage() / s.cycles as f64;
        println!(
            "{:>6} {:>7} {:>9} {:>11.1} {:>10.2} {:>10}",
            epoch,
            64 - topo.alive_node_count(),
            s.delivered_packets,
            s.avg_latency().unwrap_or(f64::NAN),
            leak,
            s.deadlocks_recovered,
        );
    }
    println!("\ngating saves leakage in idle epochs; the same design-time Static");
    println!("Bubble placement covers every derived topology along the way.");
}
