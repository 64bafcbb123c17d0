//! Resiliency scenario (the paper's Fig. 1(b)): links fail over the chip's
//! lifetime; after each failure the NIs recompute routes. The spanning-tree
//! design pays with non-minimal paths; Static Bubble keeps every flow
//! minimal and recovers the deadlocks that minimal routing risks.
//!
//! ```text
//! cargo run --release --example resilient_chip
//! ```

use rand::SeedableRng;
use static_bubble_repro::core::{placement, StaticBubblePlugin};
use static_bubble_repro::routing::{MinimalRouting, RouteSource, TreeOnlyRouting, UpDownRouting};
use static_bubble_repro::sim::{NullPlugin, SimConfig, Simulator, UniformTraffic};
use static_bubble_repro::topology::{FaultKind, FaultModel, Mesh};

fn main() {
    let mesh = Mesh::new(8, 8);
    let bubbles_all = placement::placement(mesh);
    println!("chip lifetime: links fail in batches; after each, routes are rebuilt\n");
    println!(
        "{:>6}  {:>9}  {:>12} {:>12} {:>12}  {:>10}",
        "faults", "connected", "minimal(SB)", "up-down", "tree-only", "recovered"
    );

    for faults in [0usize, 8, 16, 24, 32, 40] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
        let topo = FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng);

        // Route-table quality after reconfiguration: average hops between
        // reachable pairs under each routing function.
        let minimal = MinimalRouting::new(&topo);
        let updown = UpDownRouting::new(&topo);
        let tree = TreeOnlyRouting::new(&topo);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(1);
        let (mut hm, mut hu, mut ht, mut n) = (0usize, 0usize, 0usize, 0usize);
        for a in topo.alive_nodes() {
            for b in topo.alive_nodes() {
                if a == b {
                    continue;
                }
                let (Some(m), Some(u), Some(t)) = (
                    minimal.route(a, b, &mut rng2),
                    updown.route(a, b, &mut rng2),
                    tree.route(a, b, &mut rng2),
                ) else {
                    continue;
                };
                hm += m.hops();
                hu += u.hops();
                ht += t.hops();
                n += 1;
            }
        }

        // Run Static Bubble at a deadlock-prone load on this topology.
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(MinimalRouting::new(&topo)),
            StaticBubblePlugin::new(&topo, 34),
            UniformTraffic::new(0.2).single_vnet(),
            7,
        );
        sim.run(6_000);
        let recovered = sim.core().stats().deadlocks_recovered;

        println!(
            "{:>6}  {:>8}%  {:>11.2}h {:>11.2}h {:>11.2}h  {:>10}",
            faults,
            100 * n / (64 * 63),
            hm as f64 / n as f64,
            hu as f64 / n as f64,
            ht as f64 / n as f64,
            recovered,
        );
        let _ = bubbles_all.len();
    }

    // Sanity: the spanning-tree design never deadlocks but pays in hops; a
    // plain minimal network without SB would wedge.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let topo = FaultModel::new(FaultKind::Links, 16).inject(mesh, &mut rng);
    let mut plain = Simulator::new(
        &topo,
        SimConfig::tiny(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.6).single_vnet(),
        9,
    );
    let deadlocked = plain.run_until_deadlock(20_000, 32).is_some();
    println!(
        "\nwithout recovery, unrestricted minimal routing deadlocks at high load: {deadlocked}"
    );
}
