//! Property-based tests of engine invariants: conservation, delivery,
//! latency lower bounds. (Determinism is the harness in
//! `tests/contracts.rs`.)

use proptest::prelude::*;
use rand::SeedableRng;
use sb_routing::{RouteSource, UpDownRouting};
use sb_sim::{NewPacket, NullPlugin, ScriptedTraffic, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, NodeId, Topology};

fn arb_topology() -> impl Strategy<Value = Topology> {
    (4u16..8, 4u16..8, any::<u64>(), 0usize..14).prop_map(|(w, h, seed, faults)| {
        let mesh = Mesh::new(w, h);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        FaultModel::new(FaultKind::Links, faults.min(mesh.link_count() / 3)).inject(mesh, &mut rng)
    })
}

/// A random batch of scripted packets between reachable pairs.
fn arb_script(topo: &Topology, seed: u64, count: usize) -> Vec<(u64, NewPacket)> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let alive: Vec<NodeId> = topo.alive_nodes().collect();
    let mut out = Vec::new();
    for i in 0..count {
        let src = alive[rng.gen_range(0..alive.len())];
        let dst = alive[rng.gen_range(0..alive.len())];
        if src == dst {
            continue;
        }
        out.push((
            (i as u64) / 4,
            NewPacket {
                src,
                dst,
                vnet: rng.gen_range(0..3),
                len_flits: if rng.gen_bool(0.5) { 1 } else { 5 },
            },
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scripted packet is delivered or provably unreachable, and the
    /// packet-conservation equation holds at every observation point.
    #[test]
    fn scripted_traffic_fully_accounted(topo in arb_topology(), seed in any::<u64>()) {
        let script = arb_script(&topo, seed, 60);
        let n = script.len() as u64;
        let mut sim = Simulator::new(
            &topo,
            SimConfig::default(),
            Box::new(UpDownRouting::new(&topo)),
            NullPlugin,
            ScriptedTraffic::new(script),
            seed,
        );
        for _ in 0..20 {
            sim.run(50);
            let s = sim.core().stats();
            let accounted = s.delivered_packets
                + s.dropped_packets
                + sim.core().in_flight() as u64
                + sim.core().queued() as u64;
            prop_assert_eq!(s.offered_packets, accounted);
        }
        prop_assert!(sim.run_until_drained(60_000));
        let s = sim.core().stats();
        prop_assert_eq!(s.delivered_packets + s.dropped_packets, n);
    }

    /// No delivered packet beats the physical lower bound:
    /// 2 cycles per hop plus its own serialization.
    #[test]
    fn latency_respects_pipeline_lower_bound(topo in arb_topology(), seed in any::<u64>()) {
        use rand::Rng;
        let routing = UpDownRouting::new(&topo);
        let alive: Vec<NodeId> = topo.alive_nodes().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (src, dst) = (alive[rng.gen_range(0..alive.len())], alive[rng.gen_range(0..alive.len())]);
        prop_assume!(src != dst);
        let mut route_rng = rand::rngs::StdRng::seed_from_u64(0);
        prop_assume!(routing.route(src, dst, &mut route_rng).is_some());
        let hops = routing.route(src, dst, &mut route_rng).unwrap().hops() as u64;
        for len in [1u16, 5] {
            let mut sim = Simulator::new(
                &topo,
                SimConfig::default(),
                Box::new(UpDownRouting::new(&topo)),
                NullPlugin,
                ScriptedTraffic::new(vec![(0, NewPacket { src, dst, vnet: 0, len_flits: len })]),
                1,
            );
            prop_assert!(sim.run_until_drained(10_000));
            let lat = sim.core().stats().latency_sum;
            prop_assert!(
                lat >= 2 * hops + len as u64,
                "latency {} below bound for {} hops len {}",
                lat, hops, len
            );
            // An unloaded network also meets the bound exactly.
            prop_assert_eq!(lat, 2 * hops + len as u64);
        }
    }

    /// Throughput equals offered load below saturation on the fault-free
    /// mesh regardless of seed.
    #[test]
    fn subsaturation_acceptance(seed in any::<u64>(), rate in 0.01f64..0.08) {
        let topo = Topology::full(Mesh::new(6, 6));
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(UpDownRouting::new(&topo)),
            NullPlugin,
            UniformTraffic::new(rate).single_vnet(),
            seed,
        );
        sim.warmup(1_500);
        sim.run(4_000);
        prop_assert!(sim.core().stats().acceptance() > 0.85);
    }
}
