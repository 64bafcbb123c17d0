//! Focused tests of the escape-VC recovery baseline: deadlock-freedom and
//! the capacity the reservation costs. (The escape-network discipline reads
//! packet internals, so it is a unit test in `crates/sim/src/escape.rs`.)

use rand::SeedableRng;
use sb_routing::MinimalRouting;
use sb_sim::{EscapeVcPlugin, NoTraffic, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, Topology};

fn cfg_2vc() -> SimConfig {
    SimConfig {
        vnets: 1,
        vcs_per_vnet: 2,
        max_packet_flits: 5,
    }
}

/// The escape network never wedges: across seeds and fault patterns, stop
/// the traffic and everything drains.
#[test]
fn escape_vc_drains_across_faulty_topologies() {
    let mesh = Mesh::new(6, 6);
    for seed in 0..4u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = FaultModel::new(FaultKind::Links, 10).inject(mesh, &mut rng);
        let mut sim = Simulator::new(
            &topo,
            cfg_2vc(),
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 12),
            UniformTraffic::new(0.35).single_vnet(),
            seed,
        );
        sim.run(2_500);
        let mut sim = sim.replace_traffic(NoTraffic);
        assert!(
            sim.run_until_drained(150_000),
            "seed {seed}: escape network failed to drain ({} in flight)",
            sim.core().in_flight()
        );
        let s = sim.core().stats();
        assert_eq!(s.delivered_packets + s.dropped_packets, s.offered_packets);
    }
}

/// With a huge threshold nothing escalates and the reserved VC stays empty —
/// the throughput cost the paper charges escape VCs is real.
#[test]
fn reservation_costs_capacity_even_when_unused() {
    let mesh = Mesh::new(6, 6);
    let topo = Topology::full(mesh);
    let run = |reserved: bool| {
        let stats = if reserved {
            let mut sim = Simulator::new(
                &topo,
                cfg_2vc(),
                Box::new(MinimalRouting::new(&topo)),
                EscapeVcPlugin::new(&topo, u64::MAX / 4),
                UniformTraffic::new(0.25).single_vnet(),
                9,
            );
            sim.warmup(1_000);
            sim.run(4_000);
            sim.core().stats().clone()
        } else {
            let mut sim = Simulator::new(
                &topo,
                cfg_2vc(),
                Box::new(MinimalRouting::new(&topo)),
                sb_sim::NullPlugin,
                UniformTraffic::new(0.25).single_vnet(),
                9,
            );
            sim.warmup(1_000);
            sim.run(4_000);
            sim.core().stats().clone()
        };
        stats.throughput(36)
    };
    let with_reservation = run(true);
    let without = run(false);
    assert!(
        with_reservation < without,
        "reserving 1 of 2 VCs must cost throughput: {with_reservation} vs {without}"
    );
}
