//! The clock under a pattern from this crate: the sampler belongs to
//! `sb_sim::Synthetic`, so every pattern answers `next_arrival` and the
//! engine skips its quiet cycles.

use rand::{RngCore, SeedableRng};
use sb_routing::MinimalRouting;
use sb_sim::{NewPacket, NullPlugin, SimConfig, Simulator, TrafficSource};
use sb_topology::{FaultKind, FaultModel, Mesh, Topology};
use sb_workloads::TransposeTraffic;

/// Counts the cycles the engine executes: a leaped-over cycle never polls
/// its source.
struct Polled<T>(T, u64);

impl<T: TrafficSource> TrafficSource for Polled<T> {
    fn generate(&mut self, time: u64, topo: &Topology, rng: &mut dyn RngCore) -> Vec<NewPacket> {
        self.1 += 1;
        self.0.generate(time, topo, rng)
    }

    fn next_arrival(&self, now: u64) -> Option<u64> {
        self.0.next_arrival(now)
    }
}

#[test]
fn a_folded_pattern_leaps_and_matches_the_stepped_run() {
    let mesh = Mesh::new(8, 8);
    let topo = FaultModel::new(FaultKind::Links, 12)
        .inject(mesh, &mut rand::rngs::StdRng::seed_from_u64(3));
    // One cycle a call executes every cycle (a call's last cycle always
    // does); one call for the whole window skips the quiet ones.
    let run = |chunk: u64| {
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(MinimalRouting::new(&topo)),
            NullPlugin,
            Polled(TransposeTraffic::new(0.002).single_vnet().geometric(), 0),
            11,
        );
        (0..20_000 / chunk).for_each(|_| sim.run(chunk));
        (sim.core().stats().clone(), sim.traffic().1)
    };
    let (step, step_polls) = run(1);
    let (leap, leap_polls) = run(20_000);
    assert!(step.delivered_packets > 100, "{}", step.delivered_packets);
    assert_eq!(step, leap);
    assert_eq!(step_polls, 20_000);
    assert!(leap_polls < 10_000, "{leap_polls} of 20000 cycles executed");
}
