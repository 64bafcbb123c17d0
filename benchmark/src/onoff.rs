//! Bursty open-loop traffic for the `recovery_bursts` workload.
//!
//! The paper's intended regime is a network that runs below saturation and
//! deadlocks rarely. Steady uniform-random load cannot reach it: below the
//! knee nothing deadlocks, above it the recovery protocol wedges
//! (EXPERIMENTS.md). Short bursts over a low floor form a few deadlocks
//! per burst and leave the protocol room to heal them before the next one.

use sb_sim::{NewPacket, TrafficSource, UniformTraffic};
use sb_topology::Topology;

/// Uniform-random traffic at `burst_rate` for the first `on_cycles` of
/// every `period` cycles and at `floor_rate` for the rest.
#[derive(Debug, Clone)]
pub struct OnOff {
    burst: UniformTraffic,
    floor: UniformTraffic,
    period: u64,
    on_cycles: u64,
}

impl OnOff {
    /// Single-vnet bursts; rates are in flits/node/cycle.
    pub fn new(burst_rate: f64, floor_rate: f64, period: u64, on_cycles: u64) -> Self {
        assert!(
            period > 0 && on_cycles <= period,
            "burst longer than its period"
        );
        OnOff {
            burst: UniformTraffic::new(burst_rate).single_vnet(),
            floor: UniformTraffic::new(floor_rate).single_vnet(),
            period,
            on_cycles,
        }
    }
}

impl TrafficSource for OnOff {
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        if time % self.period < self.on_cycles {
            self.burst.generate(time, topo, rng)
        } else {
            self.floor.generate(time, topo, rng)
        }
    }

    fn on_topology_change(&mut self) {
        self.burst.on_topology_change();
        self.floor.on_topology_change();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sb_topology::Mesh;

    fn offered_flits(source: &mut OnOff, topo: &Topology, cycles: std::ops::Range<u64>) -> u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        cycles
            .flat_map(|t| source.generate(t, topo, &mut rng))
            .map(|p| u64::from(p.len_flits))
            .sum()
    }

    #[test]
    fn offered_load_matches_the_duty_cycle() {
        let topo = Topology::full(Mesh::new(8, 8));
        let (burst, floor, period, on) = (0.3, 0.02, 5_000, 300);
        let mut source = OnOff::new(burst, floor, period, on);
        let cycles = 40 * period;
        let flits = offered_flits(&mut source, &topo, 0..cycles);
        let measured = flits as f64 / 64.0 / cycles as f64;
        let duty = on as f64 / period as f64;
        let expected = burst * duty + floor * (1.0 - duty);
        assert!((expected - 0.0368).abs() < 1e-12);
        assert!(
            (measured - expected).abs() < 0.03 * expected,
            "offered {measured} vs duty-cycle mean {expected}"
        );
    }

    #[test]
    fn burst_window_is_the_head_of_each_period() {
        let topo = Topology::full(Mesh::new(8, 8));
        let mut source = OnOff::new(0.4, 0.0, 1_000, 100);
        assert_eq!(offered_flits(&mut source, &topo, 100..1_000), 0);
        assert!(offered_flits(&mut source, &topo, 1_000..1_100) > 0);
    }
}
