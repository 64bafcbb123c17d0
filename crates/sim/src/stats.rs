//! Measurement counters: latency, throughput, drops, link utilization.

use serde::{Deserialize, Serialize};

/// Special-message classes of the Static Bubble protocol, tracked here so the
/// link-utilization breakdown of Fig. 11 falls out of the generic stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialClass {
    /// Deadlock-detection probe.
    Probe,
    /// Injection-disable message.
    Disable,
    /// Check-probe (fast re-check after one recovery step).
    CheckProbe,
    /// Enable (restriction removal) message.
    Enable,
}

impl SpecialClass {
    /// Stable index 0..4.
    pub fn index(self) -> usize {
        match self {
            SpecialClass::Probe => 0,
            SpecialClass::Disable => 1,
            SpecialClass::CheckProbe => 2,
            SpecialClass::Enable => 3,
        }
    }

    /// All classes.
    pub const ALL: [SpecialClass; 4] = [
        SpecialClass::Probe,
        SpecialClass::Disable,
        SpecialClass::CheckProbe,
        SpecialClass::Enable,
    ];
}

/// Maximum number of virtual networks the per-vnet conservation counters
/// cover. [`crate::NetCore`] rejects configurations beyond this.
pub(crate) const MAX_VNETS: usize = 8;

/// Aggregate simulation statistics.
///
/// All counters are cumulative since construction or the last
/// `Stats::reset_measurement` (which is how warmup is excluded — the
/// engine carries offers for packets still in flight across the reset so
/// conservation and `acceptance()` stay meaningful; see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Stats {
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// Packets handed to the network (entered a source queue).
    pub offered_packets: u64,
    /// Flits offered.
    pub offered_flits: u64,
    /// Packets that left a source queue into the network.
    pub injected_packets: u64,
    /// Packets delivered to their destination NI.
    pub delivered_packets: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Packets dropped at injection because the destination is unreachable.
    pub dropped_packets: u64,
    /// Flits of dropped packets.
    pub dropped_flits: u64,
    /// In-flight packets lost to a runtime reconfiguration (their router
    /// died or no route survived).
    pub lost_packets: u64,
    /// Flits of lost packets.
    pub lost_flits: u64,
    /// Per-vnet breakdown of [`Stats::offered_packets`].
    pub offered_packets_vnet: [u64; MAX_VNETS],
    /// Per-vnet breakdown of [`Stats::delivered_packets`].
    pub delivered_packets_vnet: [u64; MAX_VNETS],
    /// Per-vnet breakdown of [`Stats::dropped_packets`].
    pub dropped_packets_vnet: [u64; MAX_VNETS],
    /// Per-vnet breakdown of [`Stats::lost_packets`].
    pub lost_packets_vnet: [u64; MAX_VNETS],
    /// Sum over delivered packets of (delivery − creation) cycles.
    pub latency_sum: u64,
    /// Max packet latency observed.
    pub latency_max: u64,
    /// Sum of (delivery − injection-grant) cycles, i.e. excluding source
    /// queueing.
    pub network_latency_sum: u64,
    /// Number of packet-grants (movements) in the window.
    pub movements: u64,
    /// Data-flit link traversals (flit × link), for utilization and energy.
    pub data_link_flits: u64,
    /// Router traversals by data flits (flit × router), for energy.
    pub data_router_flits: u64,
    /// Link traversals by special messages, per class.
    pub special_link_flits: [u64; 4],
    /// Probes sent (FSM timeouts that emitted a probe).
    pub probes_sent: u64,
    /// Returned probes discarded at their sender because the FSM was
    /// mid-recovery (one recovery at a time). A silently-rising value here
    /// with `deadlocks_recovered` flat is the signature of a recovery that
    /// cannot make progress.
    pub probes_dropped: u64,
    /// Deadlocks recovered (disable returned and a bubble was activated).
    pub deadlocks_recovered: u64,
}

impl Stats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Average packet latency (creation → delivery), `None` if nothing was
    /// delivered.
    pub fn avg_latency(&self) -> Option<f64> {
        (self.delivered_packets > 0)
            .then(|| self.latency_sum as f64 / self.delivered_packets as f64)
    }

    /// Delivered throughput in flits per node per cycle.
    pub fn throughput(&self, nodes: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.delivered_flits as f64 / nodes as f64 / self.cycles as f64
    }

    /// Fraction of offered flits delivered (1.0 when the network keeps up).
    pub fn acceptance(&self) -> f64 {
        if self.offered_flits == 0 {
            return 1.0;
        }
        self.delivered_flits as f64 / self.offered_flits as f64
    }

    /// Link utilization of data flits, given total alive unidirectional link
    /// count.
    pub fn data_link_utilization(&self, unidirectional_links: usize) -> f64 {
        if self.cycles == 0 || unidirectional_links == 0 {
            return 0.0;
        }
        self.data_link_flits as f64 / (unidirectional_links as f64 * self.cycles as f64)
    }

    /// Link utilization of one special-message class.
    pub fn special_link_utilization(
        &self,
        class: SpecialClass,
        unidirectional_links: usize,
    ) -> f64 {
        if self.cycles == 0 || unidirectional_links == 0 {
            return 0.0;
        }
        self.special_link_flits[class.index()] as f64
            / (unidirectional_links as f64 * self.cycles as f64)
    }

    /// Zero every counter: begin a fresh measurement window (call after
    /// warmup).
    pub(crate) fn reset_measurement(&mut self) {
        *self = Stats::default();
    }

    /// Count one packet delivered to its destination NI.
    #[inline]
    pub(crate) fn count_delivered(&mut self, vnet: u8, len_flits: u16) {
        self.delivered_packets += 1;
        self.delivered_flits += len_flits as u64;
        self.delivered_packets_vnet[vnet as usize] += 1;
    }

    /// Count one packet dropped at its NI (destination unreachable).
    #[inline]
    pub(crate) fn count_dropped(&mut self, vnet: u8, len_flits: u16) {
        self.dropped_packets += 1;
        self.dropped_flits += len_flits as u64;
        self.dropped_packets_vnet[vnet as usize] += 1;
    }

    /// Count one accepted packet lost to a reconfiguration.
    #[inline]
    pub(crate) fn count_lost(&mut self, vnet: u8, len_flits: u16) {
        self.lost_packets += 1;
        self.lost_flits += len_flits as u64;
        self.lost_packets_vnet[vnet as usize] += 1;
    }

    /// Fold another measurement window into this one, treating the two
    /// windows as one long window: every counter adds, maxima take the max.
    /// `cycles` add too, so ratio metrics ([`Stats::throughput`],
    /// [`Stats::acceptance`]) of the merged value are the cycle-weighted
    /// aggregates over both windows. Merging is commutative and associative,
    /// which is what lets the sweep fleet aggregate worker results in
    /// whatever order they complete.
    pub fn merge(&mut self, other: &Stats) {
        self.cycles += other.cycles;
        self.offered_packets += other.offered_packets;
        self.offered_flits += other.offered_flits;
        self.injected_packets += other.injected_packets;
        self.delivered_packets += other.delivered_packets;
        self.delivered_flits += other.delivered_flits;
        self.dropped_packets += other.dropped_packets;
        self.dropped_flits += other.dropped_flits;
        self.lost_packets += other.lost_packets;
        self.lost_flits += other.lost_flits;
        for v in 0..MAX_VNETS {
            self.offered_packets_vnet[v] += other.offered_packets_vnet[v];
            self.delivered_packets_vnet[v] += other.delivered_packets_vnet[v];
            self.dropped_packets_vnet[v] += other.dropped_packets_vnet[v];
            self.lost_packets_vnet[v] += other.lost_packets_vnet[v];
        }
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
        self.network_latency_sum += other.network_latency_sum;
        self.movements += other.movements;
        self.data_link_flits += other.data_link_flits;
        self.data_router_flits += other.data_router_flits;
        for c in 0..4 {
            self.special_link_flits[c] += other.special_link_flits[c];
        }
        self.probes_sent += other.probes_sent;
        self.probes_dropped += other.probes_dropped;
        self.deadlocks_recovered += other.deadlocks_recovered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty() {
        let s = Stats::new();
        assert_eq!(s.avg_latency(), None);
        assert_eq!(s.throughput(64), 0.0);
        assert_eq!(s.acceptance(), 1.0);
    }

    #[test]
    fn throughput_and_latency() {
        let s = Stats {
            cycles: 100,
            delivered_packets: 10,
            delivered_flits: 50,
            latency_sum: 200,
            offered_flits: 60,
            ..Stats::default()
        };
        assert_eq!(s.avg_latency(), Some(20.0));
        assert!((s.throughput(5) - 0.1).abs() < 1e-12);
        assert!((s.acceptance() - 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn special_class_indices_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in SpecialClass::ALL {
            assert!(seen.insert(c.index()));
        }
    }

    #[test]
    fn merge_adds_counters_and_maxes_maxima() {
        let a = Stats {
            cycles: 100,
            delivered_packets: 10,
            delivered_flits: 50,
            offered_flits: 60,
            latency_sum: 200,
            latency_max: 40,
            special_link_flits: [1, 2, 3, 4],
            offered_packets_vnet: [5, 0, 0, 0, 0, 0, 0, 0],
            ..Stats::default()
        };
        let b = Stats {
            cycles: 50,
            delivered_packets: 4,
            delivered_flits: 20,
            offered_flits: 20,
            latency_sum: 100,
            latency_max: 90,
            special_link_flits: [10, 0, 0, 0],
            offered_packets_vnet: [0, 7, 0, 0, 0, 0, 0, 0],
            ..Stats::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.cycles, 150);
        assert_eq!(m.delivered_packets, 14);
        assert_eq!(m.latency_max, 90);
        assert_eq!(m.special_link_flits, [11, 2, 3, 4]);
        assert_eq!(m.offered_packets_vnet[..2], [5, 7]);
        // Ratio metrics are the cycle-weighted aggregate.
        assert!((m.acceptance() - 70.0 / 80.0).abs() < 1e-12);
        // Commutative.
        let mut n = b.clone();
        n.merge(&a);
        assert_eq!(m, n);
    }

    #[test]
    fn reset_clears() {
        let mut s = Stats {
            cycles: 5,
            delivered_packets: 1,
            ..Stats::default()
        };
        s.reset_measurement();
        assert_eq!(s, Stats::default());
    }
}
