//! Packet-lifecycle tracing: wrap any [`TrafficSource`] in a [`Traced`]
//! decorator to record offered/delivered events for offline analysis
//! (latency distributions, per-flow breakdowns, experiment debugging).

use crate::packet::{NewPacket, Packet};
use crate::traffic::TrafficSource;
use sb_topology::{NodeId, Topology};
use serde::Serialize;

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) enum TraceEvent {
    /// A packet was offered to the network.
    Offered {
        /// Cycle of the offer.
        time: u64,
        /// Source router.
        src: NodeId,
        /// Destination router.
        dst: NodeId,
        /// Length in flits.
        len_flits: u16,
    },
    /// A packet reached its destination NI.
    Delivered {
        /// Delivery cycle.
        time: u64,
        /// Source router.
        src: NodeId,
        /// Destination router.
        dst: NodeId,
        /// Creation → delivery latency in cycles.
        latency: u64,
    },
}

/// A [`TrafficSource`] decorator recording every offer and delivery.
#[derive(Debug, Clone)]
pub struct Traced<T> {
    inner: T,
    events: Vec<TraceEvent>,
}

impl<T> Traced<T> {
    /// Wrap a traffic source.
    pub fn new(inner: T) -> Self {
        Traced {
            inner,
            events: Vec::new(),
        }
    }

    /// Discard all recorded events (start a clean observation window). The
    /// engine calls this through
    /// [`TrafficSource::on_measurement_reset`] at the end of warmup so
    /// reported distributions contain measurement-window packets only.
    pub(crate) fn clear_events(&mut self) {
        self.events.clear();
    }

    /// Delivery latencies, in delivery order.
    pub(crate) fn latencies(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Delivered { latency, .. } => Some(*latency),
                _ => None,
            })
            .collect()
    }

    /// Latency percentile over delivered packets. Returns `None` when
    /// nothing was delivered or `p` is outside `0.0..=100.0` (including
    /// NaN) — an out-of-range percentile is a caller bug, not "the max".
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        if !(0.0..=100.0).contains(&p) {
            return None;
        }
        let mut lats = self.latencies();
        if lats.is_empty() {
            return None;
        }
        lats.sort_unstable();
        let idx = ((p / 100.0) * (lats.len() - 1) as f64).round() as usize;
        Some(lats[idx.min(lats.len() - 1)])
    }
}

impl<T: TrafficSource> TrafficSource for Traced<T> {
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        let pkts = self.inner.generate(time, topo, rng);
        for p in &pkts {
            self.events.push(TraceEvent::Offered {
                time,
                src: p.src,
                dst: p.dst,
                len_flits: p.len_flits,
            });
        }
        pkts
    }

    fn on_delivered(&mut self, pkt: &Packet, time: u64) {
        self.events.push(TraceEvent::Delivered {
            time,
            src: pkt.src,
            dst: pkt.dst,
            latency: time.saturating_sub(pkt.created_at),
        });
        self.inner.on_delivered(pkt, time);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn on_measurement_reset(&mut self) {
        self.clear_events();
        self.inner.on_measurement_reset();
    }

    fn on_topology_change(&mut self) {
        self.inner.on_topology_change();
    }

    fn next_arrival(&self, now: u64) -> Option<u64> {
        self.inner.next_arrival(now)
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&TracedState {
            events: self.events.clone(),
            inner: self.inner.snapshot_state()?,
        })
        .map_err(|e| e.0)
    }
}

/// Snapshot blob of a [`Traced`] decorator: the recorded events plus the
/// wrapped source's own blob, nested as an opaque string.
#[derive(Debug, Clone, Serialize)]
struct TracedState {
    events: Vec<TraceEvent>,
    inner: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::plugin::NullPlugin;
    use crate::traffic::ScriptedTraffic;
    use sb_routing::XyRouting;
    use sb_topology::{Mesh, Topology};

    fn traced_run() -> Traced<ScriptedTraffic> {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let script: Vec<(u64, NewPacket)> = (0..10)
            .map(|i| {
                (
                    i,
                    NewPacket {
                        src: mesh.node_at(0, 0),
                        dst: mesh.node_at(3, 3),
                        vnet: 0,
                        len_flits: 5,
                    },
                )
            })
            .collect();
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(XyRouting::new(&topo)),
            NullPlugin,
            Traced::new(ScriptedTraffic::new(script)),
            0,
        );
        assert!(sim.run_until_drained(2_000));
        let (traffic, _) = (sim.traffic().clone(), ());
        traffic
    }

    #[test]
    fn records_offers_and_deliveries() {
        let traced = traced_run();
        let offers = traced
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Offered { .. }))
            .count();
        assert_eq!(offers, 10);
        assert_eq!(traced.latencies().len(), 10);
        // XY route is 6 hops: floor latency 12 + 5 serialization.
        assert!(traced.latencies().iter().all(|&l| l >= 17));
    }

    #[test]
    fn percentiles_are_ordered() {
        let traced = traced_run();
        let p50 = traced.latency_percentile(50.0).unwrap();
        let p99 = traced.latency_percentile(99.0).unwrap();
        assert!(p50 <= p99);
        assert!(traced.latency_percentile(0.0).unwrap() <= p50);
        assert_eq!(
            Traced::new(crate::traffic::NoTraffic).latency_percentile(50.0),
            None
        );
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        let traced = traced_run();
        assert!(traced.latency_percentile(0.0).is_some());
        assert!(traced.latency_percentile(100.0).is_some());
        assert_eq!(traced.latency_percentile(-0.001), None);
        assert_eq!(traced.latency_percentile(100.001), None);
        assert_eq!(traced.latency_percentile(200.0), None);
        assert_eq!(traced.latency_percentile(f64::NAN), None);
    }

    #[test]
    fn warmup_clears_traced_events() {
        use crate::traffic::UniformTraffic;
        let topo = Topology::full(Mesh::new(4, 4));
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(XyRouting::new(&topo)),
            NullPlugin,
            Traced::new(UniformTraffic::new(0.1).single_vnet()),
            7,
        );
        sim.run(200);
        assert!(!sim.traffic().events.is_empty(), "warmup generated events");
        sim.warmup(0); // reset only: the 200 cycles above were the warmup
        assert!(
            sim.traffic().events.is_empty(),
            "measurement reset discards warmup events"
        );
        sim.run(200);
        let events = &sim.traffic().events;
        assert!(!events.is_empty());
        // Every surviving offer is post-reset.
        assert!(events.iter().all(|e| match *e {
            TraceEvent::Offered { time, .. } => time >= 200,
            TraceEvent::Delivered { time, .. } => time >= 200,
        }));
    }
}
