//! The invariant auditor must catch seeded violations in every class it
//! claims to check — and the measurement window must open clean, with the
//! carry keeping acceptance physical (≤ 1.0) when warmup packets drain into
//! it. (The
//! seeded VC-legality and wakeup violations need test-only hooks, so they
//! are unit tests in `crates/sim/src/audit.rs`.)

use rand::RngCore;
use sb_routing::XyRouting;
use sb_sim::{
    AuditClass, NewPacket, NullPlugin, Packet, ScriptedTraffic, SimConfig, Simulator,
    TrafficSource, UniformTraffic,
};
use sb_topology::{Mesh, Topology};

fn loaded_sim(rate: f64, seed: u64) -> Simulator<NullPlugin, UniformTraffic> {
    let topo = Topology::full(Mesh::new(4, 4));
    Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(rate),
        seed,
    )
}

// ----------------------------------------------------------------------
// Seeded violations, one per audit class
// ----------------------------------------------------------------------

#[test]
fn auditor_catches_seeded_conservation_violation() {
    let mut sim = loaded_sim(0.1, 3);
    sim.run(200);
    assert!(sim.audit_now().is_none(), "untampered run audits clean");
    // Claim offers that never happened: the books no longer balance.
    sim.core_mut().stats_mut().offered_packets += 3;
    sim.core_mut().stats_mut().offered_flits += 15;
    let report = sim.audit_now().expect("tampered stats must be caught");
    assert!(report
        .violations
        .iter()
        .any(|v| v.class == AuditClass::Conservation && v.detail.contains("packets")));
    assert!(report
        .violations
        .iter()
        .any(|v| v.class == AuditClass::Conservation && v.detail.contains("flits")));
    // The report is also left behind for later retrieval, then consumed.
    assert!(sim.take_forensics().is_some());
    assert!(sim.take_forensics().is_none());
}

#[test]
#[should_panic(expected = "invariant audit failed")]
fn periodic_audit_panics_with_forensics_on_violation() {
    let mut sim = loaded_sim(0.1, 9);
    sim.run(100);
    sim.core_mut().stats_mut().offered_packets += 1;
    sim.set_audit(4);
    sim.run(8);
}

#[test]
#[should_panic(expected = "invariant audit failed at oracle call")]
fn oracle_call_audits_when_enabled() {
    let mut sim = loaded_sim(0.1, 11);
    sim.run(100);
    sim.core_mut().stats_mut().offered_flits += 2;
    sim.set_audit(1_000_000); // enabled, but the cadence never fires
    let _ = sim.deadlocked_now();
}

#[test]
fn disabled_audit_never_fires() {
    let mut sim = loaded_sim(0.1, 13);
    sim.run(100);
    sim.core_mut().stats_mut().offered_packets += 1;
    // audit_every defaults to 0: the tampered books go unnoticed.
    sim.run(200);
    let _ = sim.deadlocked_now();
}

// ----------------------------------------------------------------------
// Measurement window: a clean start, and the carry (the acceptance > 1.0
// regression)
// ----------------------------------------------------------------------

/// Uniform traffic that records each delivery as `(grant cycle, latency)`.
struct Recorded {
    inner: UniformTraffic,
    deliveries: Vec<(u64, u64)>,
}

impl TrafficSource for Recorded {
    fn generate(&mut self, time: u64, topo: &Topology, rng: &mut dyn RngCore) -> Vec<NewPacket> {
        self.inner.generate(time, topo, rng)
    }

    fn on_delivered(&mut self, pkt: &Packet, time: u64) {
        // `time` is the tail's arrival; the engine counts the delivery at
        // the head's ejection grant, `len_flits` cycles earlier.
        let granted = time - u64::from(pkt.len_flits);
        self.deliveries.push((granted, time - pkt.created_at));
    }
}

#[test]
fn warmup_opens_a_window_of_post_reset_deliveries_only() {
    let (before, after) = (300, 500);
    let topo = Topology::full(Mesh::new(4, 4));
    let traffic = Recorded {
        inner: UniformTraffic::new(0.3),
        deliveries: Vec::new(),
    };
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        traffic,
        5,
    );
    sim.set_audit(1);
    sim.run(before);
    assert!(sim.core().stats().delivered_packets > 0);
    sim.warmup(0); // reset only: the cycles above were the warmup
    assert!(
        sim.core().in_flight() > 0,
        "packets must be in flight when the window opens for the carry to bite"
    );
    sim.run(after);
    let stats = sim.core().stats();
    assert_eq!(stats.cycles, after);
    let window: Vec<u64> = (sim.traffic().deliveries.iter())
        .filter(|&&(granted, _)| granted >= before)
        .map(|&(_, latency)| latency)
        .collect();
    assert!(window.len() < sim.traffic().deliveries.len());
    assert_eq!(stats.delivered_packets, window.len() as u64);
    assert_eq!(stats.latency_sum, window.iter().sum::<u64>());
    assert_eq!(Some(stats.latency_max), window.iter().copied().max());
    // The offers of packets in flight at the reset carried over.
    assert!(stats.offered_packets >= stats.delivered_packets);
    assert!(stats.acceptance() <= 1.0);
}

#[test]
fn acceptance_stays_physical_with_warmup_packets_in_flight() {
    // A burst injected just before the warmup boundary is still in flight
    // when the window opens; only a trickle is offered afterwards. Before
    // the carry fix, the burst's deliveries landed in a window whose
    // offered counters had been zeroed — acceptance() > 1.0.
    let mesh = Mesh::new(8, 8);
    let topo = Topology::full(mesh);
    let mut script = Vec::new();
    for i in 0..64u16 {
        let src = sb_topology::NodeId(i);
        let dst = sb_topology::NodeId(63 - i);
        if src == dst {
            continue;
        }
        script.push((
            190 + u64::from(i % 10),
            NewPacket {
                src,
                dst,
                vnet: 0,
                len_flits: 5,
            },
        ));
    }
    let trickle_count = 4u64;
    for k in 0..trickle_count {
        script.push((
            250 + 50 * k,
            NewPacket {
                src: mesh.node_at(0, 0),
                dst: mesh.node_at(7, 7),
                vnet: 0,
                len_flits: 5,
            },
        ));
    }
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        ScriptedTraffic::new(script),
        0,
    );
    sim.set_audit(1);
    sim.warmup(200);
    assert!(
        sim.core().in_flight() > 0,
        "burst must still be in flight when the window opens"
    );
    sim.run(1_000);
    let stats = sim.core().stats();
    assert!(
        stats.delivered_packets > trickle_count,
        "burst leftovers must deliver inside the window for this test to bite"
    );
    assert!(
        stats.acceptance() <= 1.0,
        "acceptance {} > 1.0: warmup carry lost",
        stats.acceptance()
    );
    assert!(
        stats.offered_packets >= stats.delivered_packets,
        "offered {} < delivered {}",
        stats.offered_packets,
        stats.delivered_packets
    );
}
