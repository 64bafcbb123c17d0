//! Tier-1 pins on the allocator's work per grant below saturation, where
//! the paper's evaluation spends most of its simulated time: router scans
//! per grant on a shortened `low_load` shape and on the `sparse_leap`
//! shape of the repo benchmark. A scan is owed only to a router that can
//! still compete — one whose grant emptied it is not re-scanned, and an
//! empty feeder gets no credit wake — so either wake rule regressing shows
//! here as a count, the same in debug and release and on any machine.
//! (`crates/bench/tests/saturated.rs` holds the saturated regime.)

use static_bubble_repro::scenario::{ClockMode, Design, FaultSpec, Scenario, TrafficSpec};
use static_bubble_repro::topology::FaultKind;

/// Static Bubble on a `side`×`side` mesh with `link_faults` faulty links,
/// uniform-random single-vnet traffic at `rate`.
fn shape(side: u16, link_faults: usize, rate: f64, clock: ClockMode) -> Scenario {
    Scenario::new("work-counts", Design::StaticBubble)
        .with_mesh(side, side)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: link_faults,
            seed: 1,
        })
        .with_traffic(TrafficSpec::Uniform {
            rate,
            single_vnet: true,
        })
        .with_clock(clock)
        .with_seed(1)
}

/// Run `cycles` of `scenario` and assert that router scans per grant since
/// construction stay at or below `ceiling`.
fn scans_per_grant(scenario: Scenario, cycles: u64, ceiling: f64) {
    let mut sim = scenario.build();
    sim.run(cycles);
    let k = sim.kernel_counters();
    assert!(k.grants > 1_000, "too little traffic to read: {k:?}");
    let per_grant = k.scans as f64 / k.grants as f64;
    assert!(
        per_grant <= ceiling,
        "router scans per grant {per_grant:.3} rose above {ceiling}: {k:?}"
    );
}

/// `low_load`: 16×16, 20 link faults, UR 0.02, a coin per node per cycle.
/// Measured 1.107 scans per grant; 2.582 when a granting router was always
/// re-scanned and every take woke its feeder.
#[test]
fn low_load_scans_about_once_per_grant() {
    scans_per_grant(shape(16, 20, 0.02, ClockMode::Step), 4_000, 1.2);
}

/// `sparse_leap`: 8×8, 12 link faults, UR 0.0005, geometric arrivals so
/// the engine leaps the dead cycles. Measured 1.003; 2.844 before.
#[test]
fn sparse_leap_scans_once_per_grant() {
    scans_per_grant(shape(8, 12, 0.0005, ClockMode::Leap), 400_000, 1.1);
}
