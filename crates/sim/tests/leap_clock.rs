//! The event-driven leap clock must be *semantically invisible*:
//! bit-identical [`Stats`] versus the stepped clock under the same
//! (geometric) arrival sampler, across every deadlock design — including
//! through organic deadlock and recovery, with the invariant auditor
//! running.
//!
//! The contract being tested (DESIGN.md §8): the engine may jump the clock
//! only when the runnable set is empty, and every time-driven state change
//! (wheel maturity, traffic arrival, plugin timer, audit boundary) bounds
//! the jump. A dead cycle consumes no RNG under the geometric sampler, so
//! skipping it is invisible.

use proptest::prelude::*;
use sb_routing::XyRouting;
use sb_scenario::{ClockMode, Design, FaultSpec, Scenario};
use sb_sim::{NoTraffic, NullPlugin, SimConfig, Simulator, Stats, UniformTraffic};
use sb_topology::{FaultKind, Mesh, NodeId, Topology};

/// Build one scenario of the sweep with the geometric arrival sampler on
/// *both* sides (the Bernoulli sampler consumes one shared-RNG coin per
/// cycle per node, so stepped-over and leaped-over cycles would diverge) and
/// run it under the requested clock.
fn clock_run(
    design: Design,
    faults: usize,
    fault_seed: u64,
    rate: f64,
    seed: u64,
    audit_every: u64,
    clock: ClockMode,
) -> Stats {
    let faults = if faults == 0 {
        FaultSpec::Pristine
    } else {
        FaultSpec::Model {
            kind: FaultKind::Links,
            count: faults,
            seed: fault_seed,
        }
    };
    let sc = Scenario::new("leap-sweep", design)
        .with_mesh(8, 8)
        .with_faults(faults)
        .with_seed(seed)
        .with_audit_every(audit_every);
    let topo = sc.topology();
    let traffic = UniformTraffic::new(rate).single_vnet().geometric();
    let mut sim = sc.build_with(&topo, traffic);
    sim.set_clock(clock);
    sim.warmup(200);
    sim.run(1_200);
    sim.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Leap == step, bit for bit, for every design, across random fault
    /// patterns and loads from near-idle (where leaping dominates) to past
    /// saturation (where the runnable set never empties) — with the
    /// invariant auditor either off or running as a clock event itself.
    #[test]
    fn leap_clock_matches_step_across_designs(
        design_idx in 0usize..4,
        faults in 0usize..12,
        fault_seed in any::<u64>(),
        rate_centi in 1u32..65,
        seed in any::<u64>(),
        audit_idx in 0usize..2,
    ) {
        let audit = [0u64, 5][audit_idx];
        let design = [
            Design::Unprotected,
            Design::SpanningTree,
            Design::EscapeVc,
            Design::StaticBubble,
        ][design_idx];
        let rate = rate_centi as f64 / 100.0;
        let step = clock_run(design, faults, fault_seed, rate, seed, audit, ClockMode::Step);
        let leap = clock_run(design, faults, fault_seed, rate, seed, audit, ClockMode::Leap);
        prop_assert_eq!(step, leap);
    }
}

/// The Fig. 3 regime under the leap clock: organic deadlocks form, Static
/// Bubble heals them, and the whole arc — probe timers, TTL sweeps, bubble
/// relocation, restriction expiry — is bit-identical to the stepped clock.
/// Run once with the auditor at every cycle (the leap degenerates to a step
/// and the auditor cross-checks each one) and once unaudited (real leaps
/// happen through the frozen phase).
#[test]
fn leap_clock_matches_step_through_deadlock_and_recovery() {
    let run = |audit: u64, clock: ClockMode| {
        let sc = Scenario::new("leap-recovery", Design::StaticBubble)
            .with_mesh(8, 8)
            .with_config(SimConfig::single_vnet())
            .with_seed(42)
            .with_audit_every(audit);
        let topo = sc.topology();
        let traffic = UniformTraffic::new(0.35).single_vnet().geometric();
        let mut sim = sc.build_with(&topo, traffic);
        sim.set_clock(clock);
        sim.run(2_500);
        sim.stats().clone()
    };
    for audit in [1, 0] {
        let step = run(audit, ClockMode::Step);
        let leap = run(audit, ClockMode::Leap);
        assert!(
            step.deadlocks_recovered > 0,
            "scenario must deadlock and recover to be a meaningful A/B check"
        );
        assert_eq!(step, leap, "audit_every = {audit}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A burst that deadlocks, then the tap closes and Static Bubble heals
    /// what formed while the network drains. With injection halted the
    /// runnable set empties between special-message hops, so the clock
    /// leaps *while messages are in flight* — the one regime where a
    /// delivery restarts a counter on a tick that follows a gap. (While
    /// traffic keeps arriving, as in the sweep above, that almost never
    /// happens; a plugin that let the restarted counter absorb the gap
    /// diverged on four in ten of these runs.)
    #[test]
    fn leap_clock_matches_step_through_a_halted_drain(
        fault_seed in any::<u64>(),
        seed in any::<u64>(),
        tdd in 10u64..40,
    ) {
        let run = |clock: ClockMode| {
            let sc = Scenario::new("leap-drain", Design::StaticBubble)
                .with_mesh(8, 8)
                .with_faults(FaultSpec::Model {
                    kind: FaultKind::Links,
                    count: 12,
                    seed: fault_seed,
                })
                .with_config(SimConfig::single_vnet())
                .with_tdd(tdd)
                .with_seed(seed);
            let topo = sc.topology();
            let traffic = UniformTraffic::new(0.3).single_vnet().geometric();
            let mut sim = sc.build_with(&topo, traffic);
            sim.set_clock(clock);
            sim.run(600);
            sim.halt_injection();
            let drained = sim.run_until_drained(20_000);
            (sim.stats().clone(), sim.time(), drained)
        };
        prop_assert_eq!(run(ClockMode::Step), run(ClockMode::Leap));
    }
}

/// Forced-deadlock forensics under the leap clock, audited every cycle:
/// the oracle detection cycle and the annotated wait-for cycle of the
/// [`sb_sim::ForensicsReport`] must be identical to the stepped clock's.
#[test]
fn leap_clock_forensics_match_step_at_audit_every_1() {
    let run = |clock: ClockMode| {
        let sc = Scenario::new("leap-forensics", Design::Unprotected)
            .with_mesh(8, 8)
            .with_config(SimConfig::single_vnet())
            .with_seed(7)
            .with_audit_every(1);
        let topo = sc.topology();
        let traffic = UniformTraffic::new(0.5).single_vnet().geometric();
        let mut sim = sc.build_with(&topo, traffic);
        sim.set_clock(clock);
        let detected = sim.run_until_deadlock(50_000, 64);
        let report = sim.take_forensics();
        (detected, report, sim.stats().clone())
    };
    let (step_at, step_report, step_stats) = run(ClockMode::Step);
    let (leap_at, leap_report, leap_stats) = run(ClockMode::Leap);
    let step_at = step_at.expect("unprotected at 0.5 must deadlock");
    assert_eq!(Some(step_at), leap_at, "detection cycle");
    assert_eq!(step_stats, leap_stats);
    let (s, l) = (
        step_report.expect("detection leaves forensics"),
        leap_report.expect("detection leaves forensics"),
    );
    assert_eq!(s.time, l.time, "forensics capture cycle");
    assert_eq!(
        format!("{:?}", s.wait_cycle),
        format!("{:?}", l.wait_cycle),
        "annotated wait-for cycle"
    );
}

/// A wheel wake scheduled far beyond the 64-slot horizon is clamped, not
/// lost: the router wakes exactly at the horizon boundary (early wakes are
/// allowed by the wheel contract, late ones never) — and the leap clock
/// stops at that boundary instead of jumping over the entry.
#[test]
fn wheel_wake_beyond_horizon_fires_at_the_clamped_cycle() {
    for clock in [ClockMode::Step, ClockMode::Leap] {
        let topo = Topology::full(Mesh::new(4, 4));
        let mut sim = Simulator::new(
            &topo,
            SimConfig::tiny(),
            Box::new(XyRouting::new(&topo)),
            NullPlugin,
            NoTraffic,
            0,
        );
        sim.set_clock(clock);
        sim.run(2); // retire every router
        assert_eq!(sim.core().active_count(), 0);
        let t0 = sim.time();
        let router = NodeId(5);
        // Requested 200 cycles out; the wheel holds at most 63.
        sim.core_mut().wake_at(router, t0 + 200);
        sim.run(62);
        assert!(sim.audit_now().is_none());
        assert!(
            !sim.core().is_active(router),
            "{clock:?}: woke before the clamped horizon"
        );
        sim.run(1); // now sitting exactly on the t0 + 63 boundary
        assert!(sim.audit_now().is_none()); // drains the due wheel slot
        assert!(
            sim.core().is_active(router),
            "{clock:?}: wheel entry lost past the horizon"
        );
        assert_eq!(sim.time(), t0 + 63);
    }
}

/// Idle and scripted-burst runs leap in O(events), not O(cycles), while
/// reporting the exact same statistics block as the stepped clock.
#[test]
fn leap_clock_is_exact_over_long_idle_gaps() {
    use sb_sim::{NewPacket, ScriptedTraffic};
    let topo = Topology::full(Mesh::new(8, 8));
    let mesh = topo.mesh();
    let script = |at: u64| {
        (
            at,
            NewPacket {
                src: mesh.node_at(0, 0),
                dst: mesh.node_at(7, 7),
                vnet: 0,
                len_flits: 5,
            },
        )
    };
    let run = |clock: ClockMode| {
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(XyRouting::new(&topo)),
            NullPlugin,
            // Two bursts separated by a 100k-cycle dead gap.
            ScriptedTraffic::new(vec![script(3), script(100_000), script(100_001)]),
            0,
        );
        sim.set_clock(clock);
        sim.run(150_000);
        assert_eq!(sim.core().stats().cycles, 150_000);
        assert_eq!(sim.core().stats().delivered_packets, 3);
        sim.core().stats().clone()
    };
    assert_eq!(run(ClockMode::Step), run(ClockMode::Leap));
}
