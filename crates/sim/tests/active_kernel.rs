//! The active-router worklist kernel must be *semantically invisible*:
//! bit-identical [`Stats`] versus the reference full sweep, while actually
//! retiring idle routers so per-cycle cost tracks occupancy.

use rand::SeedableRng;
use sb_routing::{MinimalRouting, XyRouting};
use sb_sim::{NoTraffic, NullPlugin, SimConfig, Simulator, Stats, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, NodeId, Topology};

fn faulty(mesh: Mesh, faults: usize, seed: u64) -> Topology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng)
}

/// Run `cycles` with the worklist and with the reference sweep; return both
/// stats blocks.
fn ab_run(topo: &Topology, rate: f64, seed: u64, cycles: u64) -> (Stats, Stats) {
    let run = |full_scan: bool| {
        let mut sim = Simulator::new(
            topo,
            SimConfig::default(),
            Box::new(MinimalRouting::new(topo)),
            NullPlugin,
            UniformTraffic::new(rate),
            seed,
        );
        sim.scan_all_routers(full_scan);
        sim.warmup(1_000);
        sim.run(cycles);
        sim.core().stats().clone()
    };
    (run(false), run(true))
}

#[test]
fn worklist_matches_full_sweep_low_load() {
    let topo = faulty(Mesh::new(8, 8), 10, 7);
    let (active, reference) = ab_run(&topo, 0.02, 11, 4_000);
    assert_eq!(active, reference);
}

#[test]
fn worklist_matches_full_sweep_saturated() {
    let topo = faulty(Mesh::new(8, 8), 10, 7);
    let (active, reference) = ab_run(&topo, 0.6, 13, 4_000);
    assert_eq!(active, reference);
}

#[test]
fn worklist_matches_full_sweep_full_mesh() {
    let topo = Topology::full(Mesh::new(16, 16));
    let (active, reference) = ab_run(&topo, 0.05, 17, 4_000);
    assert_eq!(active, reference);
}

#[test]
fn idle_network_retires_every_router() {
    let topo = Topology::full(Mesh::new(16, 16));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        NoTraffic,
        0,
    );
    // Construction marks everything active; the first pass prunes it all.
    assert_eq!(sim.core().active_count(), 256);
    sim.run(2);
    assert_eq!(sim.core().active_count(), 0);
    sim.run(100);
    assert_eq!(sim.core().active_count(), 0);
    assert_eq!(sim.core().stats().cycles, 102);
}

#[test]
fn traffic_reactivates_and_drains_back_to_idle() {
    use sb_sim::{NewPacket, ScriptedTraffic};
    let topo = Topology::full(Mesh::new(8, 8));
    let mesh = topo.mesh();
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        ScriptedTraffic::new(vec![(
            5,
            NewPacket {
                src: mesh.node_at(0, 0),
                dst: mesh.node_at(7, 7),
                vnet: 0,
                len_flits: 5,
            },
        )]),
        0,
    );
    sim.run(4); // idle prelude: everything retires
    assert_eq!(sim.core().active_count(), 0);
    sim.run(2); // injection at t=5 touches the source
    assert!(sim.core().is_active(mesh.node_at(0, 0)));
    assert!(sim.core().active_count() >= 1);
    assert!(sim.run_until_drained(10_000));
    sim.run(8); // a few cycles to retire the last draining router
    assert_eq!(
        sim.core().active_count(),
        0,
        "all routers retire after the packet delivers"
    );
    assert_eq!(sim.core().stats().delivered_packets, 1);
}

#[test]
fn low_load_steady_state_keeps_worklist_sparse() {
    let topo = Topology::full(Mesh::new(16, 16));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.005),
        3,
    );
    sim.run(2_000);
    // At 0.005 flits/node/cycle the vast majority of the 256 routers are
    // empty at any instant; the worklist must reflect that.
    assert!(
        sim.core().active_count() < 128,
        "active {} of 256 at near-idle load",
        sim.core().active_count()
    );
}

/// The blocked regime: an unprotected mesh driven into a deadlock, injection
/// cut, the unaffected residue delivered. Every packet left is blocked for
/// good, so the worklist is empty and a cycle must cost no router scan at
/// all — by count, on any machine.
#[test]
fn deadlocked_mesh_with_injection_cut_scans_no_router() {
    let topo = Topology::full(Mesh::new(16, 16));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.6).single_vnet(),
        9,
    );
    sim.run_until_deadlock(100_000, 64)
        .expect("a 16x16 unprotected mesh at 0.6 must deadlock");
    sim.halt_injection();
    sim.run(5_000);
    let (settled, cycles) = (sim.kernel_counters().scans, sim.core().stats().cycles);
    sim.run(10_000);
    assert!(sim.core().in_flight() > 0, "the deadlock holds its packets");
    assert_eq!(sim.core().stats().cycles, cycles + 10_000, "step clock");
    assert_eq!(sim.kernel_counters().scans, settled);
}

// ----------------------------------------------------------------------
// Wake-on-event equivalence across the full design matrix
// ----------------------------------------------------------------------

use proptest::prelude::*;
use sb_scenario::{ClockMode, Design, FaultSpec, Scenario, TrafficSpec};

/// One point of the sweep: a design on a faulty 8x8 mesh under uniform
/// random load.
#[derive(Debug, Clone, Copy)]
struct AbCase {
    design: Design,
    faults: usize,
    fault_seed: u64,
    rate: f64,
    seed: u64,
    /// All traffic in vnet 0 of a one-vnet network, or the 50/50 control
    /// (vnet 0) / data (vnet 2) mix over Table II's three vnets.
    single_vnet: bool,
}

/// Build one scenario of the sweep and run it in the requested kernel mode
/// under the requested clock, auditing every `audit_every` cycles:
/// conservation, VC legality, FSM legality and missed wakeups, any
/// violation panicking the case with a forensics report. The geometric
/// arrival sampler is used on both sides (the Bernoulli sampler consumes
/// one shared-RNG coin per node per cycle, so a leaped-over cycle would
/// diverge).
fn design_run(case: AbCase, full_scan: bool, clock: ClockMode, audit_every: u64) -> Stats {
    let faults = if case.faults == 0 {
        FaultSpec::Pristine
    } else {
        FaultSpec::Model {
            kind: FaultKind::Links,
            count: case.faults,
            seed: case.fault_seed,
        }
    };
    let mut sc = Scenario::new("ab-sweep", case.design)
        .with_mesh(8, 8)
        .with_faults(faults)
        .with_seed(case.seed)
        .with_audit_every(audit_every);
    let mut traffic = UniformTraffic::new(case.rate).geometric();
    if case.single_vnet {
        traffic = traffic.single_vnet();
    } else {
        sc = sc.with_config(SimConfig::default());
    }
    let topo = sc.topology();
    let mut sim = sc.build_with(&topo, traffic);
    sim.scan_all_routers(full_scan);
    sim.set_clock(clock);
    sim.warmup(200);
    sim.run(1_200);
    sim.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The wakeup kernel is bit-identical to the reference sweep for every
    /// deadlock design, across random fault patterns and injection rates —
    /// from near-idle to past the saturation point where the congested /
    /// blocked regime dominates — under both the stepped and the leaping
    /// clock (the reference full sweep never leaps, so the Leap cases also
    /// cross-check the leap itself against stepped-through cycles).
    #[test]
    fn wakeup_kernel_matches_reference_across_designs(
        design_idx in 0usize..4,
        faults in 0usize..12,
        fault_seed in any::<u64>(),
        rate_centi in 1u32..65,
        seed in any::<u64>(),
        clock_idx in 0usize..2,
    ) {
        let design = [
            Design::Unprotected, // minimal routes, no mechanism
            Design::SpanningTree, // up*/down* avoidance
            Design::EscapeVc,
            Design::StaticBubble,
        ][design_idx];
        let clock = [ClockMode::Step, ClockMode::Leap][clock_idx];
        let rate = rate_centi as f64 / 100.0;
        let case = AbCase { design, faults, fault_seed, rate, seed, single_vnet: true };
        // Under the leaping clock the audit runs every 5 cycles so real
        // leaps happen between audit boundaries (`audit_every = 1`
        // degenerates the leap to a step); the stepped clock keeps the
        // paranoid every-cycle cadence.
        let audit_every = match clock {
            ClockMode::Step => 1,
            ClockMode::Leap => 5,
        };
        let active = design_run(case, false, clock, audit_every);
        let reference = design_run(case, true, clock, audit_every);
        prop_assert_eq!(active, reference);
    }

    /// The two regimes where blocked routers dominate and the timed wakes
    /// (arrival at `ready_at`, credit at the drain deadline) and the
    /// per-vnet winner search carry the kernel: the spanning tree past its
    /// knee, and escape-VC with three vnets under load, where a vnet can be
    /// refused downstream while its escape VC is still free. The worklist
    /// side audits every cycle, so a missed wake is caught at the cycle it
    /// happens, not by a diverged total at the end.
    #[test]
    fn wakeup_kernel_matches_reference_past_the_knee(
        escape_vc in any::<bool>(),
        faults in 4usize..12,
        fault_seed in any::<u64>(),
        rate_centi in 8u32..40,
        seed in any::<u64>(),
        clock_idx in 0usize..2,
    ) {
        let case = AbCase {
            design: if escape_vc { Design::EscapeVc } else { Design::SpanningTree },
            faults,
            fault_seed,
            rate: rate_centi as f64 / 100.0,
            seed,
            single_vnet: !escape_vc,
        };
        let clock = [ClockMode::Step, ClockMode::Leap][clock_idx];
        let active = design_run(case, false, clock, 1);
        let reference = design_run(case, true, clock, 0);
        prop_assert_eq!(active, reference);
    }
}

#[test]
fn wakeup_kernel_matches_reference_through_deadlock_and_recovery() {
    // The Fig. 3 regime: organic deadlocks form under load and Static
    // Bubble recovers them, exercising every wake path the plugin owns —
    // restriction set/clear, bubble activate/deactivate/relocate, TTL
    // expiry. The whole arc must be bit-identical in both kernel modes, and
    // the run must actually contain a recovery for the test to mean
    // anything.
    let run = |full_scan: bool| {
        let mut sim = Scenario::new("ab-recovery", Design::StaticBubble)
            .with_mesh(8, 8)
            .with_config(SimConfig::single_vnet())
            .with_traffic(TrafficSpec::Uniform {
                rate: 0.35,
                single_vnet: true,
            })
            .with_seed(42)
            .with_audit_every(1)
            .build();
        sim.scan_all_routers(full_scan);
        sim.run(2_500);
        sim.stats().clone()
    };
    let active = run(false);
    let reference = run(true);
    assert!(
        active.deadlocks_recovered > 0,
        "scenario must deadlock and recover to be a meaningful A/B check"
    );
    assert_eq!(active, reference);
}

#[test]
fn touch_is_idempotent_and_public() {
    let topo = Topology::full(Mesh::new(4, 4));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::tiny(),
        Box::new(XyRouting::new(&topo)),
        NullPlugin,
        NoTraffic,
        0,
    );
    sim.run(2);
    assert_eq!(sim.core().active_count(), 0);
    sim.core_mut().touch(NodeId(3));
    sim.core_mut().touch(NodeId(3));
    assert_eq!(sim.core().active_count(), 1);
    assert!(sim.core().is_active(NodeId(3)));
    sim.run(1); // empty router: pruned again on the next pass
    assert_eq!(sim.core().active_count(), 0);
}
