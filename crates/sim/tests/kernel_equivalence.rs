//! The two ways the engine saves work must be *semantically invisible*: the
//! change-driven worklist scans only routers an event touched, and the
//! clock skips cycles in which nothing is runnable (DESIGN.md §6, §8).
//! Every case here runs three times and must end in bit-identical
//! [`Stats`]:
//!
//! * [`Drive::Oracle`] — `scan_all_routers(true)`: every router scanned,
//!   and so every cycle executed;
//! * [`Drive::Stepped`] — the worklist, `run(1)` at a time: a call's last
//!   cycle always executes, so every cycle executed;
//! * [`Drive::OneCall`] — the worklist, one call a phase: what runs in
//!   production.
//!
//! Open-loop cases sample geometric inter-arrival gaps, the sampler that
//! draws nothing on a quiet cycle and so leaves the clock cycles to skip
//! (under the Bernoulli coin the last two coincide while traffic flows).
//! The plain tests after the sweeps pin that work really is saved: by
//! count of routers on the worklist, and by exact arithmetic across gaps.

use proptest::prelude::*;
use rand::SeedableRng;
use sb_routing::MinimalRouting;
use sb_scenario::{Design, FaultSpec, Scenario, SimRunner};
use sb_sim::{NewPacket, NoTraffic, NullPlugin, ScriptedTraffic, SimConfig, Simulator, Stats};
use sb_sim::{TrafficSource, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, NodeId, Topology};

/// How one execution of a case is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    Oracle,
    Stepped,
    OneCall,
}

impl Drive {
    /// `total` cycles as the calls this drive makes.
    fn calls(self, total: u64) -> impl Iterator<Item = u64> {
        let chunk = if self == Drive::Stepped {
            1
        } else {
            total.max(1)
        };
        (0..total)
            .step_by(chunk as usize)
            .map(move |at| chunk.min(total - at))
    }

    /// Build `sc` over `traffic` for this drive.
    fn build<T: TrafficSource + 'static>(self, sc: &Scenario, traffic: T) -> Box<dyn SimRunner> {
        let mut sim = sc.build_with(&sc.topology(), traffic);
        sim.scan_all_routers(self == Drive::Oracle);
        sim
    }
}

/// Hold every drive's outcome against the oracle's.
fn assert_all_equal<R: PartialEq + std::fmt::Debug>(mut run: impl FnMut(Drive) -> R) -> R {
    let oracle = run(Drive::Oracle);
    for drive in [Drive::Stepped, Drive::OneCall] {
        assert_eq!(run(drive), oracle, "{drive:?} vs the oracle");
    }
    oracle
}

fn link_faults(count: usize, seed: u64) -> FaultSpec {
    if count == 0 {
        return FaultSpec::Pristine;
    }
    FaultSpec::Model {
        kind: FaultKind::Links,
        count,
        seed,
    }
}

/// One point of the sweep — `sc` under uniform random load, all of it in
/// vnet 0 of a one-vnet network or the 50/50 control (vnet 0) / data
/// (vnet 2) mix over Table II's three — run under `drive`, auditing every
/// `audit_every` cycles: conservation, VC legality, FSM legality and (on
/// the worklist) missed wakeups, any violation panicking the case with a
/// forensics report.
fn sweep_run(sc: &Scenario, rate: f64, drive: Drive, audit_every: u64) -> Stats {
    let sc = sc.clone().with_audit_every(audit_every);
    let traffic = UniformTraffic::new(rate).geometric();
    let mut sim = if sc.config.vnets == 1 {
        drive.build(&sc, traffic.single_vnet())
    } else {
        drive.build(&sc, traffic)
    };
    drive.calls(200).for_each(|n| sim.warmup(n));
    drive.calls(1_200).for_each(|n| sim.run(n));
    sim.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every deadlock design, across random fault patterns and loads from
    /// near-idle (where skipped cycles dominate) to past saturation (where
    /// the congested / blocked regime does and the runnable set never
    /// empties). The oracle and the stepped worklist audit every cycle, so
    /// a missed wake is caught at the cycle it happens; the one-call run
    /// audits every 5 cycles or never, so real leaps happen between the
    /// audit boundaries, which are clock events themselves.
    #[test]
    fn every_drive_agrees_across_designs(
        design_idx in 0usize..4,
        faults in 0usize..12,
        fault_seed in any::<u64>(),
        rate_centi in 1u32..65,
        seed in any::<u64>(),
        audit_idx in 0usize..2,
    ) {
        let design = [
            Design::Unprotected, // minimal routes, no mechanism
            Design::SpanningTree, // up*/down* avoidance
            Design::EscapeVc,
            Design::StaticBubble,
        ][design_idx];
        let rate = rate_centi as f64 / 100.0;
        let sc = Scenario::new("kernel-sweep", design)
            .with_faults(link_faults(faults, fault_seed))
            .with_seed(seed);
        let oracle = sweep_run(&sc, rate, Drive::Oracle, 1);
        prop_assert_eq!(&sweep_run(&sc, rate, Drive::Stepped, 1), &oracle);
        prop_assert_eq!(&sweep_run(&sc, rate, Drive::OneCall, [0, 5][audit_idx]), &oracle);
    }

    /// The two regimes where blocked routers dominate and the timed wakes
    /// (arrival at `ready_at`, credit at the drain deadline) and the
    /// per-vnet winner search carry the kernel: the spanning tree past its
    /// knee, and escape-VC with three vnets under load, where a vnet can be
    /// refused downstream while its escape VC is still free.
    #[test]
    fn every_drive_agrees_past_the_knee(
        escape_vc in any::<bool>(),
        faults in 4usize..12,
        fault_seed in any::<u64>(),
        rate_centi in 8u32..40,
        seed in any::<u64>(),
    ) {
        let (design, config) = if escape_vc {
            (Design::EscapeVc, SimConfig::default())
        } else {
            (Design::SpanningTree, SimConfig::single_vnet())
        };
        let rate = rate_centi as f64 / 100.0;
        let sc = Scenario::new("kernel-knee", design)
            .with_faults(link_faults(faults, fault_seed))
            .with_config(config)
            .with_seed(seed);
        let oracle = sweep_run(&sc, rate, Drive::Oracle, 0);
        prop_assert_eq!(&sweep_run(&sc, rate, Drive::Stepped, 1), &oracle);
        prop_assert_eq!(&sweep_run(&sc, rate, Drive::OneCall, 0), &oracle);
    }
}

/// The Fig. 3 regime: organic deadlocks form under load and Static Bubble
/// recovers them, exercising every wake path and every timer the plugin
/// owns — restriction set/clear, bubble activate/deactivate/relocate, probe
/// timers, TTL expiry. The whole arc must be bit-identical under every
/// drive and either arrival sampler, and must actually contain a recovery
/// for the test to mean anything. The one-call run is unaudited, so real
/// leaps happen through the frozen phase.
#[test]
fn every_drive_agrees_through_deadlock_and_recovery() {
    for geometric in [false, true] {
        let seen = assert_all_equal(|drive| {
            let sc = Scenario::new("kernel-recovery", Design::StaticBubble)
                .with_mesh(8, 8)
                .with_config(SimConfig::single_vnet())
                .with_seed(42)
                .with_audit_every(if drive == Drive::OneCall { 0 } else { 1 });
            let traffic = UniformTraffic::new(0.35).single_vnet();
            let mut sim = if geometric {
                drive.build(&sc, traffic.geometric())
            } else {
                drive.build(&sc, traffic)
            };
            drive.calls(2_500).for_each(|n| sim.run(n));
            sim.stats().clone()
        });
        assert!(
            seen.deadlocks_recovered > 0,
            "scenario must deadlock and recover to be a meaningful check"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A burst that deadlocks, then the tap closes and Static Bubble heals
    /// what formed while the network drains. With injection halted the
    /// runnable set empties between special-message hops, so the clock
    /// leaps *while messages are in flight* — the one regime where a
    /// delivery restarts a counter on a tick that follows a gap. (While
    /// traffic keeps arriving, as in the sweeps above, that almost never
    /// happens; a plugin that let the restarted counter absorb the gap
    /// diverged on four in ten of these runs.)
    #[test]
    fn every_drive_agrees_through_a_halted_drain(
        fault_seed in any::<u64>(),
        seed in any::<u64>(),
        tdd in 10u64..40,
    ) {
        let run = |drive: Drive| {
            let sc = Scenario::new("kernel-drain", Design::StaticBubble)
                .with_mesh(8, 8)
                .with_faults(link_faults(12, fault_seed))
                .with_config(SimConfig::single_vnet())
                .with_tdd(tdd)
                .with_seed(seed);
            let traffic = UniformTraffic::new(0.3).single_vnet().geometric();
            let mut sim = drive.build(&sc, traffic);
            drive.calls(600).for_each(|n| sim.run(n));
            sim.halt_injection();
            let drained = drive.calls(20_000).any(|n| sim.run_until_drained(n));
            (sim.stats().clone(), sim.time(), drained)
        };
        let oracle = run(Drive::Oracle);
        prop_assert_eq!(&run(Drive::Stepped), &oracle);
        prop_assert_eq!(&run(Drive::OneCall), &oracle);
    }
}

/// Forced-deadlock forensics: the oracle detection cycle and the annotated
/// wait-for cycle of the [`sb_sim::ForensicsReport`] are the same whether
/// the run is audited every cycle (every cycle an audit boundary, so every
/// cycle executed) or the wedged network leaps from one oracle call to the
/// next.
#[test]
fn forensics_agree_under_every_drive_and_at_audit_every_1() {
    let run = |drive: Drive, audit: u64| {
        let sc = Scenario::new("kernel-forensics", Design::Unprotected)
            .with_mesh(8, 8)
            .with_config(SimConfig::single_vnet())
            .with_seed(7)
            .with_audit_every(audit);
        let traffic = UniformTraffic::new(0.5).single_vnet().geometric();
        let mut sim = drive.build(&sc, traffic);
        let detected = sim.run_until_deadlock(50_000, 64);
        let report = sim.take_forensics().expect("detection leaves forensics");
        let wait_cycle = format!("{:?}", report.wait_cycle);
        (detected, report.time, wait_cycle, sim.stats().clone())
    };
    let oracle = run(Drive::Oracle, 1);
    assert!(oracle.0.is_some(), "unprotected at 0.5 must deadlock");
    assert_eq!(run(Drive::OneCall, 1), oracle, "audited every cycle");
    assert_eq!(run(Drive::OneCall, 0), oracle, "unaudited");
}

// ----------------------------------------------------------------------
// The worklist under the Bernoulli coin, and how sparse it stays
// ----------------------------------------------------------------------

/// A bare engine over `topo`: minimal routes, no mechanism.
fn bare<T: TrafficSource>(
    topo: &Topology,
    cfg: SimConfig,
    traffic: T,
    seed: u64,
) -> Simulator<NullPlugin, T> {
    let planner = Box::new(MinimalRouting::new(topo));
    Simulator::new(topo, cfg, planner, NullPlugin, traffic, seed)
}

/// The default sampler flips a coin per node per cycle, so every cycle
/// executes and only the scan differs: low load and past saturation on a
/// faulty 8×8, and a pristine 16×16.
#[test]
fn worklist_matches_full_sweep_under_the_bernoulli_coin() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let faulty = FaultModel::new(FaultKind::Links, 10).inject(Mesh::new(8, 8), &mut rng);
    let full = Topology::full(Mesh::new(16, 16));
    for (topo, rate, seed) in [(&faulty, 0.02, 11), (&faulty, 0.6, 13), (&full, 0.05, 17)] {
        let run = |full_scan: bool| {
            let mut sim = bare(topo, SimConfig::default(), UniformTraffic::new(rate), seed);
            sim.scan_all_routers(full_scan);
            sim.warmup(1_000);
            sim.run(4_000);
            sim.core().stats().clone()
        };
        assert_eq!(run(false), run(true), "rate {rate}");
    }
}

#[test]
fn idle_network_retires_every_router() {
    let topo = Topology::full(Mesh::new(16, 16));
    let mut sim = bare(&topo, SimConfig::default(), NoTraffic, 0);
    // Construction marks everything active; the first pass prunes it all.
    assert_eq!(sim.core().active_count(), 256);
    sim.run(2);
    assert_eq!(sim.core().active_count(), 0);
    sim.run(100);
    assert_eq!(sim.core().active_count(), 0);
    assert_eq!(sim.core().stats().cycles, 102);
}

/// One packet from corner to corner of an 8×8 at cycle `at`.
fn corner_to_corner(mesh: Mesh, at: u64) -> (u64, NewPacket) {
    let packet = NewPacket {
        src: mesh.node_at(0, 0),
        dst: mesh.node_at(7, 7),
        vnet: 0,
        len_flits: 5,
    };
    (at, packet)
}

#[test]
fn traffic_reactivates_and_drains_back_to_idle() {
    let topo = Topology::full(Mesh::new(8, 8));
    let mesh = topo.mesh();
    let script = ScriptedTraffic::new(vec![corner_to_corner(mesh, 5)]);
    let mut sim = bare(&topo, SimConfig::default(), script, 0);
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
    let mut sim = bare(&topo, SimConfig::default(), UniformTraffic::new(0.005), 3);
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
/// good, so the worklist is empty and the rest of the run must cost no
/// router scan at all — by count, on any machine.
#[test]
fn deadlocked_mesh_with_injection_cut_scans_no_router() {
    let topo = Topology::full(Mesh::new(16, 16));
    let traffic = UniformTraffic::new(0.6).single_vnet();
    let mut sim = bare(&topo, SimConfig::single_vnet(), traffic, 9);
    sim.run_until_deadlock(100_000, 64)
        .expect("a 16x16 unprotected mesh at 0.6 must deadlock");
    sim.halt_injection();
    sim.run(5_000);
    let (settled, cycles) = (sim.kernel_counters().scans, sim.core().stats().cycles);
    sim.run(10_000);
    assert!(sim.core().in_flight() > 0, "the deadlock holds its packets");
    assert_eq!(sim.core().stats().cycles, cycles + 10_000);
    assert_eq!(sim.kernel_counters().scans, settled);
}

#[test]
fn touch_is_idempotent_and_public() {
    let topo = Topology::full(Mesh::new(4, 4));
    let mut sim = bare(&topo, SimConfig::tiny(), NoTraffic, 0);
    sim.run(2);
    assert_eq!(sim.core().active_count(), 0);
    sim.core_mut().touch(NodeId(3));
    sim.core_mut().touch(NodeId(3));
    assert_eq!(sim.core().active_count(), 1);
    assert!(sim.core().is_active(NodeId(3)));
    sim.run(1); // empty router: pruned again on the next pass
    assert_eq!(sim.core().active_count(), 0);
}

// ----------------------------------------------------------------------
// The clock across gaps
// ----------------------------------------------------------------------

/// A wheel wake scheduled far beyond the 64-slot horizon is clamped, not
/// lost: the router wakes exactly at the horizon boundary (early wakes are
/// allowed by the wheel contract, late ones never) — and a leap stops at
/// that boundary instead of jumping over the entry.
#[test]
fn wheel_wake_beyond_horizon_fires_at_the_clamped_cycle() {
    for drive in [Drive::Stepped, Drive::OneCall] {
        let topo = Topology::full(Mesh::new(4, 4));
        let mut sim = bare(&topo, SimConfig::tiny(), NoTraffic, 0);
        sim.run(2); // retire every router
        assert_eq!(sim.core().active_count(), 0);
        let t0 = sim.time();
        let router = NodeId(5);
        // Requested 200 cycles out; the wheel holds at most 63.
        sim.core_mut().wake_at(router, t0 + 200);
        drive.calls(62).for_each(|n| sim.run(n));
        assert!(sim.audit_now().is_none());
        assert!(
            !sim.core().is_active(router),
            "{drive:?}: woke before the clamped horizon"
        );
        sim.run(1); // now sitting exactly on the t0 + 63 boundary
        assert!(sim.audit_now().is_none()); // drains the due wheel slot
        assert!(
            sim.core().is_active(router),
            "{drive:?}: wheel entry lost past the horizon"
        );
        assert_eq!(sim.time(), t0 + 63);
    }
}

/// Two scripted bursts separated by a 100k-cycle dead gap: the run costs
/// O(events), not O(cycles), and reports the exact statistics block of the
/// runs that execute every cycle.
#[test]
fn the_clock_is_exact_over_long_idle_gaps() {
    let topo = Topology::full(Mesh::new(8, 8));
    let mesh = topo.mesh();
    assert_all_equal(|drive| {
        let script = [3, 100_000, 100_001].map(|at| corner_to_corner(mesh, at));
        let script = ScriptedTraffic::new(script.to_vec());
        let mut sim = bare(&topo, SimConfig::single_vnet(), script, 0);
        sim.scan_all_routers(drive == Drive::Oracle);
        drive.calls(150_000).for_each(|n| sim.run(n));
        assert_eq!(sim.core().stats().cycles, 150_000);
        assert_eq!(sim.core().stats().delivered_packets, 3);
        sim.core().stats().clone()
    });
}
