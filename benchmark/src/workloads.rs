//! The workloads: seed → generated `Scenario`s / `SweepSpec`, and the
//! regime guard each execution must pass before its time is counted.
//!
//! The simulator only ever sees the generated specs. Rates and burst shapes
//! are the issue's; every length is a fraction of the issue's, so that one
//! round (all instances of a workload, once) takes under half a second on
//! the 2-core reference box (`recovery_bursts`, which needs its 112 bursts
//! to be sure of a deadlock, 0.9 s) and a run of `--seconds` fits an
//! untimed round and some 18 to 45 timed ones. `measure.rs` reports each
//! unit of work at its fastest repetition, and the box is shared: what a
//! neighbour takes comes and goes by the second, so a unit wants many
//! repetitions spread over a long run more than it wants long rounds.
//!
//! Instances are the fixed indices `0..instance_count`: there is no search
//! for inputs that happen to be in regime. An execution that misses its
//! guard, or ends wedged, is a failed op.

use sb_fleet::SweepSpec;
use sb_scenario::{ClockMode, Design, FaultSpec, Scenario, TrafficSpec};
use sb_sim::{SimConfig, Stats};
use sb_topology::FaultKind;
use sb_workloads::RodiniaApp;

/// Seed used when `--seed` is not given; verified in-regime on every
/// workload (see README.md).
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sub-saturation latency regime on a large faulty mesh.
    LowLoad,
    /// Past the saturation knee on a deadlock-free design.
    Saturated,
    /// Rare deadlocks, detected and healed, then drained.
    RecoveryBursts,
    /// Almost every cycle dead; the leap clock does the work.
    SparseLeap,
    /// Closed-loop request/reply application traffic, three vnets.
    AppClosedLoop,
    /// A topology × fault × design × rate grid, cold, through the fleet.
    FleetGrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::LowLoad,
        Workload::Saturated,
        Workload::RecoveryBursts,
        Workload::SparseLeap,
        Workload::AppClosedLoop,
        Workload::FleetGrid,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LowLoad => "low_load",
            Workload::Saturated => "saturated",
            Workload::RecoveryBursts => "recovery_bursts",
            Workload::SparseLeap => "sparse_leap",
            Workload::AppClosedLoop => "app_closed_loop",
            Workload::FleetGrid => "fleet_grid",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does this workload run through the fleet rather than one
    /// `SimRunner` at a time?
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetGrid
    }

    /// Tag folded into derived seeds so workloads draw disjoint streams.
    fn tag(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("listed in ALL") as u64
            + 1
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Traffic of one instance: what the spec describes, or a source handed
/// to `Scenario::build_with`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// The scenario's own `TrafficSpec`.
    Spec,
    /// [`crate::onoff::OnOff`] bursts (rates in flits/node/cycle).
    OnOff {
        /// Rate inside a burst.
        burst: f64,
        /// Rate between bursts.
        floor: f64,
        /// Cycles from one burst start to the next.
        period: u64,
        /// Burst length in cycles.
        on_cycles: u64,
    },
    /// Closed-loop `AppTraffic` for one Rodinia profile.
    App(RodiniaApp),
}

/// One scenario execution ("op") of a single-scenario workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The generated spec.
    pub scenario: Scenario,
    /// Where its traffic comes from.
    pub source: Source,
    /// After the window: halt injection and drain for at most this long.
    pub drain_budget: Option<u64>,
    /// The window is run in slices of this many cycles, each a unit of
    /// about a quarter of a host millisecond that `measure.rs` takes the
    /// fastest repetition of.
    pub slice_cycles: u64,
}

impl Instance {
    /// Timed units of one execution: warmup, window slices, drain.
    pub fn unit_count(&self) -> usize {
        1 + self.scenario.cycles.div_ceil(self.slice_cycles) as usize
            + usize::from(self.drain_budget.is_some())
    }
}

/// Fault seed of the one 16x16 spanning tree `saturated` runs. Where the
/// knee of a tree lies depends on where its root and its faults fall: of
/// the first 16 fault seeds only four accept 0.2 to 0.6 of UR 0.08 (the
/// others accept up to 0.99, one 0.16), so a seed-derived tree is out of
/// regime more often than in it. This one accepted 0.36 to 0.38 on every
/// simulation seed measured.
const SATURATED_FAULT_SEED: u64 = 2;

/// Fault seeds of the eight 8x8 topologies `recovery_bursts` runs. Whether
/// a burst forms a deadlock depends on the fault pattern (of 60 patterns a
/// quarter form next to none and nine form cascades that end wedged), so
/// these are pinned: between them they heal about 15 deadlocks a round, and
/// each drained on 250 simulation seeds out of 250 (at 50k cycles).
const RECOVERY_FAULT_SEEDS: [u64; 8] = [2, 9, 19, 29, 33, 34, 39, 45];

/// The shape shared by every instance of one single-scenario workload.
struct Shape {
    instances: usize,
    /// Fault seeds fixed as data, one per instance; empty when `--seed`
    /// derives them.
    pinned_faults: &'static [u64],
    /// Mesh width and height.
    side: u16,
    link_faults: usize,
    design: Design,
    traffic: TrafficSpec,
    source: Source,
    config: SimConfig,
    clock: ClockMode,
    warmup: u64,
    cycles: u64,
    drain_budget: Option<u64>,
    slice_cycles: u64,
}

fn shape(w: Workload) -> Shape {
    let ur = |rate: f64| TrafficSpec::Uniform {
        rate,
        single_vnet: true,
    };
    // What most workloads share: one instance, Static Bubble on a faulty
    // 8x8 whose faults `--seed` derives, one vnet, stepped clock, no drain.
    let base = Shape {
        instances: 1,
        pinned_faults: &[],
        side: 8,
        link_faults: 12,
        design: Design::StaticBubble,
        traffic: ur(0.02),
        source: Source::Spec,
        config: SimConfig::single_vnet(),
        clock: ClockMode::Step,
        warmup: 1_000,
        cycles: 0,
        drain_budget: None,
        slice_cycles: 0,
    };
    match w {
        Workload::LowLoad => Shape {
            side: 16,
            link_faults: 20,
            warmup: 2_000,
            cycles: 28_000,
            slice_cycles: 16,
            ..base
        },
        // Up*/down* routing is deadlock-free, so the network stays live
        // however far past the knee it is pushed; source queues grow for
        // the whole run.
        Workload::Saturated => Shape {
            pinned_faults: &[SATURATED_FAULT_SEED],
            side: 16,
            link_faults: 20,
            design: Design::SpanningTree,
            traffic: ur(0.08),
            warmup: 1_000,
            cycles: 4_000,
            slice_cycles: 2,
            ..base
        },
        // 14 bursts per instance. The issue's bursts (300 of every 5000
        // cycles) end wedged on 1 to 9 % of the simulation seeds on every
        // topology that forms deadlocks at all, and 200 of every 2000 on
        // up to 6 %; 150-cycle bursts wedged once in 2000 executions.
        Workload::RecoveryBursts => Shape {
            instances: RECOVERY_FAULT_SEEDS.len(),
            pinned_faults: &RECOVERY_FAULT_SEEDS,
            source: Source::OnOff {
                burst: 0.3,
                floor: 0.02,
                period: 2_000,
                on_cycles: 150,
            },
            warmup: 0,
            cycles: 28_000,
            drain_budget: Some(200_000),
            slice_cycles: 64,
            ..base
        },
        Workload::SparseLeap => Shape {
            traffic: ur(0.0005),
            clock: ClockMode::Leap,
            cycles: 1_500_000,
            drain_budget: Some(100_000),
            slice_cycles: 1_024,
            ..base
        },
        Workload::AppClosedLoop => Shape {
            link_faults: 10,
            design: Design::EscapeVc,
            traffic: TrafficSpec::Idle,
            source: Source::App(RodiniaApp::Bfs),
            config: SimConfig::default(),
            cycles: 30_000,
            slice_cycles: 16,
            ..base
        },
        Workload::FleetGrid => {
            panic!("{} runs through grid(), not instances()", w.name())
        }
    }
}

/// How many instances one round of single-scenario workload `w` runs.
pub fn instance_count(w: Workload) -> usize {
    shape(w).instances
}

/// Instance `index` (below [`instance_count`]) of single-scenario workload
/// `w` for `seed`, which derives the simulation seed and, unless the
/// workload pins its topologies, the fault seed. `len_div` divides every
/// cycle count (1 = benchmark length).
pub fn instance(w: Workload, seed: u64, len_div: u64, index: u64) -> Instance {
    let shape = shape(w);
    let fault_seed = match shape.pinned_faults.get(index as usize) {
        Some(&pinned) => pinned,
        None => mix(seed, w.tag(), 2 * index),
    };
    Instance {
        scenario: Scenario::new(format!("{}-{index}", w.name()), shape.design)
            .with_mesh(shape.side, shape.side)
            .with_faults(FaultSpec::Model {
                kind: FaultKind::Links,
                count: shape.link_faults,
                seed: fault_seed,
            })
            .with_traffic(shape.traffic)
            .with_config(shape.config)
            .with_clock(shape.clock)
            .with_warmup(shape.warmup / len_div)
            .with_cycles((shape.cycles / len_div).max(1))
            .with_seed(mix(seed, w.tag(), 2 * index + 1)),
        source: shape.source,
        drain_budget: shape.drain_budget,
        slice_cycles: shape.slice_cycles,
    }
}

/// The fig12-shaped grid the fleet workload runs: 8×8; link faults
/// {0, 5, 10} and router faults {5}; two topology seeds; three designs;
/// two rates; two simulation seeds — 84 runs.
pub fn grid(seed: u64, len_div: u64) -> SweepSpec {
    let tag = Workload::FleetGrid.tag();
    let mut spec = SweepSpec::new(format!("bench-grid-{seed}"));
    spec.meshes = vec!["8x8".into()];
    spec.link_faults = vec![0, 5, 10];
    spec.router_faults = vec![5];
    spec.topo_seeds = vec![mix(seed, tag, 0), mix(seed, tag, 1)];
    spec.designs = Design::ALL.iter().map(|d| d.label().into()).collect();
    spec.rates = vec![0.02, 0.04];
    spec.seeds = vec![mix(seed, tag, 2), mix(seed, tag, 3)];
    spec.warmup = 100 / len_div;
    spec.cycles = (300 / len_div).max(1);
    spec
}

/// What one execution produced, as far as the guards need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed<'a> {
    /// Measurement-window statistics at the end of the run.
    pub stats: &'a Stats,
    /// Packets still waiting in source queues at the end of the run.
    pub queued: u64,
    /// Outcome of the drain, when the instance has one.
    pub drained: Option<bool>,
    /// Completed request/reply transactions (`AppTraffic` only).
    pub requests: Option<u64>,
}

/// Is one execution of `w` in the regime the workload exists to time?
/// `Err` carries the reason; the execution is then a failed op, counted
/// and left out of the timing.
pub fn regime_guard(w: Workload, seen: &Observed<'_>) -> Result<(), String> {
    let stats = seen.stats;
    // Of what had a route: packets to a destination the faults cut off are
    // dropped at the source NI by design, not refused.
    let routable_flits = stats.offered_flits - stats.dropped_flits;
    let acceptance = stats.delivered_flits as f64 / routable_flits.max(1) as f64;
    // Below the knee source queues stay empty however short the window;
    // what was offered late is in flight, not refused.
    let routable = stats.offered_packets - stats.dropped_packets;
    let backlog = seen.queued as f64 / routable.max(1) as f64;
    let require = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    require(
        stats.delivered_packets > 0,
        "delivered no packets".to_string(),
    )?;
    require(
        seen.drained != Some(false),
        format!(
            "did not drain ({} healed, {} probes dropped)",
            stats.deadlocks_recovered, stats.probes_dropped
        ),
    )?;
    match w {
        Workload::LowLoad | Workload::SparseLeap => require(
            backlog <= 0.01,
            format!("{backlog:.3} of the offered packets still queued: not below saturation"),
        ),
        Workload::Saturated => require(
            (0.2..=0.6).contains(&acceptance),
            format!("acceptance {acceptance:.3} outside 0.2..=0.6: not a live saturated network"),
        ),
        // Draining (above) is all one instance owes; see `set_guard`.
        Workload::RecoveryBursts => Ok(()),
        Workload::AppClosedLoop => require(
            seen.requests.is_some_and(|r| r > 0),
            "no request/reply transaction completed".to_string(),
        ),
        Workload::FleetGrid => Ok(()),
    }
}

/// The guard on a round as a whole: `recovery_bursts` exists to time the
/// recovery path, so its instances must between them have healed a
/// deadlock (`healed` sums `deadlocks_recovered` over those that passed
/// their own guard). A miss fails every execution of the round.
pub fn set_guard(w: Workload, healed: u64) -> Result<(), String> {
    if w == Workload::RecoveryBursts && healed == 0 {
        return Err("no deadlock formed and was recovered in the whole set: plain low load".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()), "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seed_rederives_every_instance_seed() {
        for w in Workload::ALL.into_iter().filter(|w| !w.is_fleet()) {
            let pinned = matches!(w, Workload::Saturated | Workload::RecoveryBursts);
            for index in 0..instance_count(w) as u64 {
                let (a, b) = (instance(w, 1, 1, index), instance(w, 2, 1, index));
                assert_eq!(a, instance(w, 1, 1, index), "same seed, same inputs");
                assert_ne!(a.scenario.seed, b.scenario.seed);
                // Pinned topologies stay; every other fault seed moves.
                assert_eq!(
                    a.scenario.faults == b.scenario.faults,
                    pinned,
                    "{}",
                    w.name()
                );
                if index > 0 {
                    let before = instance(w, 1, 1, index - 1).scenario;
                    assert_ne!(a.scenario.faults, before.faults);
                    assert_ne!(a.scenario.seed, before.seed);
                }
            }
        }
        let (a, b) = (grid(1, 1), grid(2, 1));
        assert_ne!(a.topo_seeds, b.topo_seeds);
        assert_ne!(a.seeds, b.seeds);
    }

    #[test]
    fn grid_expands_to_84_runs() {
        assert_eq!(grid(7, 1).expand().expect("valid grid").len(), 84);
    }

    #[test]
    fn unit_count_covers_warmup_slices_and_drain() {
        let mut inst = instance(Workload::RecoveryBursts, 1, 1, 0);
        assert_eq!(inst.unit_count(), 1 + 28_000usize.div_ceil(64) + 1);
        inst.drain_budget = None;
        inst.scenario.cycles = inst.slice_cycles;
        assert_eq!(inst.unit_count(), 2);
    }

    #[test]
    fn guards_reject_out_of_regime_runs() {
        let mut stats = Stats::default();
        let seen = |w, stats: &Stats, drained| {
            let seen = Observed {
                stats,
                queued: stats.offered_packets / 50,
                drained,
                requests: None,
            };
            regime_guard(w, &seen)
        };
        // The wedged mesh BENCH_kernel.json times: nothing delivered.
        stats.offered_flits = 1_000;
        assert!(seen(Workload::Saturated, &stats, None).is_err());
        stats.delivered_packets = 100;
        stats.delivered_flits = 990;
        assert!(
            seen(Workload::Saturated, &stats, None).is_err(),
            "not saturated"
        );
        stats.delivered_flits = 300;
        assert!(seen(Workload::Saturated, &stats, None).is_ok());
        // Flits with no route are dropped at the NI, not refused.
        stats.dropped_flits = 598;
        assert!(seen(Workload::Saturated, &stats, None).is_err());
        // A fiftieth of the offered packets queued at the end is a backlog.
        stats.offered_packets = 40;
        assert!(seen(Workload::LowLoad, &stats, None).is_ok(), "0 of 40");
        stats.offered_packets = 5_000;
        assert!(
            seen(Workload::LowLoad, &stats, None).is_err(),
            "100 of 5000"
        );
        // One instance owes a drain; the set owes a healed deadlock.
        assert!(seen(Workload::RecoveryBursts, &stats, Some(true)).is_ok());
        assert!(
            seen(Workload::RecoveryBursts, &stats, Some(false)).is_err(),
            "wedged"
        );
        assert!(set_guard(Workload::RecoveryBursts, 0).is_err(), "no heal");
        assert!(set_guard(Workload::RecoveryBursts, 2).is_ok());
        assert!(set_guard(Workload::LowLoad, 0).is_ok());
        assert!(seen(Workload::AppClosedLoop, &stats, None).is_err());
    }
}
