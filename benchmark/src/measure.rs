//! The measurement loop: repeat rounds for `--seconds`, check every
//! round, report the fastest repetition of each unit of work.
//!
//! A *round* executes every instance of the workload once. Its inputs are
//! the same every round, so its `Stats` must be too: the first round is
//! untimed (page faults, allocator growth) and pins the digest the timed
//! rounds must reproduce. An execution that
//! fails a check is a failed op; its time and cycles are left out of the
//! round's sums.
//!
//! A round is timed in *units* of about a quarter of a millisecond of
//! identical work — each instance's warmup, each `run` slice of its
//! window, its drain (for the fleet, each run's `run_records` call, a
//! millisecond or two). The reported time is the sum over units of the fastest
//! repetition, not the median round. The reference box is a shared VM: from
//! one second to the next it runs cache-resident code 10 to 40 % slower
//! (a pointer chase over 64 KiB shows it, a chain of multiplies does not:
//! something shares the core's caches), in CPU time as much as wall
//! time, and for a minute at a time more. Ten same-seed runs spread 11.5 %
//! (quartile distance over median) on the median round, 2.8 % on the
//! fastest round and about 1 % on the sum of per-unit minima (README.md,
//! "Why minima"). Interference only ever adds time, so the minimum is the
//! estimate of what the code itself costs; the more repetitions of a unit a
//! run holds, and the longer the run they are spread over, the likelier one
//! of them met a quiet moment.

use std::path::Path;
use std::time::Instant;

use crate::exec::{execute, Outcome};
use crate::fleet::Grid;
use crate::metrics::Values;
use crate::summary::{stats_digest, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workloads::{instance, instance_count, set_guard, Instance, Workload};

/// Host seconds of each unit of work of one round, in a fixed order, and
/// the round's totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Round {
    /// Set-up of each execution (zero for one that failed).
    pub setup_units: Vec<f64>,
    /// Every timed unit of each execution (zeros for one that failed).
    pub wall_units: Vec<f64>,
    /// Simulated cycles the executions that passed covered.
    pub cycles: u64,
    /// Packets they delivered.
    pub packets: u64,
    /// Executions attempted.
    pub attempted: u64,
    /// One reason per failed execution.
    pub failures: Vec<String>,
    /// Digest of every `Stats` the round produced.
    pub digest: u64,
}

impl Round {
    /// A round in which all `attempted` executions failed for one reason.
    pub fn failed(attempted: u64, why: String) -> Round {
        Round {
            attempted,
            failures: vec![why; attempted as usize],
            ..Round::default()
        }
    }
}

/// What produces rounds for one workload.
pub enum Runner {
    /// One `SimRunner` at a time: the workload and its instances.
    Single(Workload, Vec<Instance>),
    /// The fleet workload.
    Fleet(Box<Grid>),
}

/// Fold one execution into its round. A failed execution — incorrect,
/// outside its regime, or part of a set that missed the set's guard
/// (`set_miss`) — keeps its place in the unit order but contributes no time.
fn absorb(round: &mut Round, inst: &Instance, out: &Outcome, set_miss: Option<&String>) {
    round.attempted += 1;
    round.digest = stats_digest(round.digest, &out.stats);
    let filled = round.wall_units.len() + inst.unit_count();
    match out
        .failure
        .as_ref()
        .or(out.out_of_regime.as_ref())
        .or(set_miss)
    {
        Some(why) => {
            round
                .failures
                .push(format!("{}: {why}", inst.scenario.name));
            round.setup_units.push(0.0);
        }
        None => {
            round.setup_units.push(out.setup_s);
            round.wall_units.extend(out.units());
            round.cycles += out.sim_cycles;
            round.packets += out.stats.delivered_packets;
        }
    }
    round.wall_units.resize(filled, 0.0);
}

fn empty_round() -> Round {
    Round {
        digest: FNV_OFFSET,
        ..Round::default()
    }
}

/// One round of a single-scenario workload: execute every instance, hold
/// the set against [`set_guard`], fold the executions into a round.
fn single_round(
    w: Workload,
    insts: &[Instance],
    tracer: &mut Tracer,
    outcomes: &mut Vec<Outcome>,
) -> Round {
    let outs: Vec<Outcome> = insts.iter().map(|inst| execute(w, inst, tracer)).collect();
    let healed = outs.iter().filter(|out| out.passed());
    let healed = healed.map(|out| out.stats.deadlocks_recovered).sum();
    let set_miss = set_guard(w, healed).err();
    let mut round = empty_round();
    for (inst, out) in insts.iter().zip(&outs) {
        absorb(&mut round, inst, out, set_miss.as_ref());
    }
    if tracer.enabled() {
        outcomes.extend(outs);
    }
    round
}

impl Runner {
    /// Set up `w` for `seed`. `out_dir` receives the fleet's cache
    /// directories.
    pub fn new(w: Workload, seed: u64, len_div: u64, out_dir: &Path) -> Result<Runner, String> {
        Ok(if w.is_fleet() {
            Runner::Fleet(Box::new(Grid::new(seed, len_div, out_dir)?))
        } else {
            let indices = 0..instance_count(w) as u64;
            let insts = indices.map(|index| instance(w, seed, len_div, index));
            Runner::Single(w, insts.collect())
        })
    }

    /// Execute one round. With a recording tracer, `outcomes` receives
    /// each single-scenario execution: the traced pass reads set-up layers
    /// and slices from them.
    pub fn round(&mut self, tracer: &mut Tracer, outcomes: &mut Vec<Outcome>) -> Round {
        match self {
            Runner::Fleet(grid) => grid.round(tracer),
            Runner::Single(w, insts) => single_round(*w, insts, tracer, outcomes),
        }
    }
}

/// The fastest repetition of every unit over the rounds folded in so far.
/// Kept as a running minimum, not as the rounds themselves: what a pass
/// holds in memory must not grow with `--seconds` (`peak_rss_mb`).
#[derive(Debug, Clone, Default)]
struct Fastest {
    setup: Vec<f64>,
    wall: Vec<f64>,
    rounds: usize,
}

impl Fastest {
    fn fold(&mut self, setup: &[f64], wall: &[f64]) {
        fn min_into(best: &mut Vec<f64>, units: &[f64], first: bool) {
            if first {
                best.extend_from_slice(units);
            }
            best.truncate(units.len());
            for (best, &unit) in best.iter_mut().zip(units) {
                *best = best.min(unit);
            }
        }
        min_into(&mut self.setup, setup, self.rounds == 0);
        min_into(&mut self.wall, wall, self.rounds == 0);
        self.rounds += 1;
    }

    /// Sum over units of the fastest repetition.
    fn sum(&self, setup: bool) -> f64 {
        if setup { &self.setup } else { &self.wall }.iter().sum()
    }
}

/// The timed rounds of one pass plus its failure accounting.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    fastest: Fastest,
    /// The same over the even and over the odd rounds only.
    halves: [Fastest; 2],
    /// Whole-round seconds, one per round (for the median/min/max print).
    pub round_wall_s: Vec<f64>,
    /// Whole-round set-up seconds, one per round.
    pub round_setup_s: Vec<f64>,
    /// Simulated cycles of one round.
    pub cycles: u64,
    /// Packets one round delivers.
    pub packets: u64,
    /// Executions attempted, untimed first round included.
    pub attempted: u64,
    /// Reasons of the executions that failed.
    pub failures: Vec<String>,
    /// Digest every round agreed on.
    pub digest: u64,
}

impl Samples {
    /// Fold in one round; `reference` is the digest of the untimed round.
    fn push(&mut self, round: Round, reference: u64) {
        self.attempted += round.attempted;
        let clean = round.failures.is_empty();
        self.failures.extend(round.failures);
        if clean && round.digest != reference {
            // Same spec, different Stats: the determinism contract broke,
            // and nothing this round timed can be compared to anything.
            let why = format!(
                "Stats differ between repetitions of one spec (digest {:016x} vs {reference:016x})",
                round.digest
            );
            self.failures
                .extend(std::iter::repeat_n(why, round.attempted as usize));
            return;
        }
        if round.packets > 0 {
            self.cycles = round.cycles;
            self.packets = round.packets;
            let (setup, wall) = (&round.setup_units, &round.wall_units);
            self.halves[self.fastest.rounds % 2].fold(setup, wall);
            self.fastest.fold(setup, wall);
            self.round_wall_s.push(wall.iter().sum());
            self.round_setup_s.push(setup.iter().sum());
        }
    }

    /// Set-up seconds: fastest repetition of each execution's set-up.
    pub fn setup_s(&self) -> f64 {
        self.fastest.sum(true)
    }

    /// Timed seconds: fastest repetition of each unit, summed.
    pub fn wall_s(&self) -> f64 {
        self.fastest.sum(false)
    }

    /// How far the estimate of the timed seconds (or, with `setup`, of the
    /// set-up seconds) moves between two interleaved halves of the rounds,
    /// as a share of the whole: the repetition spread `--compare` holds
    /// against the bound.
    pub fn split_half_spread(&self, setup: bool) -> f64 {
        let whole = self.fastest.sum(setup);
        if self.fastest.rounds < 2 || whole == 0.0 {
            return 0.0;
        }
        (self.halves[0].sum(setup) - self.halves[1].sum(setup)).abs() / whole
    }
}

/// Run the untimed first round, then rounds of `runner` until `seconds`
/// have passed and at least `min_rounds` are in. Each timed round runs
/// once per tracer in `tracers`, in turn, and feeds that tracer's
/// `Samples`: the untraced pass hands in one tracer, the traced pass an
/// off and an on one, so that both see the same stretch of host time.
/// The first round's executions are counted in the first `Samples`.
pub fn run_rounds<const N: usize>(
    runner: &mut Runner,
    mut tracers: [&mut Tracer; N],
    seconds: f64,
    min_rounds: usize,
    outcomes: &mut Vec<Outcome>,
) -> [Samples; N] {
    let mut samples: [Samples; N] = std::array::from_fn(|_| Samples::default());
    let warmup = runner.round(&mut Tracer::off(), &mut Vec::new());
    samples[0].attempted += warmup.attempted;
    samples[0].failures.extend(warmup.failures);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
        for (tracer, samples) in tracers.iter_mut().zip(&mut samples) {
            samples.digest = warmup.digest;
            let round = runner.round(tracer, outcomes);
            samples.push(round, warmup.digest);
        }
        rounds += 1;
    }
    samples
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(samples: &Samples) -> Values {
    let wall_s = samples.wall_s();
    let mut values = Values::default();
    values.set("setup_s", samples.setup_s());
    values.set("wall_s", wall_s);
    values.set("cycles_per_s", ratio(samples.cycles as f64, wall_s));
    values.set("us_per_packet", ratio(wall_s * 1e6, samples.packets as f64));
    values.set("peak_rss_mb", peak_rss_mb());
    values
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall_units: &[f64], digest: u64) -> Round {
        Round {
            setup_units: vec![0.5, 0.25],
            wall_units: wall_units.to_vec(),
            cycles: 1_000,
            packets: 10,
            attempted: 2,
            failures: Vec::new(),
            digest,
        }
    }

    #[test]
    fn the_fastest_repetition_of_each_unit_is_summed() {
        let mut s = Samples::default();
        s.push(round(&[2.0, 1.0, 4.0], 7), 7);
        s.push(round(&[1.0, 3.0, 4.0], 7), 7);
        s.push(round(&[5.0, 5.0, 3.0], 7), 7);
        assert_eq!(s.wall_s(), 1.0 + 1.0 + 3.0);
        assert_eq!(s.setup_s(), 0.75);
        assert_eq!(s.round_wall_s, [7.0, 8.0, 13.0]);
        assert_eq!((s.attempted, s.failures.len()), (6, 0));
        let values = end_to_end(&s);
        assert_eq!(values.get("wall_s"), Some(5.0));
        assert_eq!(values.get("cycles_per_s"), Some(200.0));
        assert_eq!(values.get("us_per_packet"), Some(500_000.0));
        assert!(values.get("peak_rss_mb").is_some_and(|mb| mb > 1.0));
        // Halves: rounds 0 and 2 give 2+1+3, round 1 gives 1+3+4.
        assert!((s.split_half_spread(false) - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.split_half_spread(true), 0.0, "every round set up alike");
    }

    #[test]
    fn a_failed_execution_keeps_its_place_and_adds_no_time() {
        let inst = instance(Workload::RecoveryBursts, 1, 10, 0);
        let units = inst.unit_count();
        let passed = Outcome {
            setup_s: 0.5,
            phase_s: [1.0, 0.0, 2.0, 0.0],
            drained: Some(true),
            sim_cycles: 2_100,
            ..Outcome::default()
        };
        let failed = Outcome {
            failure: Some("audit".to_string()),
            ..passed.clone()
        };
        let mut round = empty_round();
        absorb(&mut round, &inst, &failed, None);
        absorb(&mut round, &inst, &passed, None);
        assert_eq!(round.setup_units, [0.0, 0.5]);
        assert_eq!(round.wall_units.len(), 2 * units);
        assert!(round.wall_units[..units].iter().all(|&u| u == 0.0));
        // The fabricated outcome has no window slices: warmup, then drain.
        assert_eq!(round.wall_units[units..units + 2], [1.0, 2.0]);
        assert_eq!((round.attempted, round.failures.len()), (2, 1));
        assert_eq!(round.cycles, 2_100);
        // A set that missed its guard fails the executions that passed too.
        absorb(&mut round, &inst, &passed, Some(&"no heal".to_string()));
        assert_eq!((round.attempted, round.failures.len()), (3, 2));
        assert_eq!(round.cycles, 2_100);
    }

    #[test]
    fn instances_are_the_fixed_indices_and_a_wedge_is_a_failed_op() {
        let w = Workload::RecoveryBursts;
        let mut runner = Runner::new(w, 1, 25, &std::env::temp_dir()).expect("no set-up to fail");
        let Runner::Single(_, insts) = &mut runner else {
            panic!("recovery_bursts is a single-scenario workload");
        };
        let names: Vec<&str> = insts.iter().map(|i| i.scenario.name.as_str()).collect();
        let expected: Vec<String> = (0..8).map(|i| format!("recovery_bursts-{i}")).collect();
        assert_eq!(names, expected, "no search: indices 0..8");
        // No budget to drain in: the first instance ends "wedged". It is
        // counted and not timed; nothing is put in its place.
        insts[0].drain_budget = Some(0);
        let round = runner.round(&mut Tracer::off(), &mut Vec::new());
        assert_eq!(round.attempted, 8);
        assert_eq!(round.failures.len(), 1, "{:?}", round.failures);
        assert!(round.failures[0].starts_with("recovery_bursts-0: did not drain"));
        assert_eq!(round.setup_units[0], 0.0);
        assert!(round.setup_units[1..].iter().all(|&s| s > 0.0));
        // The same inputs give the same round.
        let again = runner.round(&mut Tracer::off(), &mut Vec::new());
        assert_eq!(again.digest, round.digest);
        assert_eq!(again.wall_units.len(), round.wall_units.len());
    }

    #[test]
    fn a_digest_mismatch_fails_the_round_and_is_not_timed() {
        let mut s = Samples::default();
        s.push(round(&[2.0], 8), 7);
        assert_eq!(s.wall_s(), 0.0);
        assert_eq!((s.attempted, s.failures.len()), (2, 2));
        assert_eq!(end_to_end(&s).get("cycles_per_s"), Some(0.0));
    }

    #[test]
    fn failed_executions_are_counted_not_timed() {
        let mut s = Samples::default();
        s.push(Round::failed(3, "wedged".to_string()), 7);
        assert!(s.round_wall_s.is_empty());
        assert_eq!((s.attempted, s.failures.len()), (3, 3));
    }
}
