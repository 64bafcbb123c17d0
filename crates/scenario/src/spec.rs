//! The serializable experiment description and its materializer.
//!
//! A [`Scenario`] is plain data: mesh dimensions, a fault model and seed, a
//! deadlock [`Design`], a traffic pattern and rate, network configuration
//! and measurement window. It round-trips through serde (see [`crate::json`]
//! and [`crate::toml`]) so one text file fully describes an experiment, and
//! [`Scenario::build`] turns it into a live simulation behind the
//! [`SimRunner`] interface.

use rand::SeedableRng;
use sb_sim::{
    BitComplement, EscapeVcPlugin, NoTraffic, NullPlugin, Pattern, SimConfig, Simulator, Synthetic,
    TrafficSource, Uniform,
};
use sb_topology::{FaultKind, FaultModel, Mesh, NodeId, Topology};
use serde::{Deserialize, Serialize};
use static_bubble::{placement, SbOptions, StaticBubblePlugin};

use crate::design::{Design, RunOutcome, T_DD};
use crate::runner::{Runner, SimRunner};
use crate::value::SpecError;

/// How the irregular topology is derived from the full mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Pristine mesh: every router and link alive.
    Pristine,
    /// Seeded [`FaultModel`] injection of `count` faults of one kind.
    Model {
        /// Fault class (links or routers).
        kind: FaultKind,
        /// Number of faults to inject.
        count: usize,
        /// RNG seed for the injection.
        seed: u64,
    },
    /// `sbsim`-style mix: link faults first, then router kills sampled from
    /// the same RNG stream.
    Mixed {
        /// Links to fault via [`FaultModel`].
        links: usize,
        /// Routers to kill.
        routers: usize,
        /// RNG seed shared by both phases.
        seed: u64,
    },
}

/// Where the static bubbles sit (only meaningful for
/// [`Design::StaticBubble`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BubbleSpec {
    /// The paper's placement, restricted to alive routers.
    Auto,
    /// An explicit router list (placement studies, adversarial tests).
    Explicit(Vec<NodeId>),
}

/// The synthetic traffic a scenario offers the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// No injected traffic (drain studies).
    Idle,
    /// Uniform-random destinations at `rate` flits/node/cycle.
    Uniform {
        /// Offered load in flits/node/cycle.
        rate: f64,
        /// Confine all packets to vnet 0 (the synthetic-sweep default).
        single_vnet: bool,
    },
    /// Bit-complement destinations at `rate` flits/node/cycle.
    BitComplement {
        /// Offered load in flits/node/cycle.
        rate: f64,
        /// Confine all packets to vnet 0.
        single_vnet: bool,
    },
}

/// The arrival sampler of a spec's synthetic traffic (see
/// [`Scenario::clock`]). The two offer the same mean load from different
/// RNG streams, so runs under them compare statistically, not packet for
/// packet.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockMode {
    /// One Bernoulli coin per node per cycle on the shared engine RNG — the
    /// statistical reference. Every cycle draws, so every cycle executes
    /// while traffic can still arrive.
    #[default]
    Step,
    /// Geometric inter-arrival gaps on per-node streams
    /// ([`Synthetic::geometric`]): a quiet cycle draws nothing, so the
    /// engine skips it. Vastly faster at low load.
    Leap,
}

/// One fully-described experiment: everything needed to reproduce a run.
///
/// ```
/// use sb_scenario::{Design, Scenario};
///
/// let out = Scenario::new("smoke", Design::StaticBubble)
///     .with_mesh(4, 4)
///     .with_rate(0.05)
///     .with_warmup(200)
///     .with_cycles(800)
///     .run();
/// assert!(out.stats.delivered_packets > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label (figure name, sweep point, ...).
    pub name: String,
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// How the irregular topology is derived.
    pub faults: FaultSpec,
    /// Deadlock-handling design under test.
    pub design: Design,
    /// Offered traffic.
    pub traffic: TrafficSpec,
    /// Network configuration (vnets, VCs, packet length).
    pub config: SimConfig,
    /// Bubble placement (Static Bubble only).
    pub bubbles: BubbleSpec,
    /// Deadlock-detection threshold in cycles (Table II).
    pub tdd: u64,
    /// Probe-forking ablation switch (paper's design: on).
    pub sb_forking: bool,
    /// Check-probe fast path ablation switch (footnote 7: on).
    pub sb_check_probe: bool,
    /// Returned-probe forwarding ablation switch (on: a returned probe
    /// whose walk did not close re-circulates as transit; off silently
    /// drops it at the sender — see `DESIGN.md` §12).
    pub sb_return_forwarding: bool,
    /// Probe-retry desynchronization ablation switch (on: backed-off
    /// retry periods carry a node-unique term; off reproduces the
    /// phase-locked probe collisions that wedge the pinned pipeline
    /// seeds — see `crates/fleet/tests/wedge_seed.rs`).
    pub sb_probe_desync: bool,
    /// Warmup cycles before the measurement window.
    pub warmup: u64,
    /// Measurement-window cycles.
    pub cycles: u64,
    /// Simulation seed (injection process and VC tie-breaks).
    pub seed: u64,
    /// Run the invariant auditor every this-many cycles (0 = off, the
    /// production default). See `sb_sim::audit`.
    pub audit_every: u64,
    /// Arrival sampler of the synthetic traffic: [`ClockMode::Step`] flips
    /// a Bernoulli coin per node per cycle (the default),
    /// [`ClockMode::Leap`] draws geometric gaps, which lets the engine skip
    /// the cycles between arrivals. Nothing else reads it.
    pub clock: ClockMode,
    /// Parsed, serialised and ignored (cache keys canonicalise it away);
    /// it goes when `benchmark/` stops assigning it (ROADMAP item 4).
    pub threads: usize,
}

impl Scenario {
    /// A baseline scenario: 8×8 pristine mesh, uniform traffic at 0.1
    /// flits/node/cycle in a single vnet, the paper's detection threshold,
    /// 1 000 warmup + 10 000 measured cycles.
    pub fn new(name: impl Into<String>, design: Design) -> Self {
        Scenario {
            name: name.into(),
            width: 8,
            height: 8,
            faults: FaultSpec::Pristine,
            design,
            traffic: TrafficSpec::Uniform {
                rate: 0.1,
                single_vnet: true,
            },
            config: SimConfig::single_vnet(),
            bubbles: BubbleSpec::Auto,
            tdd: T_DD,
            sb_forking: true,
            sb_check_probe: true,
            sb_return_forwarding: true,
            sb_probe_desync: true,
            warmup: 1_000,
            cycles: 10_000,
            seed: 1,
            audit_every: 0,
            clock: ClockMode::Step,
            threads: 1,
        }
    }

    /// Set the mesh dimensions.
    pub fn with_mesh(mut self, width: u16, height: u16) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// Set the fault spec.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Swap the deadlock-handling design (sweeps comparing designs on one
    /// otherwise-fixed spec).
    pub fn with_design(mut self, design: Design) -> Self {
        self.design = design;
        self
    }

    /// Set the traffic spec.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Keep the traffic pattern but change its rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        match &mut self.traffic {
            TrafficSpec::Idle => {
                self.traffic = TrafficSpec::Uniform {
                    rate,
                    single_vnet: true,
                }
            }
            TrafficSpec::Uniform { rate: r, .. } | TrafficSpec::BitComplement { rate: r, .. } => {
                *r = rate
            }
        }
        self
    }

    /// Set the network configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the bubble placement.
    pub fn with_bubbles(mut self, bubbles: BubbleSpec) -> Self {
        self.bubbles = bubbles;
        self
    }

    /// Set the detection threshold.
    pub fn with_tdd(mut self, tdd: u64) -> Self {
        self.tdd = tdd;
        self
    }

    /// Set the Static Bubble ablation options.
    pub fn with_sb_options(mut self, opts: SbOptions) -> Self {
        self.sb_forking = opts.forking;
        self.sb_check_probe = opts.check_probe;
        self.sb_return_forwarding = opts.return_forwarding;
        self.sb_probe_desync = opts.probe_desync;
        self
    }

    /// Set the warmup length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Set the measurement window.
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Set the simulation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable the invariant auditor every `every` cycles (0 = off).
    pub fn with_audit_every(mut self, every: u64) -> Self {
        self.audit_every = every;
        self
    }

    /// Set the arrival sampler (see [`Scenario::clock`]).
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Check that the spec describes something buildable, so that a bad
    /// input file or flag is an error naming the field and its limit
    /// rather than an `assert!` deep inside [`Scenario::build`]: mesh
    /// dimensions, a buildable [`SimConfig`], fault counts against what the
    /// mesh has, an injectable traffic rate, explicit bubble ids inside the
    /// mesh. The library
    /// `assert!`s stay as the backstop for direct API callers.
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |msg: String| Err(SpecError(msg));
        let (w, h) = (self.width as usize, self.height as usize);
        if w == 0 || h == 0 || w * h > u16::MAX as usize + 1 {
            return fail(format!(
                "width/height: a {w}x{h} mesh; each must be >= 1 and the mesh at most 65536 \
                 routers (u16 node ids)"
            ));
        }
        if let Err(why) = self.config.check() {
            return fail(format!("config.{why}"));
        }
        let mesh = self.mesh();
        let (links, routers) = match self.faults {
            FaultSpec::Pristine => (0, 0),
            FaultSpec::Model { kind, count, .. } => match kind {
                FaultKind::Links => (count, 0),
                FaultKind::Routers => (0, count),
            },
            FaultSpec::Mixed { links, routers, .. } => (links, routers),
        };
        for (what, asked, have) in [
            ("link", links, mesh.link_count()),
            ("router", routers, mesh.node_count()),
        ] {
            if asked > have {
                return fail(format!(
                    "faults: {asked} {what} faults requested, the {w}x{h} mesh has {have} {what}s"
                ));
            }
        }
        if let TrafficSpec::Uniform { rate, .. } | TrafficSpec::BitComplement { rate, .. } =
            self.traffic
        {
            if let Err(why) = sb_sim::check_injectable(rate) {
                return fail(format!("traffic rate: {why}"));
            }
        }
        if let BubbleSpec::Explicit(list) = &self.bubbles {
            if let Some(bad) = list.iter().find(|b| b.index() >= mesh.node_count()) {
                return fail(format!(
                    "bubbles: router {} is outside the {w}x{h} mesh (ids 0..{})",
                    bad.index(),
                    mesh.node_count()
                ));
            }
        }
        Ok(())
    }

    /// The mesh substrate.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.width, self.height)
    }

    /// The Static Bubble ablation options as the plugin consumes them.
    pub(crate) fn sb_options(&self) -> SbOptions {
        SbOptions {
            forking: self.sb_forking,
            check_probe: self.sb_check_probe,
            return_forwarding: self.sb_return_forwarding,
            probe_desync: self.sb_probe_desync,
        }
    }

    /// Materialize the irregular topology described by [`Scenario::faults`].
    pub fn topology(&self) -> Topology {
        let mesh = self.mesh();
        match self.faults {
            FaultSpec::Pristine => Topology::full(mesh),
            FaultSpec::Model { kind, count, seed } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                FaultModel::new(kind, count).inject(mesh, &mut rng)
            }
            FaultSpec::Mixed {
                links,
                routers,
                seed,
            } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut topo = Topology::full(mesh);
                if links > 0 {
                    topo = FaultModel::new(FaultKind::Links, links).inject(mesh, &mut rng);
                }
                if routers > 0 {
                    for i in rand::seq::index::sample(&mut rng, mesh.node_count(), routers) {
                        topo.remove_router(NodeId::from(i));
                    }
                }
                topo
            }
        }
    }

    /// The bubble routers this scenario runs with on `topo`.
    pub fn bubble_routers(&self, topo: &Topology) -> Vec<NodeId> {
        match &self.bubbles {
            BubbleSpec::Auto => placement::alive_bubbles(topo),
            BubbleSpec::Explicit(list) => list.clone(),
        }
    }

    /// Build the simulation on a freshly materialized topology.
    pub fn build(&self) -> Box<dyn SimRunner> {
        self.build_on(&self.topology())
    }

    /// Build the simulation on an externally supplied topology (sweeps
    /// sample many topologies per fault point and reuse one spec).
    pub fn build_on(&self, topo: &Topology) -> Box<dyn SimRunner> {
        match self.traffic {
            TrafficSpec::Idle => self.build_with(topo, NoTraffic),
            TrafficSpec::Uniform { rate, single_vnet } => {
                self.build_with(topo, self.synthetic::<Uniform>(rate, single_vnet))
            }
            TrafficSpec::BitComplement { rate, single_vnet } => {
                self.build_with(topo, self.synthetic::<BitComplement>(rate, single_vnet))
            }
        }
    }

    /// The open-loop source for pattern `P` as this spec configures it.
    fn synthetic<P: Pattern + Default>(&self, rate: f64, single_vnet: bool) -> Synthetic<P> {
        let t = Synthetic::new(rate);
        let t = if single_vnet { t.single_vnet() } else { t };
        if self.clock == ClockMode::Leap {
            t.geometric()
        } else {
            t
        }
    }

    /// Build the simulation with an explicit traffic source — the escape
    /// hatch for traffic that has no serialized form (scripted packets,
    /// application traces). Everything else still comes from the spec.
    pub fn build_with<T: TrafficSource + 'static>(
        &self,
        topo: &Topology,
        traffic: T,
    ) -> Box<dyn SimRunner> {
        let planner = self.design.planner(topo);
        let mut runner: Box<dyn SimRunner> = match self.design {
            Design::SpanningTree | Design::TreeOnly | Design::Unprotected => Box::new(Runner(
                Simulator::new(topo, self.config, planner, NullPlugin, traffic, self.seed),
            )),
            Design::EscapeVc => Box::new(Runner(Simulator::new(
                topo,
                self.config,
                planner,
                EscapeVcPlugin::new(topo, self.tdd),
                traffic,
                self.seed,
            ))),
            Design::StaticBubble => Box::new(Runner(Simulator::new(
                topo,
                self.config,
                planner,
                StaticBubblePlugin::with_bubble_nodes(
                    topo.mesh(),
                    self.tdd,
                    self.sb_options(),
                    &self.bubble_routers(topo),
                ),
                traffic,
                self.seed,
            ))),
        };
        runner.set_audit(self.audit_every);
        runner
    }

    /// Build, warm up and run the measurement window on a fresh topology.
    pub fn run(&self) -> RunOutcome {
        self.run_on(&self.topology())
    }

    /// As [`Scenario::run`] on an externally supplied topology.
    pub(crate) fn run_on(&self, topo: &Topology) -> RunOutcome {
        let mut runner = self.build_on(topo);
        runner.warmup(self.warmup);
        runner.run(self.cycles);
        RunOutcome {
            design: self.design,
            cost: self.design.cost(topo, self.config),
            stats: runner.stats().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let sc = Scenario::new("t", Design::EscapeVc)
            .with_mesh(4, 6)
            .with_rate(0.3)
            .with_seed(9)
            .with_tdd(16);
        assert_eq!((sc.width, sc.height), (4, 6));
        assert_eq!(
            sc.traffic,
            TrafficSpec::Uniform {
                rate: 0.3,
                single_vnet: true
            }
        );
        assert_eq!(sc.seed, 9);
        assert_eq!(sc.tdd, 16);
    }

    #[test]
    fn pristine_topology_is_full() {
        let sc = Scenario::new("t", Design::StaticBubble).with_mesh(5, 5);
        assert_eq!(sc.topology(), Topology::full(Mesh::new(5, 5)));
    }

    #[test]
    fn model_faults_are_seed_deterministic() {
        let sc = Scenario::new("t", Design::StaticBubble).with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 9,
            seed: 5,
        });
        assert_eq!(sc.topology(), sc.topology());
        assert_eq!(
            sc.topology().alive_links().count(),
            Mesh::new(8, 8).link_count() - 9
        );
    }

    #[test]
    fn mixed_faults_remove_both_kinds() {
        let sc = Scenario::new("t", Design::StaticBubble).with_faults(FaultSpec::Mixed {
            links: 4,
            routers: 3,
            seed: 2,
        });
        let topo = sc.topology();
        assert_eq!(topo.alive_node_count(), 64 - 3);
    }

    #[test]
    fn explicit_bubbles_override_placement() {
        let topo = Topology::full(Mesh::new(8, 8));
        let mine = vec![NodeId::from(0usize), NodeId::from(63usize)];
        let sc = Scenario::new("t", Design::StaticBubble)
            .with_bubbles(BubbleSpec::Explicit(mine.clone()));
        assert_eq!(sc.bubble_routers(&topo), mine);
        let auto = Scenario::new("t", Design::StaticBubble);
        assert_eq!(auto.bubble_routers(&topo), placement::alive_bubbles(&topo));
    }

    fn rejected(sc: Scenario) -> String {
        sc.validate().expect_err("spec must be rejected").0
    }

    #[test]
    fn validate_bounds_the_mesh_dimensions() {
        let sized = |w, h| Scenario::new("t", Design::StaticBubble).with_mesh(w, h);
        // 256x256 is exactly the u16 id space; one more column is not.
        assert_eq!(sized(8, 8).validate(), Ok(()));
        assert_eq!(sized(256, 256).validate(), Ok(()));
        for (w, h) in [(0, 8), (8, 0), (257, 256)] {
            let msg = rejected(sized(w, h));
            assert!(
                msg.starts_with(&format!("width/height: a {w}x{h} mesh")),
                "{msg}"
            );
        }
    }

    #[test]
    fn validate_bounds_fault_counts_by_what_the_mesh_has() {
        // A 4x4 mesh has 24 links and 16 routers; the bounds are inclusive.
        let mixed = |links, routers| {
            let seed = 1;
            Scenario::new("t", Design::StaticBubble)
                .with_mesh(4, 4)
                .with_faults(FaultSpec::Mixed {
                    links,
                    routers,
                    seed,
                })
        };
        assert_eq!(mixed(24, 16).validate(), Ok(()));
        assert!(rejected(mixed(25, 0)).contains("25 link faults requested, the 4x4 mesh has 24"));
        assert!(rejected(mixed(0, 17)).contains("has 16 routers"));
        let (kind, count, seed) = (FaultKind::Routers, 17, 1);
        let model = mixed(0, 0).with_faults(FaultSpec::Model { kind, count, seed });
        assert!(rejected(model).contains("has 16 routers"));
    }

    #[test]
    fn validate_rejects_a_rate_the_injector_cannot_offer() {
        let sc = Scenario::new("t", Design::StaticBubble);
        assert_eq!(sc.clone().with_rate(3.0).validate(), Ok(()));
        let msg = rejected(sc.clone().with_rate(5.0));
        assert!(
            msg.starts_with("traffic rate:") && msg.contains("at most 3"),
            "{msg}"
        );
        assert!(rejected(sc.with_rate(-0.1)).contains("non-negative"));
    }

    #[test]
    fn validate_covers_every_sim_config_field() {
        let sc = Scenario::new("t", Design::StaticBubble);
        let with = |edit: fn(&mut SimConfig)| {
            let mut sc = sc.clone();
            edit(&mut sc.config);
            rejected(sc)
        };
        assert!(with(|c| c.vnets = 0).starts_with("config.vnets: 0; must be 1..=8"));
        assert!(with(|c| c.vcs_per_vnet = 0).starts_with("config.vcs_per_vnet: 0; must be >= 1"));
        let wide = with(|c| c.vcs_per_vnet = 40);
        assert!(
            wide.starts_with("config.vcs_per_vnet: 40") && wide.contains("at most 64"),
            "{wide}"
        );
        let short = "config.max_packet_flits: 2; must be >= 5";
        assert!(with(|c| c.max_packet_flits = 2).starts_with(short));
        assert!(with(|c| c.max_packet_flits = 0).contains("must be >= 5"));
    }

    #[test]
    fn validate_keeps_explicit_bubbles_inside_the_mesh() {
        let at = |ids: [usize; 2]| {
            Scenario::new("t", Design::StaticBubble)
                .with_mesh(4, 4)
                .with_bubbles(BubbleSpec::Explicit(ids.map(NodeId::from).to_vec()))
        };
        assert_eq!(at([0, 15]).validate(), Ok(()));
        assert!(rejected(at([3, 16])).starts_with("bubbles: router 16"));
    }

    #[test]
    fn escape_runner_reports_escapes_others_dont() {
        let topo = Topology::full(Mesh::new(4, 4));
        let sc = Scenario::new("t", Design::EscapeVc).with_mesh(4, 4);
        assert!(sc.build_on(&topo).escapes().is_some());
        let sc = Scenario::new("t", Design::StaticBubble).with_mesh(4, 4);
        assert!(sc.build_on(&topo).escapes().is_none());
    }
}
