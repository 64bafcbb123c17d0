//! Closed-loop application profiles: the documented stand-ins for the
//! paper's PARSEC 2.0 full-system runs and Rodinia traces.
//!
//! Each core issues 1-flit requests (vnet 0) and receives 5-flit replies
//! (vnet 2) after a fixed service delay, with at most `window` outstanding
//! requests per core. Destinations mix memory controllers and peer cores;
//! the phase multiplier adds burstiness. Application throughput = completed
//! transactions per cycle; runtime = cycles to finish a fixed transaction
//! budget.

use crate::mc::{default_memory_controllers, usable_cores};
use rand::Rng;
use sb_sim::{NewPacket, Packet, TrafficSource, CTRL_FLITS, DATA_FLITS};
use sb_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Request message class (1-flit, like a coherence GetS).
pub(crate) const REQ_VNET: u8 = 0;
/// Reply message class (5-flit data).
pub(crate) const REPLY_VNET: u8 = 2;

/// The tunable knobs of one application profile.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppProfile {
    /// Display name.
    pub name: &'static str,
    /// Probability an idle core issues a request each cycle (before the
    /// phase multiplier).
    pub issue_prob: f64,
    /// Maximum outstanding requests per core (MLP window).
    pub window: usize,
    /// Fraction of requests that target a memory controller; the rest go to
    /// random peer cores (sharers).
    pub mc_fraction: f64,
    /// Service delay (cycles) between a request arriving and its reply
    /// being injected.
    pub service_delay: u64,
    /// Phase pattern: multipliers applied to `issue_prob`, each for
    /// `phase_len` cycles, cycled.
    pub phases: &'static [f64],
    /// Length of one phase, cycles.
    pub phase_len: u64,
}

/// The five Rodinia benchmarks of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RodiniaApp {
    /// Heavy collective all-to-few traffic; saturates every design early.
    Hadoop,
    /// Pointer-chasing tree lookups; moderate, MC-heavy.
    BPlus,
    /// Iterative clustering: bursty MC reads between compute phases.
    Kmeans,
    /// Stencil: neighbour-heavy with periodic MC writebacks.
    Srad,
    /// Irregular graph traversal: moderate uniform load.
    Bfs,
}

impl RodiniaApp {
    /// All five, in Fig. 12's legend order.
    pub const ALL: [RodiniaApp; 5] = [
        RodiniaApp::Hadoop,
        RodiniaApp::BPlus,
        RodiniaApp::Kmeans,
        RodiniaApp::Srad,
        RodiniaApp::Bfs,
    ];

    /// The profile for this benchmark.
    pub fn profile(self) -> AppProfile {
        match self {
            RodiniaApp::Hadoop => AppProfile {
                name: "hadoop",
                issue_prob: 0.12,
                window: 8,
                mc_fraction: 0.85,
                service_delay: 20,
                phases: &[1.0],
                phase_len: 1,
            },
            RodiniaApp::BPlus => AppProfile {
                name: "bplus",
                issue_prob: 0.02,
                window: 2,
                mc_fraction: 0.8,
                service_delay: 30,
                phases: &[1.0, 0.4],
                phase_len: 400,
            },
            RodiniaApp::Kmeans => AppProfile {
                name: "kmeans",
                issue_prob: 0.035,
                window: 4,
                mc_fraction: 0.7,
                service_delay: 25,
                phases: &[1.6, 0.2, 0.2],
                phase_len: 300,
            },
            RodiniaApp::Srad => AppProfile {
                name: "srad",
                issue_prob: 0.03,
                window: 4,
                mc_fraction: 0.35,
                service_delay: 25,
                phases: &[1.2, 0.6],
                phase_len: 250,
            },
            RodiniaApp::Bfs => AppProfile {
                name: "bfs",
                issue_prob: 0.025,
                window: 3,
                mc_fraction: 0.5,
                service_delay: 30,
                phases: &[1.0, 0.8, 1.4],
                phase_len: 200,
            },
        }
    }
}

/// A representative subset of PARSEC 2.0 (Fig. 13): low injection rates (an
/// order of magnitude below saturation, as the paper observes from the high
/// L1 hit rates), mostly MC traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParsecApp {
    /// Embarrassingly parallel option pricing; very light traffic.
    Blackscholes,
    /// Simulated annealing with a large shared graph.
    Canneal,
    /// Particle simulation with neighbour exchanges.
    Fluidanimate,
    /// Computer-vision body tracking; bursty frames.
    Bodytrack,
}

impl ParsecApp {
    /// The four modelled workloads.
    pub const ALL: [ParsecApp; 4] = [
        ParsecApp::Blackscholes,
        ParsecApp::Canneal,
        ParsecApp::Fluidanimate,
        ParsecApp::Bodytrack,
    ];

    /// The profile for this workload.
    pub fn profile(self) -> AppProfile {
        match self {
            ParsecApp::Blackscholes => AppProfile {
                name: "blackscholes",
                issue_prob: 0.006,
                window: 2,
                mc_fraction: 0.9,
                service_delay: 40,
                phases: &[1.0],
                phase_len: 1,
            },
            ParsecApp::Canneal => AppProfile {
                name: "canneal",
                issue_prob: 0.012,
                window: 3,
                mc_fraction: 0.6,
                service_delay: 40,
                phases: &[1.0],
                phase_len: 1,
            },
            ParsecApp::Fluidanimate => AppProfile {
                name: "fluidanimate",
                issue_prob: 0.01,
                window: 2,
                mc_fraction: 0.45,
                service_delay: 35,
                phases: &[1.2, 0.8],
                phase_len: 500,
            },
            ParsecApp::Bodytrack => AppProfile {
                name: "bodytrack",
                issue_prob: 0.009,
                window: 2,
                mc_fraction: 0.7,
                service_delay: 40,
                phases: &[1.8, 0.4, 0.4],
                phase_len: 400,
            },
        }
    }
}

/// The closed-loop traffic source driving one application profile.
#[derive(Debug, Clone)]
pub struct AppTraffic {
    profile: AppProfile,
    cores: Vec<NodeId>,
    mcs: Vec<NodeId>,
    /// Is the node one of `mcs`? Indexed by node id over the whole mesh.
    is_mc: Vec<bool>,
    /// Stop issuing after this many transactions (`u64::MAX` = unbounded).
    budget: u64,
    state: AppState,
}

/// What a run changes in an [`AppTraffic`], and so what a snapshot of one
/// carries; the rest is rebuilt from the constructor arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AppState {
    /// Requests awaiting their reply, per core, indexed by node id over the
    /// whole mesh.
    outstanding: Vec<usize>,
    /// Replies waiting for their service delay: `(ready_at, reply)`.
    pending_replies: VecDeque<(u64, NewPacket)>,
    issued: u64,
    completed: u64,
}

impl AppTraffic {
    /// Map `profile` onto `topo`: cores are the largest MC-reachable
    /// component; returns `None` if no memory controller is usable (the
    /// paper discards such topologies).
    pub fn new(profile: AppProfile, topo: &Topology) -> Option<Self> {
        let all_mcs = default_memory_controllers(topo.mesh());
        let cores = usable_cores(topo, &all_mcs)?;
        let mcs: Vec<NodeId> = all_mcs.into_iter().filter(|m| cores.contains(m)).collect();
        if mcs.is_empty() || cores.len() < 2 {
            return None;
        }
        let n = topo.mesh().node_count();
        let mut is_mc = vec![false; n];
        for m in &mcs {
            is_mc[m.index()] = true;
        }
        Some(AppTraffic {
            profile,
            cores,
            mcs,
            is_mc,
            budget: u64::MAX,
            state: AppState {
                outstanding: vec![0; n],
                pending_replies: VecDeque::new(),
                issued: 0,
                completed: 0,
            },
        })
    }

    /// Limit the run to `budget` transactions (for runtime measurements:
    /// the app "finishes" when `completed() == budget`).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Completed request/reply transactions.
    pub fn completed(&self) -> u64 {
        self.state.completed
    }

    /// Has the transaction budget been fully completed?
    pub fn finished(&self) -> bool {
        self.state.completed >= self.budget
    }

    fn phase_multiplier(&self, time: u64) -> f64 {
        let phases = self.profile.phases;
        let i = (time / self.profile.phase_len.max(1)) as usize % phases.len();
        phases[i]
    }
}

impl TrafficSource for AppTraffic {
    fn generate(
        &mut self,
        time: u64,
        _topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        let mut out = Vec::new();
        let p = (self.profile.issue_prob * self.phase_multiplier(time)).min(1.0);
        let state = &mut self.state;
        // Due replies first.
        while let Some(&(ready, pkt)) = state.pending_replies.front() {
            if ready > time {
                break;
            }
            state.pending_replies.pop_front();
            out.push(pkt);
        }
        // New requests from idle cores.
        if state.issued < self.budget {
            for &core in &self.cores {
                if self.is_mc[core.index()] {
                    continue; // MCs do not issue
                }
                if state.outstanding[core.index()] >= self.profile.window {
                    continue;
                }
                if !rng.gen_bool(p) {
                    continue;
                }
                let dst = if rng.gen_bool(self.profile.mc_fraction) {
                    self.mcs[rng.gen_range(0..self.mcs.len())]
                } else {
                    // A random peer (sharer).
                    let mut d = self.cores[rng.gen_range(0..self.cores.len())];
                    while d == core {
                        d = self.cores[rng.gen_range(0..self.cores.len())];
                    }
                    d
                };
                out.push(NewPacket {
                    src: core,
                    dst,
                    vnet: REQ_VNET,
                    len_flits: CTRL_FLITS,
                });
                state.outstanding[core.index()] += 1;
                state.issued += 1;
                if state.issued >= self.budget {
                    break;
                }
            }
        }
        out
    }

    fn on_delivered(&mut self, pkt: &Packet, time: u64) {
        if pkt.vnet == REQ_VNET {
            // Serve the request: reply flows dst -> src after the delay.
            self.state.pending_replies.push_back((
                time + self.profile.service_delay,
                NewPacket {
                    src: pkt.dst,
                    dst: pkt.src,
                    vnet: REPLY_VNET,
                    len_flits: DATA_FLITS,
                },
            ));
        } else {
            // Reply came home: transaction complete.
            self.state.completed += 1;
            let o = &mut self.state.outstanding[pkt.dst.index()];
            *o = o.saturating_sub(1);
        }
    }

    fn exhausted(&self) -> bool {
        self.state.issued >= self.budget && self.state.pending_replies.is_empty()
    }

    fn snapshot_state(&self) -> Result<String, String> {
        sb_sim::json::to_json_string(&self.state).map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: AppState = sb_sim::json::from_json_str(blob).map_err(|e| e.0)?;
        if state.outstanding.len() != self.is_mc.len() {
            return Err(format!(
                "application state of a {}-router mesh restored into a {}-router one",
                state.outstanding.len(),
                self.is_mc.len()
            ));
        }
        self.state = state;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_routing::MinimalRouting;
    use sb_sim::{NullPlugin, SimConfig, Simulator};
    use sb_topology::{Mesh, Topology};

    fn run_app(profile: AppProfile, cycles: u64) -> (u64, u64) {
        let topo = Topology::full(Mesh::new(8, 8));
        let app = AppTraffic::new(profile, &topo).expect("full mesh usable");
        let mut sim = Simulator::new(
            &topo,
            SimConfig::default(),
            Box::new(MinimalRouting::new(&topo)),
            NullPlugin,
            app,
            11,
        );
        sim.run(cycles);
        (sim.traffic().state.issued, sim.traffic().completed())
    }

    #[test]
    fn transactions_complete_closed_loop() {
        let (issued, completed) = run_app(ParsecApp::Canneal.profile(), 5_000);
        assert!(issued > 100, "issued {issued}");
        assert!(completed > 0);
        assert!(completed <= issued);
        // Closed loop: most issued requests complete within the horizon.
        assert!(
            completed as f64 > issued as f64 * 0.7,
            "{completed}/{issued}"
        );
    }

    #[test]
    fn hadoop_is_heaviest() {
        let (h_issued, _) = run_app(RodiniaApp::Hadoop.profile(), 3_000);
        let (b_issued, _) = run_app(ParsecApp::Blackscholes.profile(), 3_000);
        assert!(
            h_issued > b_issued * 3,
            "hadoop {h_issued} vs blackscholes {b_issued}"
        );
    }

    #[test]
    fn budget_terminates_app() {
        let topo = Topology::full(Mesh::new(4, 4));
        let app = AppTraffic::new(RodiniaApp::Bfs.profile(), &topo)
            .unwrap()
            .with_budget(50);
        let mut sim = Simulator::new(
            &topo,
            SimConfig::default(),
            Box::new(MinimalRouting::new(&topo)),
            NullPlugin,
            app,
            3,
        );
        assert!(sim.run_until_drained(100_000));
        assert!(sim.traffic().finished());
        assert_eq!(sim.traffic().completed(), 50);
    }

    #[test]
    fn window_bounds_outstanding() {
        let topo = Topology::full(Mesh::new(8, 8));
        let profile = RodiniaApp::Kmeans.profile();
        let window = profile.window;
        let app = AppTraffic::new(profile, &topo).unwrap();
        let mut sim = Simulator::new(
            &topo,
            SimConfig::default(),
            Box::new(MinimalRouting::new(&topo)),
            NullPlugin,
            app,
            5,
        );
        for _ in 0..50 {
            sim.run(20);
            for o in &sim.traffic().state.outstanding {
                assert!(*o <= window);
            }
        }
    }

    #[test]
    fn unusable_topology_rejected() {
        let mesh = Mesh::new(8, 8);
        let mut topo = Topology::full(mesh);
        for m in default_memory_controllers(mesh) {
            topo.remove_router(m);
        }
        assert!(AppTraffic::new(RodiniaApp::Srad.profile(), &topo).is_none());
    }

    #[test]
    fn parsec_injection_is_an_order_below_saturation() {
        // The paper's motivation: real workloads inject ~10x below the
        // 0.1-0.3 flits/node/cycle deadlock regime.
        let topo = Topology::full(Mesh::new(8, 8));
        let app = AppTraffic::new(ParsecApp::Blackscholes.profile(), &topo).unwrap();
        let mut sim = Simulator::new(
            &topo,
            SimConfig::default(),
            Box::new(MinimalRouting::new(&topo)),
            NullPlugin,
            app,
            9,
        );
        sim.run(10_000);
        let s = sim.core().stats();
        let inj = s.offered_flits as f64 / 64.0 / s.cycles as f64;
        assert!(
            inj < 0.05,
            "injection {inj} should be well below saturation"
        );
        assert!(inj > 0.001);
    }
}
