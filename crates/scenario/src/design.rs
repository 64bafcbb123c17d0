//! The evaluated designs (Section V-B) behind one interface.
//!
//! Lived in `sb-bench` originally; moved here so a serialized [`Scenario`]
//! (`crate::Scenario`) can name its deadlock design and so the per-figure
//! binaries assemble simulations through one place.

use sb_energy::NetworkConfigCost;
use sb_routing::{MinimalRouting, RouteSource, TreeOnlyRouting, UpDownRouting};
use sb_sim::{SimConfig, Stats};
use sb_topology::Topology;
use sb_workloads::AppTraffic;
use serde::{Deserialize, Serialize};
use static_bubble::placement;

use crate::runner::SimRunner;
use crate::spec::Scenario;

/// The deadlock-detection threshold used across experiments (Table II).
pub const T_DD: u64 = 34;

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// Deadlock avoidance: all packets carry deadlock-free up*/down* routes.
    SpanningTree,
    /// Deadlock avoidance with *tree-only* routes (every packet follows the
    /// unique spanning-tree path via the LCA — the literal "routed via the
    /// root" baseline of Fig. 1). The conservative end of the paper's
    /// baseline description; reported alongside up-down in Figs. 8/9.
    TreeOnly,
    /// Deadlock recovery with escape VCs (1 of the VCs per vnet per port is
    /// reserved; escape routes are up*/down*).
    EscapeVc,
    /// The paper's contribution.
    StaticBubble,
    /// No deadlock handling at all: minimal routes, no recovery mechanism.
    /// Not a paper design point — the `sbsim` CLI's `none` mode, useful for
    /// demonstrating the wedge the other designs exist to prevent.
    Unprotected,
}

impl Design {
    /// All three paper designs, in the paper's plotting order.
    pub const ALL: [Design; 3] = [Design::SpanningTree, Design::EscapeVc, Design::StaticBubble];

    /// Short label used in tables and on the `sbsim` command line.
    pub fn label(self) -> &'static str {
        match self {
            Design::SpanningTree => "sp-tree",
            Design::TreeOnly => "tree-only",
            Design::EscapeVc => "escape-vc",
            Design::StaticBubble => "static-bubble",
            Design::Unprotected => "none",
        }
    }

    /// Inverse of [`Design::label`].
    pub fn from_label(label: &str) -> Option<Design> {
        Some(match label {
            "sp-tree" => Design::SpanningTree,
            "tree-only" => Design::TreeOnly,
            "escape-vc" => Design::EscapeVc,
            "static-bubble" => Design::StaticBubble,
            "none" => Design::Unprotected,
            _ => return None,
        })
    }

    /// The hardware inventory for energy/area pricing: the escape-VC design
    /// adds one escape VC per vnet per input port at every router (Table I);
    /// Static Bubble adds one buffer at each alive placement router.
    pub fn cost(self, topo: &Topology, cfg: SimConfig) -> NetworkConfigCost {
        match self {
            Design::SpanningTree | Design::TreeOnly | Design::Unprotected => {
                NetworkConfigCost::for_topology(topo, cfg.vcs_per_port(), 0)
            }
            Design::EscapeVc => {
                NetworkConfigCost::for_topology(topo, cfg.vcs_per_port() + cfg.vnets as usize, 0)
            }
            Design::StaticBubble => NetworkConfigCost::for_topology(
                topo,
                cfg.vcs_per_port(),
                placement::alive_bubbles(topo).len(),
            ),
        }
    }

    /// The route planner this design injects packets with.
    pub fn planner(self, topo: &Topology) -> Box<dyn RouteSource> {
        match self {
            Design::SpanningTree => Box::new(UpDownRouting::new(topo)),
            Design::TreeOnly => Box::new(TreeOnlyRouting::new(topo)),
            _ => Box::new(MinimalRouting::new(topo)),
        }
    }

    /// Run a closed-loop application to completion (or `max_cycles`).
    /// Returns `(runtime, completed, outcome)`: `runtime` is `None` if the
    /// budget did not finish (counts as the maximum for runtime comparisons).
    pub fn run_app(
        self,
        topo: &Topology,
        cfg: SimConfig,
        app: AppTraffic,
        seed: u64,
        max_cycles: u64,
    ) -> (Option<u64>, u64, RunOutcome) {
        let scenario = Scenario::new("design-run-app", self)
            .with_config(cfg)
            .with_seed(seed);
        let mut runner = scenario.build_with(topo, app);
        fn app_of(r: &dyn SimRunner) -> &AppTraffic {
            r.traffic_any()
                .downcast_ref::<AppTraffic>()
                .expect("run_app drives AppTraffic")
        }
        let mut runtime = None;
        while runner.time() < max_cycles {
            runner.run(256);
            if app_of(&*runner).finished() && runner.core().in_flight() == 0 {
                runtime = Some(runner.time());
                break;
            }
        }
        let completed = app_of(&*runner).completed();
        (
            runtime,
            completed,
            RunOutcome {
                design: self,
                cost: self.cost(topo, cfg),
                stats: runner.stats().clone(),
            },
        )
    }
}

/// The result of one design run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which design produced it.
    pub design: Design,
    /// Hardware inventory for pricing.
    pub cost: NetworkConfigCost,
    /// Measurement-window statistics.
    pub stats: Stats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::{Mesh, Topology};

    #[test]
    fn all_designs_deliver_at_low_load() {
        for d in Design::ALL {
            let out = Scenario::new("low-load", d)
                .with_mesh(6, 6)
                .with_rate(0.05)
                .with_seed(3)
                .with_warmup(500)
                .with_cycles(2_000)
                .run();
            assert!(out.stats.delivered_packets > 50, "{:?}", d);
            assert!(out.stats.acceptance() > 0.9, "{:?}", d);
        }
    }

    #[test]
    fn sb_cost_includes_bubbles_evc_includes_escape_vcs() {
        let topo = Topology::full(Mesh::new(8, 8));
        let cfg = SimConfig::single_vnet();
        let sp = Design::SpanningTree.cost(&topo, cfg);
        let sb = Design::StaticBubble.cost(&topo, cfg);
        let evc = Design::EscapeVc.cost(&topo, cfg);
        assert_eq!(sb.total_buffers, sp.total_buffers + 21);
        assert_eq!(evc.total_buffers, sp.total_buffers + 64 * 4);
    }

    #[test]
    fn app_run_finishes_on_full_mesh() {
        let topo = Topology::full(Mesh::new(8, 8));
        let app = AppTraffic::new(sb_workloads::ParsecApp::Canneal.profile(), &topo)
            .unwrap()
            .with_budget(200);
        let (runtime, completed, _) =
            Design::StaticBubble.run_app(&topo, SimConfig::default(), app, 5, 300_000);
        assert_eq!(completed, 200);
        assert!(runtime.is_some());
    }

    #[test]
    fn labels_round_trip() {
        for d in [
            Design::SpanningTree,
            Design::TreeOnly,
            Design::EscapeVc,
            Design::StaticBubble,
            Design::Unprotected,
        ] {
            assert_eq!(Design::from_label(d.label()), Some(d));
        }
        assert_eq!(Design::from_label("bogus"), None);
    }
}
