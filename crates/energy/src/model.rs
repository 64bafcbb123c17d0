//! The energy model: dynamic energy per traversal, leakage per cycle, EDP.

use sb_sim::{SpecialClass, Stats};
use serde::{Deserialize, Serialize};

/// Hardware inventory of one simulated network configuration, used to scale
/// leakage and area. Build one per design point with
/// [`NetworkConfigCost::for_topology`], or as a struct literal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfigCost {
    /// Powered (alive) routers.
    pub alive_routers: usize,
    /// Total packet-sized buffers across powered routers (regular VCs +
    /// static bubbles + escape VCs — whatever the design instantiates).
    pub total_buffers: usize,
    /// Alive unidirectional links (2 × bidirectional).
    pub alive_links: usize,
}

impl NetworkConfigCost {
    /// Inventory for a design on `topo`: `vcs_per_port` buffers at each of
    /// the 4 mesh ports of every alive router, plus `extra_buffers`
    /// (static bubbles for SB, 0 otherwise).
    pub fn for_topology(
        topo: &sb_topology::Topology,
        vcs_per_port: usize,
        extra_buffers: usize,
    ) -> Self {
        let alive_routers = topo.alive_node_count();
        NetworkConfigCost {
            alive_routers,
            total_buffers: alive_routers * 4 * vcs_per_port + extra_buffers,
            alive_links: topo.alive_links().count() * 2,
        }
    }
}

/// Energy broken down the way Fig. 10 plots it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyBreakdown {
    /// Router dynamic energy (buffer write/read, crossbar, allocation), pJ.
    pub router_dynamic: f64,
    /// Link dynamic energy, pJ.
    pub link_dynamic: f64,
    /// Router leakage (buffer-count dominated), pJ.
    pub router_leakage: f64,
    /// Link driver leakage, pJ.
    pub link_leakage: f64,
}

impl EnergyBreakdown {
    /// Total network energy, pJ.
    pub fn total(&self) -> f64 {
        self.router_dynamic + self.link_dynamic + self.router_leakage + self.link_leakage
    }

    /// Total leakage, pJ.
    pub fn leakage(&self) -> f64 {
        self.router_leakage + self.link_leakage
    }
}

/// DSENT-like analytic constants (32 nm, 2 GHz flavour).
///
/// Values are per flit traversal / per cycle in picojoules. Only the ratios
/// matter for the experiments; see the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Router dynamic energy per flit traversal (write+read+xbar+arb), pJ.
    pub router_flit_pj: f64,
    /// Link dynamic energy per flit traversal, pJ.
    pub link_flit_pj: f64,
    /// Dynamic energy of one single-flit special message per hop (router +
    /// link; no buffering), pJ.
    pub special_hop_pj: f64,
    /// Leakage per packet-sized buffer per cycle, pJ.
    pub buffer_leak_pj: f64,
    /// Leakage of the rest of a powered router (xbar, allocators) per
    /// cycle, pJ.
    pub router_base_leak_pj: f64,
    /// Leakage per powered unidirectional link driver per cycle, pJ.
    pub link_leak_pj: f64,
}

impl EnergyModel {
    /// The reference constants used throughout the reproduction
    /// (DSENT-32nm-flavoured; buffers dominate router leakage, links cost
    /// roughly half a router traversal per flit).
    pub fn dsent_32nm() -> Self {
        EnergyModel {
            router_flit_pj: 4.5,
            link_flit_pj: 2.3,
            special_hop_pj: 1.1,
            buffer_leak_pj: 0.045,
            router_base_leak_pj: 0.065,
            link_leak_pj: 0.011,
        }
    }

    /// Price a finished simulation window.
    pub fn price(&self, stats: &Stats, cfg: NetworkConfigCost) -> EnergyBreakdown {
        let cycles = stats.cycles as f64;
        let special_hops: u64 = SpecialClass::ALL
            .iter()
            .map(|c| stats.special_link_flits[c.index()])
            .sum();
        EnergyBreakdown {
            router_dynamic: stats.data_router_flits as f64 * self.router_flit_pj
                + special_hops as f64 * self.special_hop_pj * 0.5,
            link_dynamic: stats.data_link_flits as f64 * self.link_flit_pj
                + special_hops as f64 * self.special_hop_pj * 0.5,
            router_leakage: cycles
                * (cfg.total_buffers as f64 * self.buffer_leak_pj
                    + cfg.alive_routers as f64 * self.router_base_leak_pj),
            link_leakage: cycles * cfg.alive_links as f64 * self.link_leak_pj,
        }
    }

    /// Energy × runtime (for the application-level EDP of Fig. 13, where
    /// delay = execution time rather than packet latency).
    pub fn edp_runtime(&self, stats: &Stats, cfg: NetworkConfigCost, runtime_cycles: u64) -> f64 {
        self.price(stats, cfg).total() * runtime_cycles as f64
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::dsent_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::{Mesh, Topology};

    fn stats(cycles: u64, flits: u64) -> Stats {
        Stats {
            cycles,
            data_link_flits: flits,
            data_router_flits: flits,
            delivered_packets: flits / 5,
            latency_sum: flits * 4,
            ..Stats::default()
        }
    }

    #[test]
    fn breakdown_sums() {
        let model = EnergyModel::dsent_32nm();
        let cfg = NetworkConfigCost {
            alive_routers: 64,
            total_buffers: 64 * 48,
            alive_links: 224,
        };
        let b = model.price(&stats(1000, 10_000), cfg);
        assert!(b.total() > 0.0);
        assert!((b.total() - (b.router_dynamic + b.link_dynamic + b.leakage())).abs() < 1e-9);
    }

    #[test]
    fn more_buffers_means_more_leakage() {
        // Table I: escape VC needs 320 extra buffers in a 64-core mesh vs 21
        // static bubbles — its leakage must be strictly higher.
        let model = EnergyModel::dsent_32nm();
        let s = stats(10_000, 50_000);
        let topo = Topology::full(Mesh::new(8, 8));
        // Same 4 VCs/vnet: SB adds 21 bubbles; eVC adds none but all four
        // VCs leak at every router regardless of reservation.
        let sb = NetworkConfigCost::for_topology(&topo, 4, 21);
        let evc = NetworkConfigCost::for_topology(&topo, 5, 0); // +1 VC/port everywhere
        let b_sb = model.price(&s, sb);
        let b_evc = model.price(&s, evc);
        assert!(b_evc.router_leakage > b_sb.router_leakage);
    }

    #[test]
    fn power_gated_routers_reduce_leakage() {
        let model = EnergyModel::dsent_32nm();
        let s = stats(10_000, 50_000);
        let mesh = Mesh::new(8, 8);
        let full = NetworkConfigCost::for_topology(&Topology::full(mesh), 4, 0);
        let mut topo = Topology::full(mesh);
        for i in 0..16u16 {
            topo.remove_router(sb_topology::NodeId(i * 3));
        }
        let gated = NetworkConfigCost::for_topology(&topo, 4, 0);
        assert!(model.price(&s, gated).leakage() < model.price(&s, full).leakage());
    }

    #[test]
    fn special_messages_cost_energy() {
        let model = EnergyModel::dsent_32nm();
        let cfg = NetworkConfigCost {
            alive_routers: 64,
            total_buffers: 100,
            alive_links: 224,
        };
        let mut s = stats(1000, 10_000);
        let base = model.price(&s, cfg).total();
        s.special_link_flits = [100, 10, 10, 10];
        assert!(model.price(&s, cfg).total() > base);
    }
}
