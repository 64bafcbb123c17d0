//! Simulator configuration (Table II of the paper).

use crate::stats::MAX_VNETS;
use crate::traffic::DATA_FLITS;
use serde::{Deserialize, Serialize};

/// Network configuration.
///
/// Defaults follow Table II: 3 virtual networks with 4 VCs per vnet per
/// port, 5-flit data packets and 1-flit control packets, 1-cycle routers and
/// 1-cycle links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of virtual networks (message classes). Packets never change
    /// vnet, so buffer-dependency cycles are confined to one vnet.
    pub vnets: u8,
    /// VCs per vnet per input port.
    pub vcs_per_vnet: u8,
    /// Depth of each VC in flits = maximum packet length (virtual
    /// cut-through: a VC holds one whole packet).
    pub max_packet_flits: u16,
}

impl SimConfig {
    /// Total VCs per input port (`vnets × vcs_per_vnet`).
    pub fn vcs_per_port(&self) -> usize {
        self.vnets as usize * self.vcs_per_vnet as usize
    }

    /// The vnet of flat VC index `vc`.
    pub(crate) fn vnet_of(&self, vc: u8) -> u8 {
        vc / self.vcs_per_vnet
    }

    /// The flat VC indices belonging to `vnet`.
    pub fn vcs_of_vnet(&self, vnet: u8) -> std::ops::Range<u8> {
        let lo = vnet * self.vcs_per_vnet;
        lo..lo + self.vcs_per_vnet
    }

    /// Entries one router puts before the switch allocator: every VC of its
    /// four mesh ports, the static bubble, and one injection queue per
    /// vnet. They are arbitrated through one `u64` candidate mask.
    pub(crate) fn arbitration_slots(&self) -> usize {
        4 * self.vcs_per_port() + 1 + self.vnets as usize
    }

    /// The arbitration slots (bits of a router's candidate mask) that can
    /// only hold packets of `vnet`: its VC group at each of the four mesh
    /// ports and its injection queue. The bubble's slot is in no vnet's
    /// mask — its occupant's vnet is not a function of the index.
    pub(crate) fn arbitration_mask_of_vnet(&self, vnet: u8) -> u64 {
        let vcs = self.vcs_per_port();
        let group = ((1u64 << self.vcs_per_vnet) - 1) << (vnet * self.vcs_per_vnet);
        let ports = (0..4).fold(0u64, |m, port| m | group << (port * vcs));
        ports | 1u64 << (4 * vcs + 1 + vnet as usize)
    }

    /// Can a network be built and loaded with this configuration? `Err`
    /// names the field and its limit — what [`crate::NetCore::new`] and the
    /// injection path would otherwise `assert!` (or, for zero VCs, run and
    /// deliver nothing), so a spec validator can refuse it first.
    pub fn check(&self) -> Result<(), String> {
        let SimConfig {
            vnets,
            vcs_per_vnet: vcs,
            max_packet_flits: flits,
        } = *self;
        if vnets == 0 || vnets as usize > MAX_VNETS {
            return Err(format!("vnets: {vnets}; must be 1..={MAX_VNETS}"));
        }
        if vcs == 0 {
            return Err("vcs_per_vnet: 0; must be >= 1".to_string());
        }
        let (slots, fit) = (self.arbitration_slots(), u64::BITS as usize);
        if slots > fit {
            return Err(format!(
                "vcs_per_vnet: {vcs} x {vnets} vnets is {slots} arbitration slots per router \
                 (4 ports x VCs + bubble + vnets); at most {fit} fit the candidate mask"
            ));
        }
        if flits < DATA_FLITS {
            return Err(format!(
                "max_packet_flits: {flits}; must be >= {DATA_FLITS}, the data packet length"
            ));
        }
        Ok(())
    }

    /// A small configuration (1 vnet, 1 VC) that makes deadlocks easy to
    /// construct in tests and walk-through examples.
    pub fn tiny() -> Self {
        SimConfig {
            vnets: 1,
            vcs_per_vnet: 1,
            max_packet_flits: 5,
        }
    }

    /// A single-vnet configuration with the paper's VC count, used by the
    /// synthetic sweeps where all traffic is one message class.
    pub fn single_vnet() -> Self {
        SimConfig {
            vnets: 1,
            vcs_per_vnet: 4,
            max_packet_flits: 5,
        }
    }
}

impl Default for SimConfig {
    /// Table II: 3 vnets, 4 VCs per vnet per port, 5-flit packets.
    fn default() -> Self {
        SimConfig {
            vnets: 3,
            vcs_per_vnet: 4,
            max_packet_flits: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.vnets, 3);
        assert_eq!(cfg.vcs_per_vnet, 4);
        assert_eq!(cfg.vcs_per_port(), 12);
    }

    #[test]
    fn vnet_of_flat_index() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.vnet_of(0), 0);
        assert_eq!(cfg.vnet_of(3), 0);
        assert_eq!(cfg.vnet_of(4), 1);
        assert_eq!(cfg.vnet_of(11), 2);
        assert_eq!(cfg.vcs_of_vnet(1), 4..8);
    }

    #[test]
    fn check_names_the_field_and_its_limit() {
        let table_ii = SimConfig::default();
        assert_eq!(table_ii.check(), Ok(()));
        assert_eq!(SimConfig::tiny().check(), Ok(()));
        let with = |edit: fn(&mut SimConfig)| {
            let mut cfg = table_ii;
            edit(&mut cfg);
            cfg.check().expect_err("must be refused")
        };
        assert!(with(|c| c.vnets = 0).starts_with("vnets: 0; must be 1..=8"));
        assert!(with(|c| c.vnets = 9).starts_with("vnets: 9;"));
        assert!(with(|c| c.vcs_per_vnet = 0).starts_with("vcs_per_vnet: 0;"));
        // 4 ports x 5 VCs x 3 vnets + bubble + 3 vnets = 64 fits; 6 do not.
        let five = SimConfig {
            vcs_per_vnet: 5,
            ..table_ii
        };
        assert_eq!((five.arbitration_slots(), five.check()), (64, Ok(())));
        assert!(with(|c| c.vcs_per_vnet = 6).contains("76 arbitration slots"));
        assert!(with(|c| c.max_packet_flits = 4).starts_with("max_packet_flits: 4; must be >= 5"));
    }

    #[test]
    fn vnet_masks_partition_everything_but_the_bubble() {
        for cfg in [
            SimConfig::default(),
            SimConfig::single_vnet(),
            SimConfig::tiny(),
        ] {
            let vcs = cfg.vcs_per_port();
            let mut all = 0u64;
            for vnet in 0..cfg.vnets {
                let mask = cfg.arbitration_mask_of_vnet(vnet);
                assert_eq!(all & mask, 0, "vnet masks are disjoint");
                for port in 0..4 {
                    for vc in cfg.vcs_of_vnet(vnet) {
                        assert_ne!(mask & 1 << (port * vcs + vc as usize), 0);
                    }
                }
                assert_ne!(mask & 1 << (4 * vcs + 1 + vnet as usize), 0);
                assert_eq!(mask.count_ones(), 4 * u32::from(cfg.vcs_per_vnet) + 1);
                all |= mask;
            }
            let bubble = 1u64 << (4 * vcs);
            let every_slot = !0u64 >> (64 - cfg.arbitration_slots());
            assert_eq!(all, every_slot & !bubble);
        }
    }

    #[test]
    fn tiny_config() {
        assert_eq!(SimConfig::tiny().vcs_per_port(), 1);
    }
}
