//! The escape-VC deadlock-recovery baseline (Section II-B, second baseline).
//!
//! One VC per vnet per input port is reserved as the *escape VC*. Regular
//! packets use deadlock-prone minimal routes in the remaining VCs. A
//! per-router timeout (the same detection threshold `t_DD` as Static Bubble)
//! moves a stalled packet into the escape network: its route is re-stamped
//! with a deadlock-free up*/down* spanning-tree path from its current router
//! and from then on it may only occupy escape VCs. The escape network's
//! channel dependencies are acyclic (up-down), so it always drains, which in
//! turn unblocks the regular VCs.
//!
//! Costs modelled exactly as Table I: the reservation removes one VC per
//! vnet per port from regular traffic at **every** router (vs. one extra
//! buffer at 21 routers for Static Bubble), which is where the throughput
//! gap of Fig. 9 comes from.

use crate::audit::{AuditClass, Violation};
use crate::netcore::NetCore;
use crate::packet::PacketMode;
use crate::plugin::{InputRef, Plugin, SlotRef};
use crate::vc::VcRef;
use sb_routing::{RouteSource, UpDownRouting};
use sb_topology::{Direction, NodeId, Topology};

/// The escape-VC recovery plugin.
///
/// No stall clock is stored. While a packet stays in its slot, its head and
/// mode change only through this plugin's restamp, so a Normal occupant
/// that is not waiting to eject has stalled `t − ready_at + 1` cycles at
/// tick `t` and escalates at the ticks `ready_at + k·t_DD − 1`, `k ≥ 1`.
/// Reconfiguring under this plugin is not supported: its up*/down* tree is
/// built for one topology, and [`crate::Simulator::reconfigure`] re-stamps
/// survivors Normal behind its back.
#[derive(Debug)]
pub struct EscapeVcPlugin {
    updown: UpDownRouting,
    tdd: u64,
    /// No occupant escalates before this tick, so `after_cycle` sweeps
    /// only from here on. Scheduling state derived from the VC ready
    /// times: never serialized.
    next_sweep: u64,
    escapes: u64,
    rng: rand::rngs::StdRng,
}

impl EscapeVcPlugin {
    /// Build the plugin for `topo` with detection threshold `tdd` (cycles a
    /// head packet may stall before being moved to the escape network).
    pub fn new(topo: &Topology, tdd: u64) -> Self {
        use rand::SeedableRng;
        EscapeVcPlugin {
            updown: UpDownRouting::new(topo),
            tdd: tdd.max(1),
            next_sweep: 0,
            escapes: 0,
            rng: rand::rngs::StdRng::seed_from_u64(0xE5CA),
        }
    }

    /// Number of packets that have been moved into the escape network.
    pub fn escapes(&self) -> u64 {
        self.escapes
    }

    /// The escape VC (flat index) of `vnet`: the last VC of the vnet's
    /// group.
    pub(crate) fn escape_vc(core: &NetCore, vnet: u8) -> u8 {
        core.config().vcs_of_vnet(vnet).end - 1
    }

    /// The first tick `>= at` at which an occupant switchable from
    /// `ready_at` has stalled a positive multiple of `t_DD` cycles.
    fn next_fire(&self, ready_at: u64, at: u64) -> u64 {
        let first = ready_at.saturating_add(self.tdd - 1);
        match at.saturating_sub(first) % self.tdd {
            0 => at.max(first),
            late => at + self.tdd - late,
        }
    }

    /// Call `f` with the slot and ready time of every occupied VC whose
    /// occupant is Normal and not waiting to eject, in ascending router
    /// and `(port, vc)` order.
    fn for_each_stallable(core: &NetCore, mut f: impl FnMut(VcRef, u64)) {
        let vcs = core.config().vcs_per_port();
        let mut from = 0;
        while let Some(router) = core.occupied_routers().first_set_from(from) {
            from = router.index() + 1;
            let mut occ = core.occupancy_mask(router);
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let vref = VcRef {
                    router,
                    port: Direction::from_index(slot / vcs),
                    vc: (slot % vcs) as u8,
                };
                let pkt = core.vc_occupant(vref).expect("occupancy word");
                if pkt.mode == PacketMode::Normal && pkt.desired_hop().is_some() {
                    f(vref, core.vc_ready_at(vref).expect("occupied"));
                }
            }
        }
    }
}

impl Plugin for EscapeVcPlugin {
    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &crate::packet::Packet,
    ) -> Option<SlotRef> {
        let escape = Self::escape_vc(core, pkt.vnet);
        match pkt.mode {
            // The vnet's group minus its last VC, the escape one.
            PacketMode::Normal => {
                let first = core.config().vcs_of_vnet(pkt.vnet).start;
                core.first_free_vc_in(router, port, first..escape)
                    .map(SlotRef::Regular)
            }
            PacketMode::Escape => core
                .vc_is_free(VcRef {
                    router,
                    port,
                    vc: escape,
                })
                .then_some(SlotRef::Regular(escape)),
        }
    }

    fn after_cycle(&mut self, core: &mut NetCore) {
        let now = core.time();
        if now < self.next_sweep {
            return;
        }
        // A packet put after this tick is switchable from `now + 1` at the
        // earliest, so it escalates at `now + t_DD` at the earliest.
        let mut next = now.saturating_add(self.tdd);
        let mut due = Vec::new();
        Self::for_each_stallable(core, |vref, ready_at| match self.next_fire(ready_at, now) {
            fire if fire == now => due.push(vref),
            fire => next = next.min(fire),
        });
        // An escalated packet never escalates again; one with no up*/down*
        // route stays Normal and next fires at the `now + t_DD` bound.
        for vref in due {
            let dst = core.vc_occupant(vref).expect("occupied").dst;
            if let Some(route) = self.updown.route(vref.router, dst, &mut self.rng) {
                core.with_packet_mut(InputRef::Vc(vref), |p| p.restamp(route, PacketMode::Escape));
                self.escapes += 1;
            }
        }
        self.next_sweep = next;
    }

    fn audit_check(&mut self, core: &NetCore, out: &mut Vec<Violation>) {
        // Derived == recomputed: no occupant escalates before the bound.
        let now = core.time();
        Self::for_each_stallable(core, |vref, ready_at| {
            let fire = self.next_fire(ready_at, now);
            if fire < self.next_sweep {
                out.push(Violation {
                    class: AuditClass::Derived,
                    router: Some(vref.router),
                    detail: format!(
                        "the escape sweep bound {} is past {vref:?}'s escalation at {fire}",
                        self.next_sweep
                    ),
                });
            }
        });
    }

    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        // With no VC occupied nothing escalates before a put, and a put
        // happens on an executed tick.
        (!core.occupied_routers().is_empty()).then(|| self.next_sweep.max(core.time()))
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&EscapeState {
            escapes: self.escapes,
            rng: self.rng.state(),
        })
        .map_err(|e| e.0)
    }
}

/// Snapshot blob of the escape plugin's mutable state. The up*/down*
/// spanning tree is a pure function of the topology and is not in it.
#[derive(serde::Serialize)]
struct EscapeState {
    escapes: u64,
    rng: [u64; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::packet::{NewPacket, Packet, PacketId, PacketMode};
    use crate::traffic::{ScriptedTraffic, UniformTraffic};
    use crate::vc::VcRef;
    use sb_routing::{MinimalRouting, UpDownRouting};
    use sb_topology::{Mesh, Topology, DIRECTIONS};

    fn cfg_2vc() -> SimConfig {
        SimConfig {
            vnets: 1,
            vcs_per_vnet: 2,
            max_packet_flits: 5,
        }
    }

    /// Once packets escalate, they sit only in escape VCs and their re-stamped
    /// routes are legal up-down paths.
    #[test]
    fn escaped_packets_obey_the_escape_discipline() {
        let mesh = Mesh::new(5, 5);
        let topo = Topology::full(mesh);
        let updown = UpDownRouting::new(&topo);
        let mut sim = Simulator::new(
            &topo,
            cfg_2vc(),
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 8),
            UniformTraffic::new(0.5).single_vnet(),
            21,
        );
        let mut saw_escape = false;
        for _ in 0..4_000 {
            sim.tick();
            let core = sim.core();
            for router in core.topology().alive_nodes() {
                for port in DIRECTIONS {
                    for vc in 0..core.config().vcs_per_port() as u8 {
                        let r = VcRef { router, port, vc };
                        let Some(pkt) = core.vc_occupant(r) else {
                            continue;
                        };
                        if pkt.mode == PacketMode::Escape {
                            saw_escape = true;
                            // Escape packets sit in the escape VC only (once
                            // they have moved at least one hop after
                            // escalation, i.e. when their hop index is > 0).
                            if pkt.hop_index() > 0 {
                                assert_eq!(
                                    vc,
                                    EscapeVcPlugin::escape_vc(core, pkt.vnet),
                                    "escape packet in a regular VC at {router}"
                                );
                            }
                            // Its remaining route is an up-down legal path.
                            let remaining = sb_routing::Route::new(
                                pkt.route().directions()[pkt.hop_index()..].to_vec(),
                            );
                            assert!(
                                updown.is_legal(router, &remaining),
                                "escape route not up-down legal"
                            );
                        }
                    }
                }
            }
        }
        assert!(saw_escape, "the load should have triggered escalations");
        assert!(sim.plugin().escapes() > 0);
    }

    /// A sweep bound past a stalled occupant's escalation tick is caught,
    /// and the bound a sweep leaves is the tick itself.
    #[test]
    fn a_stale_sweep_bound_is_caught() {
        let topo = Topology::full(Mesh::new(3, 3));
        let mut core = NetCore::new(&topo, cfg_2vc(), &[]);
        let req = NewPacket {
            src: NodeId(4),
            dst: NodeId(5),
            vnet: 0,
            len_flits: 5,
        };
        let route = sb_routing::Route::new(vec![Direction::East]);
        let slot = VcRef {
            router: NodeId(4),
            port: Direction::West,
            vc: 0,
        };
        // Switchable from 0: it escalates at 0 + t_DD - 1 = 4.
        core.place_packet(slot, Packet::new(PacketId(1), req, route, 0), 0);
        let mut plugin = EscapeVcPlugin::new(&topo, 5);
        plugin.after_cycle(&mut core);
        assert_eq!(plugin.next_sweep, 4);
        let audit = |plugin: &mut EscapeVcPlugin| {
            let mut v = Vec::new();
            plugin.audit_check(&core, &mut v);
            v
        };
        assert_eq!(audit(&mut plugin), []);
        plugin.next_sweep = 5;
        let v = audit(&mut plugin);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            (v[0].class, v[0].router),
            (AuditClass::Derived, Some(NodeId(4)))
        );
        assert!(
            v[0].detail.contains("escape sweep bound"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn escape_vc_index_is_last_of_vnet() {
        let topo = Topology::full(Mesh::new(2, 2));
        let core = NetCore::new(&topo, SimConfig::default(), &[]);
        assert_eq!(EscapeVcPlugin::escape_vc(&core, 0), 3);
        assert_eq!(EscapeVcPlugin::escape_vc(&core, 2), 11);
    }

    #[test]
    fn normal_packets_never_occupy_escape_vcs() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 1_000_000),
            UniformTraffic::new(0.1).single_vnet(),
            7,
        );
        for _ in 0..500 {
            sim.tick();
            let core = sim.core();
            let esc = EscapeVcPlugin::escape_vc(core, 0);
            for router in core.topology().alive_nodes() {
                for port in DIRECTIONS {
                    assert!(
                        core.vc_occupant(VcRef {
                            router,
                            port,
                            vc: esc
                        })
                        .is_none(),
                        "escape VC occupied without any timeout"
                    );
                }
            }
        }
        assert!(sim.core().stats().delivered_packets > 0);
    }

    #[test]
    fn stalled_packet_escapes_and_delivers() {
        // Single-VC-ish config: 2 VCs per vnet (1 regular + 1 escape).
        let mesh = Mesh::new(3, 3);
        let topo = Topology::full(mesh);
        // Deterministic single packet; it cannot deadlock alone, so instead
        // verify the escape machinery by forcing tdd = 1 so it escapes at
        // the first stall (behind its own serialization none occurs — so
        // drive enough traffic to create contention).
        let script: Vec<(u64, NewPacket)> = (0..40)
            .map(|i| {
                (
                    i / 4,
                    NewPacket {
                        src: NodeId((i % 9) as u16),
                        dst: NodeId(((i * 5 + 3) % 9) as u16),
                        vnet: 0,
                        len_flits: 5,
                    },
                )
            })
            .filter(|(_, p)| p.src != p.dst)
            .collect();
        let n = script.len() as u64;
        let mut sim = Simulator::new(
            &topo,
            cfg_2vc(),
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 2),
            ScriptedTraffic::new(script),
            3,
        );
        assert!(sim.run_until_drained(5_000));
        assert_eq!(sim.core().stats().delivered_packets, n);
    }
}
