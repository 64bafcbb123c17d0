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

use crate::netcore::NetCore;
use crate::packet::{PacketId, PacketMode};
use crate::plugin::{InputRef, Plugin, SlotRef};
use crate::vc::VcRef;
use sb_routing::{RouteSource, UpDownRouting};
use sb_topology::{Direction, NodeId, Topology};

/// The escape-VC recovery plugin.
#[derive(Debug)]
pub struct EscapeVcPlugin {
    updown: UpDownRouting,
    tdd: u64,
    /// Per-VC stall clocks, indexed by flat vc id ([`NetCore::flat_vc`]) and
    /// sized lazily on first use. `Some((pkt, count))` means the slot's head
    /// has been switchable-but-stalled for `count` cycles. A flat table:
    /// the hot sweep hashes nothing, and clearing a lapsed entry is one
    /// store.
    stalls: Vec<Option<(PacketId, u64)>>,
    /// Number of `Some` entries in `stalls`, so `next_timer` can bail out
    /// without scanning the table when nothing is stalled (the common case).
    tracked: usize,
    /// Per-router mask of the `Some` entries in `stalls`, in the bit layout
    /// of [`NetCore::occupancy_mask`]: with the occupancy word it names
    /// every slot the stall sweep has to visit. Derived from `stalls`
    /// (rebuilt on restore, never serialized).
    stall_mask: Vec<u64>,
    escapes: u64,
    /// Cycle of the last `after_cycle` call. Stall counters advance by the
    /// elapsed time since then, so skipped (leaped-over) cycles — during
    /// which a stall condition cannot change — are accounted exactly as if
    /// they had been stepped through.
    last_tick: Option<u64>,
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
            stalls: Vec::new(),
            tracked: 0,
            stall_mask: vec![0; topo.mesh().node_count()],
            escapes: 0,
            last_tick: None,
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

    /// Stop tracking slot `slot` of router `r`, whose flat vc id is `i`.
    fn clear_stall(&mut self, r: usize, slot: usize, i: usize) {
        if self.stalls[i].take().is_some() {
            self.tracked -= 1;
            self.stall_mask[r] &= !(1 << slot);
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
        // Advance stall counters; escalate to the escape network on timeout.
        let vcs = core.config().vcs_per_port();
        let n = core.topology().mesh().node_count();
        if self.stalls.is_empty() {
            // First tick: the constructor does not know the VC count.
            self.stalls = vec![None; n * 4 * vcs];
        }
        let now = core.time();
        // Cycles elapsed since the previous executed tick: 1, or the gap
        // the engine skipped, during which every stall condition provably
        // held (occupancy, maturity and desired hop only change at executed
        // ticks), so advancing by `dt` reproduces the stepped counters.
        let dt = match self.last_tick {
            Some(prev) => now - prev,
            None => 1,
        };
        self.last_tick = Some(now);
        for r in 0..n {
            let router = NodeId::from(r);
            // Only an occupied slot can stall and only a tracked one has a
            // clock to clear; every other slot of an alive router is a
            // no-op. Ascending bits are ascending `(port, vc)`.
            let mut visit = core.occupancy_mask(router) | self.stall_mask[r];
            if visit == 0 || !core.topology().router_alive(router) {
                continue;
            }
            while visit != 0 {
                let slot = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let vref = VcRef {
                    router,
                    port: Direction::from_index(slot / vcs),
                    vc: (slot % vcs) as u8,
                };
                let i = core.flat_vc(vref);
                let Some(pkt) = core.vc_occupant(vref) else {
                    self.clear_stall(r, slot, i);
                    continue;
                };
                if core.vc_ready_at(vref).expect("occupied") > now || pkt.desired_hop().is_none() {
                    // Still arriving, or waiting only on the ejection port.
                    self.clear_stall(r, slot, i);
                    continue;
                }
                let (id, dst, mode) = (pkt.id, pkt.dst, pkt.mode);
                // A fresh (or re-owned) entry starts its stall clock at
                // this very tick — entry creation always happens on the
                // first cycle the condition holds, which is never inside a
                // leaped gap. An existing entry accounts every cycle since
                // the last tick.
                let entry = &mut self.stalls[i];
                match entry {
                    Some(v) if v.0 == id => v.1 += dt,
                    Some(v) => *v = (id, 1),
                    None => {
                        *entry = Some((id, 1));
                        self.tracked += 1;
                        self.stall_mask[r] |= 1 << slot;
                    }
                }
                let count = &mut self.stalls[i].as_mut().expect("just set").1;
                if *count >= self.tdd {
                    *count = 0;
                    if mode == PacketMode::Escape {
                        continue;
                    }
                    if let Some(route) = self.updown.route(router, dst, &mut self.rng) {
                        core.with_packet_mut(InputRef::Vc(vref), |p| {
                            p.restamp(route, PacketMode::Escape)
                        });
                        self.escapes += 1;
                    }
                }
            }
        }
    }

    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        // Each tracked stall fires (escape or counter reset) at the tick
        // where its counter reaches `tdd`; counters advance one per cycle,
        // so an entry at `count` after the last executed tick fires at
        // `(now - 1) + (tdd - count)`. Entries whose condition lapsed are
        // pruned at the next tick anyway; their stale bound only wakes the
        // engine early, never late.
        if self.tracked == 0 {
            return None;
        }
        let now = core.time();
        let mut best: Option<u64> = None;
        for &(_, count) in self.stalls.iter().flatten() {
            let at = (now + self.tdd.saturating_sub(count))
                .saturating_sub(1)
                .max(now);
            if best.is_none_or(|b| at < b) {
                best = Some(at);
            }
        }
        best
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&EscapeState {
            stalls: self.stalls.clone(),
            tracked: self.tracked,
            escapes: self.escapes,
            last_tick: self.last_tick,
            rng: self.rng.state(),
        })
        .map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: EscapeState = crate::json::from_json_str(blob).map_err(|e| e.0)?;
        self.stalls = state.stalls;
        self.tracked = state.tracked;
        let per_router = self.stalls.len() / self.stall_mask.len().max(1);
        for (r, mask) in self.stall_mask.iter_mut().enumerate() {
            let slots = self.stalls.iter().skip(r * per_router).take(per_router);
            *mask = (slots.enumerate())
                .filter(|(_, stall)| stall.is_some())
                .fold(0, |mask, (slot, _)| mask | 1 << slot);
        }
        self.escapes = state.escapes;
        self.last_tick = state.last_tick;
        self.rng = rand::rngs::StdRng::from_state(state.rng);
        Ok(())
    }
}

/// Snapshot blob of the escape plugin's mutable state. The up*/down*
/// spanning tree is a pure function of the topology and is rebuilt by the
/// constructor on restore.
#[derive(serde::Serialize, serde::Deserialize)]
struct EscapeState {
    stalls: Vec<Option<(PacketId, u64)>>,
    tracked: usize,
    escapes: u64,
    last_tick: Option<u64>,
    rng: [u64; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::packet::{NewPacket, PacketMode};
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
        let cfg = SimConfig {
            vnets: 1,
            vcs_per_vnet: 2,
            max_packet_flits: 5,
        };
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
            cfg,
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 2),
            ScriptedTraffic::new(script),
            3,
        );
        assert!(sim.run_until_drained(5_000));
        assert_eq!(sim.core().stats().delivered_packets, n);
    }
}
