//! Runtime invariant auditor + deadlock forensics.
//!
//! The paper's figures rest on exact accounting, and PR 2's change-driven
//! allocation kernel made the hot loop subtle enough that A/B sweeps alone
//! are a thin safety net. This module is the paranoid backstop: a
//! runtime-toggleable audit pass (see [`crate::Simulator::set_audit`]) that
//! re-derives the invariants the simulator is supposed to maintain and, on
//! any violation — or whenever the deadlock oracle fires — assembles a
//! serializable [`ForensicsReport`] instead of a bare panic.
//!
//! Five invariant classes are checked:
//!
//! * **Conservation** — `offered = in-network + delivered + dropped + lost`
//!   for packets and flits, globally and per vnet ([`check_conservation`]);
//! * **VC legality** — draining slots expire within a packet length,
//!   occupants sit in a VC of their own vnet, hop-pipeline timestamps are in
//!   bounds, and the packet arena's live count matches the buffer census
//!   ([`check_vc_legality`], with the census in [`check_conservation`]);
//! * **FSM legality** — only the Fig. 6 transition edges, one owner per
//!   bubble, disable implies restriction (plugin-owned, via
//!   [`crate::Plugin::audit_check`]);
//! * **Wakeup** — a quiescent-blocked router must have no grantable
//!   candidate, checked against a fresh scan (engine-owned, since only the
//!   engine can run the allocator's candidate search);
//! * **Derived** — every maintained index equals what the one rebuild
//!   function derives from the state it indexes: the scheduler half of
//!   [`NetCore`] against `NetCore::rebuild_sched` ([`check_derived`]),
//!   and a plugin's own indices inside [`crate::Plugin::audit_check`].

use crate::deadlock::{deadlock_and_cycle, WaitForEdge};
use crate::inspect::Snapshot;
use crate::netcore::NetCore;
use crate::stats::{Stats, MAX_VNETS};
use sb_topology::{NodeId, DIRECTIONS};
use serde::{Deserialize, Serialize};

/// The invariant class a [`Violation`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AuditClass {
    /// Packet/flit conservation (`offered = in-network + delivered +
    /// dropped + lost`), globally and per vnet.
    Conservation,
    /// Credit/VC legality: capacity, draining expiry, vnet residency,
    /// timestamp bounds, bubble attach consistency.
    VcLegality,
    /// Static Bubble FSM legality: Fig. 6 edges only, bubble/FSM agreement,
    /// disable implies restriction.
    FsmLegality,
    /// The change-driven kernel's wakeup invariant: quiescent-blocked
    /// routers have no grantable candidate.
    Wakeup,
    /// Derived == recomputed: occupancy, request, draining and
    /// hop-pipeline words, cached head bytes, the occupied-router set, the
    /// wheel occupancy word, a plugin's indices.
    Derived,
}

impl std::fmt::Display for AuditClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuditClass::Conservation => "conservation",
            AuditClass::VcLegality => "vc-legality",
            AuditClass::FsmLegality => "fsm-legality",
            AuditClass::Wakeup => "wakeup",
            AuditClass::Derived => "derived",
        };
        f.write_str(s)
    }
}

/// One violated invariant, with enough detail to localize it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant class was broken.
    pub class: AuditClass,
    /// The router the violation localizes to, when it localizes at all.
    pub router: Option<NodeId>,
    /// Human-readable specifics (the unbalanced equation, the illegal
    /// edge, the stuck candidate).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.router {
            Some(r) => write!(f, "[{}] at {}: {}", self.class, r, self.detail),
            None => write!(f, "[{}] {}", self.class, self.detail),
        }
    }
}

/// Everything needed to debug a violation or a wedged network after the
/// fact, serializable for offline analysis. See `DESIGN.md` for how to read
/// the wait-for cycle dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForensicsReport {
    /// Cycle the report was assembled.
    pub time: u64,
    /// The violations that triggered it (empty when the trigger was the
    /// deadlock oracle alone).
    pub violations: Vec<Violation>,
    /// Was the network deadlocked (oracle verdict) at capture time?
    pub deadlocked: bool,
    /// One concrete annotated wait-for cycle, if any exists.
    pub wait_cycle: Vec<WaitForEdge>,
    /// Structural occupancy snapshot.
    pub snapshot: Snapshot,
    /// ASCII occupancy heat map ([`NetCore::occupancy_art`]).
    pub occupancy_art: String,
    /// Plugin-side protocol state: FSM states along the cycle, active
    /// restrictions, recent special-message history
    /// ([`crate::Plugin::forensic_lines`]).
    pub plugin_lines: Vec<String>,
    /// Probe-trajectory trace drained from the plugin at capture time
    /// ([`crate::Plugin::trace_lines`]): per-probe hop/fork/drop events and
    /// the exact latch-condition evaluation at every probe return. Empty
    /// unless tracing was enabled ([`crate::Plugin::set_tracing`]) — the
    /// `--bisect` replay turns it on.
    pub probe_trace: Vec<String>,
    /// The statistics block at capture time.
    pub stats: Stats,
}

impl std::fmt::Display for ForensicsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== forensics @ cycle {} ===", self.time)?;
        writeln!(
            f,
            "deadlocked: {}; in-flight {} / queued {}",
            self.deadlocked, self.snapshot.in_flight, self.snapshot.queued
        )?;
        for v in &self.violations {
            writeln!(f, "violation: {v}")?;
        }
        if !self.wait_cycle.is_empty() {
            writeln!(f, "wait-for cycle ({} edges):", self.wait_cycle.len())?;
            for e in &self.wait_cycle {
                writeln!(
                    f,
                    "  {:?} pkt {} vnet {} wants {:?}",
                    e.buffer, e.pkt.0, e.vnet, e.wants
                )?;
            }
        }
        for line in &self.plugin_lines {
            writeln!(f, "plugin: {line}")?;
        }
        for line in &self.probe_trace {
            writeln!(f, "trace: {line}")?;
        }
        write!(f, "{}", self.occupancy_art)
    }
}

impl ForensicsReport {
    /// Assemble a report from the current network state. `violations` are
    /// whatever the audit pass collected (may be empty when the trigger was
    /// the deadlock oracle); `plugin_lines` comes from
    /// [`crate::Plugin::forensic_lines`]; `probe_trace` from
    /// [`crate::Plugin::trace_lines`] (pass empty when tracing is off or
    /// the plugin is only borrowed immutably).
    pub(crate) fn capture(
        core: &NetCore,
        violations: Vec<Violation>,
        plugin_lines: Vec<String>,
        probe_trace: Vec<String>,
    ) -> Self {
        let (deadlocked, wait_cycle) = deadlock_and_cycle(core);
        ForensicsReport {
            time: core.time(),
            violations,
            deadlocked,
            wait_cycle,
            snapshot: Snapshot::capture(core),
            occupancy_art: core.occupancy_art(),
            plugin_lines,
            probe_trace,
            stats: core.stats().clone(),
        }
    }
}

/// Check packet and flit conservation: every offer must be accounted for as
/// in-network (VC, bubble, or source queue), delivered, dropped, or lost —
/// globally and per vnet. Pushes one violation per unbalanced equation.
pub(crate) fn check_conservation(core: &NetCore, out: &mut Vec<Violation>) {
    let res = core.resident();
    let s = core.stats();
    let push = |out: &mut Vec<Violation>, detail: String| {
        out.push(Violation {
            class: AuditClass::Conservation,
            router: None,
            detail,
        });
    };
    let in_net_pkts = res.packets + res.queued_packets;
    let accounted_pkts = in_net_pkts + s.delivered_packets + s.dropped_packets + s.lost_packets;
    if s.offered_packets != accounted_pkts {
        push(
            out,
            format!(
                "packets: offered {} != in-network {} + delivered {} + dropped {} + lost {}",
                s.offered_packets,
                in_net_pkts,
                s.delivered_packets,
                s.dropped_packets,
                s.lost_packets
            ),
        );
    }
    // Arena census: every live arena slot must be reachable from exactly
    // one buffer (VC, bubble, or a materialized queue head) — a leaked or
    // double-held handle shows up here even if the stats happen to
    // balance. Queue *tails* are unmaterialized descriptors and hold no
    // arena slot, so they are excluded from the expected count.
    let buffered = res.packets + core.queued_heads() as u64;
    if core.arena().len() as u64 != buffered {
        push(
            out,
            format!(
                "arena census: {} live slots != {} buffered handles (VCs + bubbles + queue heads)",
                core.arena().len(),
                buffered
            ),
        );
    }
    let in_net_flits = res.flits + res.queued_flits;
    let accounted_flits = in_net_flits + s.delivered_flits + s.dropped_flits + s.lost_flits;
    if s.offered_flits != accounted_flits {
        push(
            out,
            format!(
                "flits: offered {} != in-network {} + delivered {} + dropped {} + lost {}",
                s.offered_flits, in_net_flits, s.delivered_flits, s.dropped_flits, s.lost_flits
            ),
        );
    }
    for v in 0..MAX_VNETS {
        let in_net = res.packets_vnet[v] + res.queued_packets_vnet[v];
        let accounted = in_net
            + s.delivered_packets_vnet[v]
            + s.dropped_packets_vnet[v]
            + s.lost_packets_vnet[v];
        if s.offered_packets_vnet[v] != accounted {
            push(
                out,
                format!(
                    "vnet {v} packets: offered {} != in-network {in_net} + delivered {} \
                     + dropped {} + lost {}",
                    s.offered_packets_vnet[v],
                    s.delivered_packets_vnet[v],
                    s.dropped_packets_vnet[v],
                    s.lost_packets_vnet[v]
                ),
            );
        }
    }
}

/// Check credit/VC legality at every router, directly over the SoA tables:
/// draining slots that expire within one packet length, occupants resident
/// in a VC of their own vnet with in-bounds hop-pipeline timestamps, bubble
/// occupants consistent with the attach, and no drain deadline on an
/// occupied slot. (That the caches agree with these tables is
/// [`check_derived`]'s.)
pub(crate) fn check_vc_legality(core: &NetCore, out: &mut Vec<Violation>) {
    let cfg = core.config();
    let now = core.time();
    let vcs = cfg.vcs_per_port();
    let drain_bound = now + cfg.max_packet_flits as u64;
    let ready_bound = now + crate::engine::HOP_LATENCY;
    for router in core.topology().mesh().nodes() {
        let mut fail = |detail: String| {
            out.push(Violation {
                class: AuditClass::VcLegality,
                router: Some(router),
                detail,
            });
        };
        let r = router.index();
        let base = core.vc_base(router);
        for port in DIRECTIONS {
            for vc in 0..vcs {
                let i = port.index() * vcs + vc;
                let flat = base + i;
                let h = core.arch.vc_occ[flat];
                if h.is_some() {
                    // A stale handle panics inside the arena — that is
                    // corruption beyond what a report can describe.
                    let pkt = core.arch.arena.get(h);
                    if cfg.vnet_of(vc as u8) != pkt.vnet {
                        fail(format!(
                            "port {port:?} vc {vc} (vnet {}) holds pkt {} of vnet {}",
                            cfg.vnet_of(vc as u8),
                            pkt.id.0,
                            pkt.vnet
                        ));
                    }
                    if core.arch.vc_ready[flat] > ready_bound {
                        fail(format!(
                            "port {port:?} vc {vc}: ready_at {} > bound {ready_bound}",
                            core.arch.vc_ready[flat]
                        ));
                    }
                    if core.arch.vc_drain[flat] != 0 {
                        fail(format!(
                            "port {port:?} vc {vc}: occupied slot carries drain deadline {}",
                            core.arch.vc_drain[flat]
                        ));
                    }
                } else if core.arch.vc_drain[flat] > drain_bound {
                    fail(format!(
                        "port {port:?} vc {vc}: draining until {} > bound {drain_bound} \
                         (never expires)",
                        core.arch.vc_drain[flat]
                    ));
                }
            }
        }
        if core.has_bubble(router) {
            let h = core.arch.bub_occ[r];
            if h.is_some() {
                let pkt = core.arch.arena.get(h);
                // A deactivated bubble may still drain an occupant, but an
                // *attached* bubble must agree with its occupant.
                if let Some((_, vnet)) = core.bubble_attach(router) {
                    if vnet != pkt.vnet {
                        fail(format!(
                            "bubble attached for vnet {vnet} holds pkt {} of vnet {}",
                            pkt.id.0, pkt.vnet
                        ));
                    }
                }
                if core.arch.bub_ready[r] > ready_bound {
                    fail(format!(
                        "bubble: ready_at {} > bound {ready_bound}",
                        core.arch.bub_ready[r]
                    ));
                }
                if core.arch.bub_drain[r] != 0 {
                    fail(format!(
                        "bubble: occupied slot carries drain deadline {}",
                        core.arch.bub_drain[r]
                    ));
                }
            } else if core.arch.bub_drain[r] > drain_bound {
                fail(format!(
                    "bubble: draining until {} > bound {drain_bound}",
                    core.arch.bub_drain[r]
                ));
            }
        }
    }
}

/// Check the scheduler half of `core` against a fresh derivation from the
/// architectural half (`NetCore::rebuild_sched`): occupancy, request and
/// draining words, the hop-pipeline word (a superset of its rebuild within
/// the occupancy word), the head bytes and packet ids of occupied slots,
/// the head bytes of injection-queue heads, the occupied-router set, and
/// the wheel occupancy word against the slots it summarises. (A wheel
/// entry carries no time of its own — its slot is its maturity, inside
/// `[time, time + 64)` as long as no leap crosses one, which
/// `NetCore::leap` asserts.)
pub(crate) fn check_derived(core: &NetCore, out: &mut Vec<Violation>) {
    let (have, want) = (&core.sched, core.rebuild_sched());
    let mut fail = |router: Option<NodeId>, detail: String| {
        let class = AuditClass::Derived;
        out.push(Violation {
            class,
            router,
            detail,
        });
    };
    let slots = 4 * core.config().vcs_per_port();
    for (r, router) in core.topology().mesh().nodes().enumerate() {
        let (words, derived) = (&have.words[r], &want.words[r]);
        if words.occ != derived.occ {
            let (have, want) = (words.occ, derived.occ);
            let detail =
                format!("occupancy word {have:#x} != {want:#x} derived from occupant handles");
            fail(Some(router), detail);
        }
        for out in 0..5 {
            let (have, want) = (words.req[out], derived.req[out]);
            if have != want {
                let detail = format!(
                    "request word {out}: {have:#x} != {want:#x} derived from the occupants' heads"
                );
                fail(Some(router), detail);
            }
        }
        if words.drain != derived.drain {
            let (have, want) = (words.drain, derived.drain);
            let detail =
                format!("draining word {have:#x} != {want:#x} derived from the drain deadlines");
            fail(Some(router), detail);
        }
        // A scan drops a switchable occupant's pipeline bit, so between
        // scans the word may still name one: it must cover the occupants in
        // the hop pipeline and name no empty slot.
        let (missing, stray) = (derived.pipe & !words.pipe, words.pipe & !derived.occ);
        if missing | stray != 0 {
            let detail = format!(
                "hop-pipeline word {:#x} misses {missing:#x} (ready later than now) \
                 or names empty slots {stray:#x}",
                words.pipe
            );
            fail(Some(router), detail);
        }
        if core.arch.bub_occ[r].is_some() && have.bub_head[r] != want.bub_head[r] {
            let (have, want) = (have.bub_head[r], want.bub_head[r]);
            let detail = format!("bubble: cached head {have} != packet's desired output {want}");
            fail(Some(router), detail);
        }
    }
    let occupied = |&flat: &usize| core.arch.vc_occ[flat].is_some();
    for flat in (0..have.vc_head.len()).filter(occupied) {
        if have.vc_head[flat] != want.vc_head[flat] {
            let (slot, have, want) = (flat % slots, have.vc_head[flat], want.vc_head[flat]);
            let detail = format!(
                "slot {slot}: cached head {have} != packet's desired output {want} \
                 (stale after a restamp?)"
            );
            fail(Some(NodeId::from(flat / slots)), detail);
        }
        if have.vc_pkt[flat] != want.vc_pkt[flat] {
            let (slot, have, want) = (flat % slots, have.vc_pkt[flat].0, want.vc_pkt[flat].0);
            let detail = format!("slot {slot}: cached id {have} != occupant's id {want}");
            fail(Some(NodeId::from(flat / slots)), detail);
        }
    }
    let vnets = core.config().vnets as usize;
    for (qi, q) in core.arch.inject.iter().enumerate() {
        if q.head.is_some() && have.inj_head[qi] != want.inj_head[qi] {
            let (vnet, have, want) = (qi % vnets, have.inj_head[qi], want.inj_head[qi]);
            let detail = format!(
                "vnet {vnet} queue: cached head {have} != packet's desired output {want} \
                 (stale after a restamp?)"
            );
            fail(Some(NodeId::from(qi / vnets)), detail);
        }
    }
    if have.occupied != want.occupied {
        let listed: Vec<NodeId> = have.occupied.iter().collect();
        let detail = format!("occupied-router set {listed:?} disagrees with the occupancy words");
        fail(None, detail);
    }
    let filled = (have.wheel.iter().enumerate()).filter(|(_, due)| !due.is_empty());
    let wheel_occ = filled.fold(0u64, |word, (slot, _)| word | 1 << slot);
    if have.wheel_occ != wheel_occ {
        let have = have.wheel_occ;
        let detail =
            format!("wheel occupancy word {have:#x} != {wheel_occ:#x} derived from the slots");
        fail(None, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use sb_topology::{Mesh, Topology};

    #[test]
    fn fresh_core_audits_clean() {
        let topo = Topology::full(Mesh::new(4, 4));
        let core = NetCore::new(&topo, SimConfig::default(), &[NodeId(5)]);
        let mut v = Vec::new();
        check_conservation(&core, &mut v);
        check_vc_legality(&core, &mut v);
        check_derived(&core, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    /// One seeded violation per row of the derived class: the row's own
    /// check reports it and a rebuild repairs it.
    #[test]
    fn each_derived_index_is_caught_when_it_goes_stale() {
        use crate::packet::{NewPacket, Packet, PacketId};
        use crate::vc::VcRef;
        use sb_topology::Direction;
        const SLOT: VcRef = VcRef {
            router: NodeId(9),
            port: Direction::North,
            vc: 0,
        };
        let topo = Topology::full(Mesh::new(4, 4));
        let mut core = NetCore::new(&topo, SimConfig::default(), &[NodeId(5)]);
        let packet = |id| {
            let ends = NewPacket {
                src: NodeId(0),
                dst: NodeId(1),
                vnet: 0,
                len_flits: 5,
            };
            let east = sb_routing::Route::new(vec![Direction::East]);
            Packet::new(PacketId(id), ends, east, 0)
        };
        core.place_packet(SLOT, packet(1), 2);
        let h = core.arch.arena.insert(packet(2));
        core.bubble_put(NodeId(5), h, Direction::East.index() as u8, 2);
        let drained = VcRef { vc: 1, ..SLOT };
        core.place_packet(drained, packet(3), 0);
        core.vc_take(drained, 5);
        core.surface_head(core.inject_idx(NodeId(9), 1), packet(4));
        type Seed = fn(&mut NetCore);
        let rows: [(&str, Seed); 10] = [
            ("occupancy word", |c| c.sched.words[9].occ = 0),
            ("request word", |c| {
                let head = c.sched.vc_head[c.flat_vc(SLOT)] as usize;
                c.sched.words[9].req[head] = 0;
            }),
            ("slot 0: cached head", |c| {
                let flat = c.flat_vc(SLOT);
                c.sched.vc_head[flat] ^= 1;
            }),
            ("slot 0: cached id", |c| {
                let flat = c.flat_vc(SLOT);
                c.sched.vc_pkt[flat].0 ^= 1;
            }),
            ("bubble: cached head", |c| c.sched.bub_head[5] ^= 1),
            ("draining word", |c| c.sched.words[9].drain = 0),
            ("hop-pipeline word", |c| c.sched.words[9].pipe = 0),
            ("vnet 1 queue: cached head", |c| {
                let qi = c.inject_idx(NodeId(9), 1);
                c.sched.inj_head[qi] ^= 1;
            }),
            ("occupied-router set", |c| {
                c.sched.occupied.insert(NodeId(2));
            }),
            ("wheel occupancy word", |c| c.sched.wheel_occ = 0),
        ];
        for (row, seed) in rows {
            let mut core = core.clone();
            seed(&mut core);
            let mut v = Vec::new();
            check_derived(&core, &mut v);
            assert_eq!(v.len(), 1, "{row}: {v:?}");
            assert_eq!(v[0].class, AuditClass::Derived);
            assert!(v[0].detail.contains(row), "{row}: {}", v[0].detail);
            core.sched = core.rebuild_sched();
            v.clear();
            check_derived(&core, &mut v);
            assert!(v.is_empty(), "{row} after a rebuild: {v:?}");
        }
    }

    #[test]
    fn the_engine_audit_includes_the_derived_class() {
        let topo = Topology::full(Mesh::new(4, 4));
        let planner = Box::new(sb_routing::XyRouting::new(&topo));
        let (plugin, traffic) = (crate::NullPlugin, crate::NoTraffic);
        let mut sim = crate::Simulator::new(&topo, SimConfig::tiny(), planner, plugin, traffic, 0);
        sim.core_mut().wake_at(NodeId(3), 9);
        assert!(sim.audit_now().is_none());
        sim.core_mut().sched.wheel_occ = 0;
        let report = sim
            .audit_now()
            .expect("a pending wake the word does not show");
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].class, AuditClass::Derived);
    }

    /// A 4×4 under XY routes and uniform traffic: the engine the seeded
    /// violations below are planted in.
    fn loaded_sim(
        rate: f64,
        seed: u64,
    ) -> crate::Simulator<crate::NullPlugin, crate::UniformTraffic> {
        let topo = Topology::full(Mesh::new(4, 4));
        let planner = Box::new(sb_routing::XyRouting::new(&topo));
        let traffic = crate::UniformTraffic::new(rate);
        crate::Simulator::new(
            &topo,
            SimConfig::default(),
            planner,
            crate::NullPlugin,
            traffic,
            seed,
        )
    }

    #[test]
    fn auditor_catches_seeded_vc_legality_violations() {
        use crate::vc::VcRef;
        use sb_topology::Direction;
        let mut sim = loaded_sim(0.05, 5);
        sim.run(150);
        assert!(sim.audit_now().is_none());
        // (1) A draining slot whose expiry is beyond any packet length: a
        // credit that would never return.
        let node = sim.core().topology().mesh().node_at(2, 2);
        let far = sim.core().time() + 10_000;
        let slot = VcRef {
            router: node,
            port: Direction::North,
            vc: 0,
        };
        assert!(sim.core().vc_is_free(slot), "pick an idle corner VC");
        sim.core_mut().set_drain_for_test(slot, far);
        let report = sim.audit_now().expect("bogus draining slot must be caught");
        assert!(report
            .violations
            .iter()
            .any(|v| v.class == AuditClass::VcLegality && v.detail.contains("draining")));
        sim.core_mut().set_drain_for_test(slot, 0);
        assert!(sim.audit_now().is_none(), "clean again after repair");

        // (2) A packet parked in a VC of the wrong vnet (vnet residency).
        // Step the sim until the snapshot instant catches a vnet-0 packet in
        // a VC with a free vnet-1 slot beside it, then move it across.
        let vcs_per_vnet = sim.core().config().vcs_per_vnet;
        let mut moved = false;
        'search: for _ in 0..2_000 {
            sim.run(1);
            for router in sim.core().topology().mesh().nodes() {
                for port in sb_topology::DIRECTIONS {
                    for vc in 0..vcs_per_vnet {
                        // Only consider vnet-0 VCs; relocate into a vnet-1 VC.
                        let r = VcRef { router, port, vc };
                        let occupied = sim.core().vc_occupant(r).is_some_and(|p| p.vnet == 0);
                        let dst = VcRef {
                            router,
                            port,
                            vc: vcs_per_vnet, // first VC of vnet 1
                        };
                        if occupied && sim.core().vc_is_free(dst) {
                            let ready = sim.core().vc_ready_at(r).expect("checked occupied");
                            let h = sim.core_mut().vc_clear(r).expect("checked occupied");
                            sim.core_mut().vc_put(dst, h, ready);
                            moved = true;
                            break 'search;
                        }
                    }
                }
            }
        }
        assert!(moved, "a vnet-0 packet must be in flight at this load");
        let report = sim.audit_now().expect("wrong-vnet resident must be caught");
        assert!(report
            .violations
            .iter()
            .any(|v| v.class == AuditClass::VcLegality && v.detail.contains("vnet")));
    }

    #[test]
    fn auditor_catches_seeded_wakeup_violation() {
        let mut sim = loaded_sim(0.2, 7);
        sim.run(300);
        let in_flight = sim.core().resident().packets;
        assert!(in_flight > 0, "traffic must be in flight");
        assert!(sim.audit_now().is_none());
        // Wipe the worklist: every in-flight packet's router becomes
        // quiescent-blocked even though a fresh scan would grant it
        // something — exactly the silent divergence a missed wake causes.
        sim.core_mut().clear_active_for_test();
        let report = sim.audit_now().expect("emptied worklist must be caught");
        assert!(report
            .violations
            .iter()
            .any(|v| v.class == AuditClass::Wakeup && v.detail.contains("missed wake")));
    }

    #[test]
    fn violation_displays_class_and_detail() {
        let v = Violation {
            class: AuditClass::Conservation,
            router: None,
            detail: "demo".into(),
        };
        assert_eq!(format!("{v}"), "[conservation] demo");
        let v = Violation {
            class: AuditClass::Wakeup,
            router: Some(NodeId(3)),
            detail: "stuck".into(),
        };
        assert!(format!("{v}").contains("wakeup"));
    }
}
