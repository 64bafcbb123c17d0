//! The raw network state: routers, VCs, bubbles, queues, clock, statistics.
//!
//! `NetCore` is deliberately separated from the [`crate::Simulator`] engine
//! so that [`crate::Plugin`] implementations can receive `&mut NetCore`
//! without aliasing the engine's own state.
//!
//! # Data layout (the SoA refactor)
//!
//! All hot allocation state lives in flat struct-of-arrays tables instead of
//! per-router nested structs:
//!
//! * Regular VC slots are five parallel arrays (`vc_occ`, `vc_ready`,
//!   `vc_drain`, `vc_head`, `vc_pkt`) indexed by the **flat vc id**
//!   `(router * 4 + port) * vcs_per_port + vc` ([`NetCore::flat_vc`]).
//!   A slot's occupant is a 4-byte [`PacketHandle`] into the shared
//!   [`PacketArena`] (`NONE` = empty); `vc_drain == 0` means fully free,
//!   `vc_drain == until` means the previous occupant's tail streams out
//!   until cycle `until` (every real drain deadline is `>= 1` because
//!   packets are at least one flit long). `vc_head` caches the occupant's
//!   desired output (0–3 = [`Direction::index`], 4 = ejection) so the
//!   allocator never chases the packet pointer during candidate collection;
//!   `vc_pkt` caches its id, so that a plugin watching one packet (Static
//!   Bubble's detection, through [`NetCore::vc_resident`]) need not either.
//! * Each router's allocation words share one cache line ([`RouterWords`]):
//!   the occupancy word (bit `port * vcs + vc` set iff that VC is
//!   occupied) and five request words splitting it by the occupant's head
//!   byte. The allocator's candidate masks are the request words minus the
//!   occupants still in the hop pipeline, one AND-NOT per output.
//! * `out_busy`/`rr` are flat `router * 5 + out` arrays (4 directions +
//!   ejection).
//! * Bubble state is a set of parallel per-router arrays mirroring the VC
//!   fields plus the activation attach point.
//!
//! The arbitration index space per router (round-robin order) is unchanged
//! from the AoS layout: VC `port * vcs + vc`, bubble `4 * vcs`, injection
//! queue of vnet `v` at `4 * vcs + 1 + v` — and must fit in one 64-bit
//! candidate mask, which [`NetCore::new`] asserts.

use crate::arena::{PacketArena, PacketHandle};
use crate::config::SimConfig;
use crate::packet::{Packet, PacketId};
use crate::plugin::{InputRef, OutPort};
use crate::stats::{Stats, MAX_VNETS};
use crate::vc::VcRef;
use sb_routing::Route;
use sb_topology::{Direction, NodeId, NodeSet, Topology, DIRECTIONS};
use serde::Serialize;
use std::collections::VecDeque;

/// Index of the ejection "link" in per-output busy arrays.
pub(crate) const EJECT: usize = 4;

/// The `vc_head`/`bub_head` byte meaning "wants ejection".
pub(crate) const HEAD_EJECT: u8 = EJECT as u8;

/// Slots in the time-indexed wake wheel. Wake delays are clamped to
/// `WHEEL_SLOTS - 1` cycles, so a slot is always drained before it can be
/// reused and an entry can never be delivered late. A clamped (premature)
/// wake is harmless: the woken router finds nothing switchable and simply
/// re-schedules its next wake. One slot per bit of `Sched::wheel_occ`.
const WHEEL_SLOTS: usize = u64::BITS as usize;

/// The desired-output head byte of `pkt` (0–3 = direction index, 4 = eject).
pub(crate) fn head_of(pkt: &Packet) -> u8 {
    match pkt.desired_hop() {
        Some(d) => d.index() as u8,
        None => HEAD_EJECT,
    }
}

/// Census of packets resident in the network, produced by
/// [`NetCore::resident`]. Split into in-network (VCs + bubbles) and
/// source-queue populations, with flit totals and per-vnet breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Resident {
    /// Packets in VCs and bubbles.
    pub packets: u64,
    /// Flits of those packets.
    pub flits: u64,
    /// Packets waiting in source queues.
    pub queued_packets: u64,
    /// Flits of those packets.
    pub queued_flits: u64,
    /// Per-vnet breakdown of `packets`.
    pub packets_vnet: [u64; MAX_VNETS],
    /// Per-vnet breakdown of `queued_packets`.
    pub queued_packets_vnet: [u64; MAX_VNETS],
}

/// An offered packet waiting in an injection-queue tail: a plain
/// descriptor, not yet routed and not yet in the arena. Route stamping,
/// id-to-`Packet` materialization and arena insertion are deferred until
/// the descriptor reaches the head of its queue — under saturation a
/// source queues far more packets than it ever injects, and the deferred
/// work dominates the per-offer cost.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct QueuedPacket {
    /// Packet id, assigned in offer order at the NI.
    pub(crate) id: PacketId,
    /// Destination router (the source is the queue's own node).
    pub(crate) dst: NodeId,
    /// Virtual network.
    pub(crate) vnet: u8,
    /// Length in flits.
    pub(crate) len_flits: u16,
    /// Offer cycle (becomes the packet's `created_at` on materialization).
    pub(crate) created_at: u64,
    /// A route pre-stamped by reconfiguration, consumed on materialization.
    /// Boxed because it is `None` for every descriptor outside the rare
    /// reconfigure window, and a saturated source accumulates millions of
    /// descriptors — the indirection keeps the struct at 32 bytes.
    pub(crate) route: Option<Box<Route>>,
}

/// One per-node, per-vnet injection queue. Only the **head** is
/// materialized — routed, arena-resident, and competing for the crossbar;
/// the tail holds [`QueuedPacket`] descriptors in offer order. Invariant:
/// a non-empty tail implies a materialized head.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct InjectQueue {
    /// Arena handle of the head packet (`NONE` = queue empty).
    pub(crate) head: PacketHandle,
    /// Descriptors behind the head, in offer order.
    pub(crate) tail: VecDeque<QueuedPacket>,
}

impl Default for InjectQueue {
    fn default() -> Self {
        InjectQueue {
            head: PacketHandle::NONE,
            tail: VecDeque::new(),
        }
    }
}

impl InjectQueue {
    /// Total packets waiting (materialized head + descriptor tail).
    pub(crate) fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.tail.len()
    }

    /// No head and no tail.
    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none() && self.tail.is_empty()
    }
}

/// The complete mutable state of the simulated network, in two halves.
///
/// The **architectural** half, `arch`, is what a chip would hold and is all
/// that reaches the wire: its field list is the one list of what a snapshot
/// holds of the network. The **scheduler** half, `sched`, is a function of
/// it (`NetCore::rebuild_sched` derives it, for construction and for the
/// auditor to compare against), so an index added there cannot change the
/// snapshot format.
#[derive(Debug, Clone)]
pub struct NetCore {
    pub(crate) arch: Arch,
    pub(crate) sched: Sched,
}

/// The architectural half of [`NetCore`], and its wire form.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Arch {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) time: u64,
    /// Flat VC occupant handles, indexed by [`NetCore::flat_vc`].
    pub(crate) vc_occ: Vec<PacketHandle>,
    /// First cycle the occupant's head is switchable (valid iff occupied).
    pub(crate) vc_ready: Vec<u64>,
    /// Credit-return deadline of the previous occupant; `0` = fully free.
    /// Meaningful only while unoccupied (a put resets it to `0`).
    pub(crate) vc_drain: Vec<u64>,
    /// Output link busy-until times, flat `router * 5 + out`.
    pub(crate) out_busy: Vec<u64>,
    /// Round-robin pointers per output, flat `router * 5 + out`.
    pub(crate) rr: Vec<u32>,
    /// Does the router have a static-bubble buffer at all?
    pub(crate) bub_exists: Vec<bool>,
    /// When active, the (input port, vnet) the bubble serves.
    pub(crate) bub_attach: Vec<Option<(Direction, u8)>>,
    /// Bubble occupant handle (`NONE` = empty).
    pub(crate) bub_occ: Vec<PacketHandle>,
    /// Bubble occupant readiness (valid iff occupied).
    pub(crate) bub_ready: Vec<u64>,
    /// Bubble credit-return deadline (`0` = fully free).
    pub(crate) bub_drain: Vec<u64>,
    /// Every live packet, owned exactly once; all buffers hold handles.
    pub(crate) arena: PacketArena,
    /// Injection queues, flat `router * vnets + vnet` (head materialized in
    /// the arena, tail kept as plain descriptors). See
    /// [`NetCore::inject_idx`].
    pub(crate) inject: Vec<InjectQueue>,
    pub(crate) stats: Stats,
    /// Packets delivered per destination router (measurement window).
    pub(crate) delivered_per_node: Vec<u64>,
    pub(crate) next_pkt: u64,
}

/// A router's allocation words, aligned to share one cache line: what a
/// put or a take updates and what a scan reads. Bits are rr indices
/// `port * vcs + vc` over the router's mesh-port VCs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(64))]
pub(crate) struct RouterWords {
    /// Bit `i` is set iff VC `i` holds a packet.
    pub(crate) occ: u64,
    /// Request words: bit `i` of `req[out]` is set iff VC `i` holds a
    /// packet whose cached head wants output `out` (0–3 = direction index,
    /// 4 = ejection). Written by [`NetCore::mark`] and by a restamp.
    pub(crate) req: [u64; 5],
}

/// What the stepping loop keeps about the architectural tables so it need
/// not re-read them: caches, indices and the pending-wake bookkeeping.
/// Deliberately carries no serde derive (CI greps for one).
#[derive(Debug, Clone, Default)]
pub(crate) struct Sched {
    /// Cached `cfg.vcs_per_port()`.
    vcs: usize,
    /// Cached desired output of each VC's occupant (valid iff occupied).
    pub(crate) vc_head: Vec<u8>,
    /// Cached id of each VC's occupant (valid iff occupied).
    pub(crate) vc_pkt: Vec<PacketId>,
    /// Cached desired output of the bubble occupant (valid iff occupied).
    pub(crate) bub_head: Vec<u8>,
    /// Each router's occupancy and request words.
    pub(crate) words: Vec<RouterWords>,
    /// The routers whose occupancy word is non-zero. Written only by
    /// [`NetCore::mark`], under `vc_put`, `vc_take` and `vc_clear`.
    pub(crate) occupied: NodeSet,
    /// Routers that may produce an allocation grant *this cycle*: the
    /// switch allocator consumes the set each cycle and a router re-enters
    /// only through an event that can create a new candidate — a mutation
    /// calling [`NetCore::touch`], a buffer change waking the feeding
    /// neighbour, or a timed wake from the wheel maturing. The set is a
    /// conservative over-approximation of the routers the reference full
    /// sweep would grant at, and a sweep that grants nothing has no side
    /// effects, so scanning only this set in ascending id order is
    /// behaviourally identical to scanning `0..n`.
    active: NodeSet,
    /// Double-buffer for the allocator's per-cycle snapshot of `active`
    /// (swapped in [`NetCore::begin_scan`], returned in
    /// [`NetCore::end_scan`]).
    scan_set: NodeSet,
    /// Time-indexed wake wheel: slot `t % WHEEL_SLOTS` holds routers to
    /// re-enter the scan set at cycle `t`: the cycle an event takes effect,
    /// not the cycle it was scheduled — an arriving packet's `ready_at`, a
    /// granted buffer's drain deadline (for its feeder), and whatever a
    /// blocked router found to wait for (out-busy expiry, draining credit,
    /// occupant finishing its hop pipeline). Entries are never cancelled —
    /// a stale wake is consumed in one empty scan.
    pub(crate) wheel: Vec<Vec<NodeId>>,
    /// Bit `s` is set iff wheel slot `s` is non-empty ([`NetCore::wake_at`]
    /// sets, [`NetCore::drain_wheel`] clears).
    pub(crate) wheel_occ: u64,
    /// Scratch for the allocator's freed-bubble list (reused every cycle).
    pub(crate) freed_scratch: Vec<NodeId>,
}

impl Serialize for NetCore {
    fn to_value(&self) -> Result<serde::Value, serde::Error> {
        self.arch.to_value()
    }
}

impl NetCore {
    /// Build the network over `topo`, creating a static-bubble buffer at
    /// each router in `bubble_routers` (empty for the baselines).
    pub fn new(topo: &Topology, cfg: SimConfig, bubble_routers: &[NodeId]) -> Self {
        assert!(
            (cfg.vnets as usize) <= MAX_VNETS,
            "at most {MAX_VNETS} vnets supported (per-vnet conservation counters)"
        );
        let n = topo.mesh().node_count();
        let vcs = cfg.vcs_per_port();
        assert!(
            cfg.arbitration_slots() <= u64::BITS as usize,
            "per-router arbitration space (4 ports x {vcs} VCs + bubble + {} vnets) \
             must fit one u64 candidate mask",
            cfg.vnets
        );
        let slots = n * 4 * vcs;
        let arch = Arch {
            topo: topo.clone(),
            cfg,
            time: 0,
            vc_occ: vec![PacketHandle::NONE; slots],
            vc_ready: vec![0; slots],
            vc_drain: vec![0; slots],
            out_busy: vec![0; n * 5],
            rr: vec![0; n * 5],
            bub_exists: (0..n)
                .map(|i| bubble_routers.contains(&NodeId::from(i)))
                .collect(),
            bub_attach: vec![None; n],
            bub_occ: vec![PacketHandle::NONE; n],
            bub_ready: vec![0; n],
            bub_drain: vec![0; n],
            arena: PacketArena::with_capacity(4 * n),
            inject: vec![InjectQueue::default(); n * cfg.vnets as usize],
            stats: Stats::new(),
            delivered_per_node: vec![0; n],
            next_pkt: 0,
        };
        let mut core = NetCore {
            arch,
            sched: Sched::default(),
        };
        core.sched = core.rebuild_sched();
        core
    }

    /// The scheduler half the architectural half implies — the one function
    /// that builds a [`Sched`], at construction and for the auditor to
    /// compare against: occupancy and request words and head
    /// bytes from the occupant tables, the wheel empty, every router in the
    /// scan set (the allocator prunes the idle ones on its first pass). What
    /// [`NetCore::wake_all`] does when wake bookkeeping is invalidated, and
    /// sound for the same reason: a scan that grants nothing has no side
    /// effects, and a blocked router re-arms its own timed wake.
    pub(crate) fn rebuild_sched(&self) -> Sched {
        let (n, vcs) = (self.arch.bub_occ.len(), self.arch.cfg.vcs_per_port());
        let mut sched = Sched {
            vcs,
            vc_head: vec![0; n * 4 * vcs],
            vc_pkt: vec![PacketId::default(); n * 4 * vcs],
            bub_head: vec![0; n],
            words: vec![RouterWords::default(); n],
            occupied: NodeSet::new(n),
            active: NodeSet::full(n),
            scan_set: NodeSet::new(n),
            wheel: vec![Vec::new(); WHEEL_SLOTS],
            wheel_occ: 0,
            freed_scratch: Vec::new(),
        };
        if self.arch.arena.is_empty() {
            return sched; // a network just built: no occupant to index
        }
        for (flat, &h) in self.arch.vc_occ.iter().enumerate() {
            if h.is_some() {
                let (router, bit) = (flat / (4 * vcs), 1 << (flat % (4 * vcs)));
                let pkt = self.arch.arena.get(h);
                let head = head_of(pkt);
                sched.vc_head[flat] = head;
                sched.vc_pkt[flat] = pkt.id;
                let words = &mut sched.words[router];
                words.occ |= bit;
                words.req[head as usize] |= bit;
                sched.occupied.insert(NodeId::from(router));
            }
        }
        for (r, &h) in self.arch.bub_occ.iter().enumerate() {
            if h.is_some() {
                sched.bub_head[r] = head_of(self.arch.arena.get(h));
            }
        }
        sched
    }

    /// Current cycle.
    pub fn time(&self) -> u64 {
        self.arch.time
    }

    pub(crate) fn advance_time(&mut self) {
        self.arch.time += 1;
    }

    /// Jump the clock forward by `gap` dead cycles at once, in O(1). The
    /// caller — [`crate::Simulator`]'s run loops — is responsible for
    /// proving the skipped cycles are
    /// no-ops: empty runnable set, no wheel maturity, no traffic arrival,
    /// no plugin timer strictly before `time + gap`. The skipped cycles
    /// still count as simulated time, so `Stats` stays bit-identical to a
    /// stepped run.
    pub(crate) fn leap(&mut self, gap: u64) {
        debug_assert!(
            (self.next_wheel_event()).is_none_or(|at| at >= self.arch.time + gap),
            "a leap crossed a wheel maturity"
        );
        self.arch.time += gap;
        self.arch.stats.cycles += gap;
    }

    /// The earliest cycle (`>= time`, i.e. possibly due already) at which a
    /// time-wheel entry matures, or `None` if the wheel is empty. Entries
    /// are never stale: the wheel is drained every executed cycle and leaps
    /// never cross a maturity, so every resident entry lies within
    /// `[time, time + WHEEL_SLOTS)` and slot distance is unambiguous: with
    /// the occupancy word rotated so the slot due now is bit 0, the lowest
    /// set bit is the distance to the next maturity.
    pub(crate) fn next_wheel_event(&self) -> Option<u64> {
        let ahead =
            (self.sched.wheel_occ).rotate_right((self.arch.time % WHEEL_SLOTS as u64) as u32);
        (ahead != 0).then(|| self.arch.time + u64::from(ahead.trailing_zeros()))
    }

    /// The network configuration.
    pub fn config(&self) -> SimConfig {
        self.arch.cfg
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.arch.topo
    }

    /// Statistics of the current measurement window.
    pub fn stats(&self) -> &Stats {
        &self.arch.stats
    }

    /// Mutable statistics (plugins account special-message traffic here).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.arch.stats
    }

    /// Packets delivered per destination router since the last measurement
    /// reset.
    pub fn delivered_per_node(&self) -> &[u64] {
        &self.arch.delivered_per_node
    }

    pub(crate) fn record_delivery(&mut self, dst: NodeId) {
        self.arch.delivered_per_node[dst.index()] += 1;
    }

    /// Reset the measurement window (stats and per-node counters).
    ///
    /// Packets already resident in the network or its source queues were
    /// *offered* before the window opened but will deliver (or drop, or be
    /// lost) inside it. Their offers are carried into the fresh window so
    /// `offered = in-network + delivered + dropped + lost` holds at every
    /// instant and [`Stats::acceptance`] can never exceed 1.0 on a drained
    /// run. In-network packets also seed `injected_packets`, since they
    /// already left their source queue.
    pub fn reset_measurement(&mut self) {
        let res = self.resident();
        self.arch.stats.reset_measurement();
        self.arch.stats.offered_packets = res.packets + res.queued_packets;
        self.arch.stats.offered_flits = res.flits + res.queued_flits;
        self.arch.stats.injected_packets = res.packets;
        for v in 0..MAX_VNETS {
            self.arch.stats.offered_packets_vnet[v] =
                res.packets_vnet[v] + res.queued_packets_vnet[v];
        }
        self.arch.delivered_per_node.fill(0);
    }

    /// One-pass census of packets resident in the network (VCs and bubbles)
    /// and waiting in source queues, with flit totals and per-vnet packet
    /// breakdowns. Used by the measurement-window carry and the conservation
    /// audit.
    pub(crate) fn resident(&self) -> Resident {
        fn count(res: &mut Resident, pkt: &Packet, queued: bool) {
            if queued {
                res.queued_packets += 1;
                res.queued_flits += pkt.len_flits as u64;
                res.queued_packets_vnet[pkt.vnet as usize] += 1;
            } else {
                res.packets += 1;
                res.flits += pkt.len_flits as u64;
                res.packets_vnet[pkt.vnet as usize] += 1;
            }
        }
        let mut res = Resident::default();
        for r in 0..self.arch.topo.mesh().node_count() {
            let base = r * 4 * self.sched.vcs;
            let mut mask = self.sched.words[r].occ;
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let h = self.arch.vc_occ[base + i];
                count(&mut res, self.arch.arena.get(h), false);
            }
            if self.arch.bub_occ[r].is_some() {
                count(&mut res, self.arch.arena.get(self.arch.bub_occ[r]), false);
            }
        }
        for q in &self.arch.inject {
            if q.head.is_some() {
                count(&mut res, self.arch.arena.get(q.head), true);
            }
            // Tail descriptors are not arena-resident; census them from
            // their own fields.
            for e in &q.tail {
                res.queued_packets += 1;
                res.queued_flits += e.len_flits as u64;
                res.queued_packets_vnet[e.vnet as usize] += 1;
            }
        }
        res
    }

    /// Build `router`'s per-output candidate masks: bit `i` of `cand[out]`
    /// is set iff the buffer at rr index `i` holds a switchable head that
    /// wants output `out` (0–3 = direction index, 4 = ejection). The VC
    /// bits are the router's request words minus the occupants still in the
    /// hop pipeline — the packet itself is only dereferenced for
    /// injection-queue heads. Returns the earliest `ready_at` among
    /// occupants still in the hop pipeline, if any.
    ///
    /// Reads **only this router's rows** of the SoA tables (occupancy and
    /// request words, VC/bubble ready times, its own injection-queue heads)
    /// plus the current time, never a neighbor's state.
    pub fn candidate_masks(&self, router: NodeId, cand: &mut [u64; 5]) -> Option<u64> {
        let vcs = self.sched.vcs;
        let t = self.arch.time;
        let r = router.index();
        let base = self.vc_base(router);
        let mut next_ready: Option<u64> = None;
        let mut waiting = 0u64;
        let words = &self.sched.words[r];
        let mut mask = words.occ;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let ready = self.arch.vc_ready[base + i];
            if ready > t {
                waiting |= 1u64 << i;
                if next_ready.is_none_or(|w| ready < w) {
                    next_ready = Some(ready);
                }
            }
        }
        for (c, want) in cand.iter_mut().zip(words.req) {
            *c |= want & !waiting;
        }
        if self.arch.bub_occ[r].is_some() {
            let ready = self.arch.bub_ready[r];
            if ready <= t {
                cand[self.sched.bub_head[r] as usize] |= 1u64 << (4 * vcs);
            } else if next_ready.is_none_or(|w| ready < w) {
                next_ready = Some(ready);
            }
        }
        for vnet in 0..self.arch.cfg.vnets as usize {
            let h = self.arch.inject[r * self.arch.cfg.vnets as usize + vnet].head;
            if h.is_some() {
                cand[head_of(self.arch.arena.get(h)) as usize] |= 1u64 << (4 * vcs + 1 + vnet);
            }
        }
        next_ready
    }

    /// Jain's fairness index over per-node deliveries of **alive, receiving**
    /// routers: 1.0 = perfectly even service, → 1/n under total starvation
    /// of all but one node. `None` before any delivery.
    pub fn delivery_fairness(&self) -> Option<f64> {
        let values: Vec<f64> = self
            .arch
            .topo
            .alive_nodes()
            .map(|n| self.arch.delivered_per_node[n.index()] as f64)
            .collect();
        let sum: f64 = values.iter().sum();
        if sum == 0.0 {
            return None;
        }
        let sq_sum: f64 = values.iter().map(|v| v * v).sum();
        Some(sum * sum / (values.len() as f64 * sq_sum))
    }

    // ------------------------------------------------------------------
    // Active-router worklist
    // ------------------------------------------------------------------

    /// Mark `router` as possibly able to grant, (re-)entering it into the
    /// allocator's scan set for the upcoming cycle.
    ///
    /// Every `NetCore` mutation path that can create an allocation
    /// candidate calls this already; plugins that grow their own side
    /// channels into the network — or whose [`crate::Plugin::allow_grant`]
    /// / [`crate::Plugin::pick_slot`] answers change through internal state
    /// alone — must call it for every router their mutation may unblock
    /// (see the wakeup invariant on [`crate::Plugin`]). Spurious touches
    /// are harmless — a router that still cannot grant is dropped again
    /// after one scan.
    pub fn touch(&mut self, router: NodeId) {
        self.sched.active.insert(router);
    }

    /// Schedule `router` to re-enter the scan set at cycle `at`
    /// (immediately if `at` is not in the future). Used by the allocator
    /// for *timed* unblocking events: out-busy expiries, draining buffers
    /// returning their credit, occupants finishing the hop pipeline.
    /// Delays beyond the wheel horizon are clamped, which only wakes the
    /// router early: it re-schedules after an empty scan.
    pub fn wake_at(&mut self, router: NodeId, at: u64) {
        if at <= self.arch.time {
            self.touch(router);
            return;
        }
        let at = at.min(self.arch.time + (WHEEL_SLOTS as u64 - 1));
        let slot = (at % WHEEL_SLOTS as u64) as usize;
        self.sched.wheel[slot].push(router);
        self.sched.wheel_occ |= 1 << slot;
    }

    /// Move every router whose wake time has matured into the scan set.
    /// Called once per cycle by the allocator before it snapshots the set.
    pub(crate) fn drain_wheel(&mut self) {
        let slot = (self.arch.time % WHEEL_SLOTS as u64) as usize;
        if self.sched.wheel_occ >> slot & 1 == 0 {
            return;
        }
        self.sched.wheel_occ &= !(1 << slot);
        let mut due = std::mem::take(&mut self.sched.wheel[slot]);
        for r in due.drain(..) {
            self.sched.active.insert(r);
        }
        self.sched.wheel[slot] = due;
    }

    /// Re-enter every router into the scan set. Used when wake bookkeeping
    /// is invalidated wholesale: a plugin swap, a switch back from the
    /// reference full-sweep mode, a topology reconfiguration.
    pub(crate) fn wake_all(&mut self) {
        self.sched.active.fill();
    }

    /// Empty the scan set. **Test hook only**: this
    /// deliberately violates the wakeup invariant so audit tests can seed a
    /// "quiescent-blocked router with a grantable candidate" violation.
    #[cfg(test)]
    pub(crate) fn clear_active_for_test(&mut self) {
        self.sched.active.clear();
    }

    /// Take the per-cycle snapshot of the active set for the allocator to
    /// walk (word-scan via [`NodeSet::first_set_from`]), leaving a cleared
    /// set to collect this cycle's touches. Pair with [`NetCore::end_scan`].
    pub(crate) fn begin_scan(&mut self) -> NodeSet {
        std::mem::swap(&mut self.sched.active, &mut self.sched.scan_set);
        std::mem::replace(&mut self.sched.scan_set, NodeSet::new(0))
    }

    /// Return the (consumed) snapshot taken by [`NetCore::begin_scan`] so
    /// its storage is reused next cycle.
    pub(crate) fn end_scan(&mut self, mut scan: NodeSet) {
        scan.clear();
        self.sched.scan_set = scan;
    }

    /// Wake the router that feeds packets into `(router, port)` right away:
    /// the receiving side changed in a way the upstream allocator can use
    /// (or must re-read) next cycle — a slot forced free, a bubble attached
    /// or detached, a re-stamped occupant. The one timed credit, a grant's
    /// drain deadline, is scheduled by [`NetCore::vc_take`] itself. The
    /// feeder is the *alive* neighbour: nothing crosses a dead link, and the
    /// reconfiguration that revives one wakes every router.
    fn wake_feeder(&mut self, router: NodeId, port: Direction) {
        if let Some(feeder) = self.arch.topo.neighbor(router, port) {
            self.sched.active.insert(feeder);
        }
    }

    /// Is `router` in the allocator's scan set?
    pub fn is_active(&self, router: NodeId) -> bool {
        self.sched.active.contains(router)
    }

    /// Number of routers in the allocator's scan set.
    pub fn active_count(&self) -> usize {
        self.sched.active.len()
    }

    // ------------------------------------------------------------------
    // VC accessors (flat SoA tables)
    // ------------------------------------------------------------------

    /// The flat index of `vc` into the SoA VC tables:
    /// `(router * 4 + port) * vcs_per_port + vc`.
    #[inline]
    pub(crate) fn flat_vc(&self, vc: VcRef) -> usize {
        (vc.router.index() * 4 + vc.port.index()) * self.sched.vcs + vc.vc as usize
    }

    /// First flat index of `router`'s VC block (`4 * vcs_per_port` slots).
    pub(crate) fn vc_base(&self, router: NodeId) -> usize {
        router.index() * 4 * self.sched.vcs
    }

    /// The packet occupying `vc`, if any.
    pub fn vc_occupant(&self, vc: VcRef) -> Option<&Packet> {
        let h = self.arch.vc_occ[self.flat_vc(vc)];
        h.is_some().then(|| self.arch.arena.get(h))
    }

    /// The id of the packet occupying `vc` and the output it waits for
    /// (`None`: ejection), if any — read off the scheduler's columns, so
    /// the packet itself is not touched.
    #[inline(always)]
    pub fn vc_resident(&self, vc: VcRef) -> Option<(PacketId, Option<Direction>)> {
        let (r, bit) = self.slot_bit(vc);
        if self.sched.words[r].occ & bit == 0 {
            return None;
        }
        let flat = self.flat_vc(vc);
        let wants = match self.sched.vc_head[flat] {
            HEAD_EJECT => None,
            d => Some(Direction::from_index(d as usize)),
        };
        Some((self.sched.vc_pkt[flat], wants))
    }

    /// The occupant's first switchable cycle, if `vc` is occupied.
    pub(crate) fn vc_ready_at(&self, vc: VcRef) -> Option<u64> {
        let flat = self.flat_vc(vc);
        let occupied = self.arch.vc_occ[flat].is_some();
        occupied.then(|| self.arch.vc_ready[flat])
    }

    /// Is `vc` allocatable right now (empty and done draining)?
    pub fn vc_is_free(&self, vc: VcRef) -> bool {
        let flat = self.flat_vc(vc);
        self.arch.vc_occ[flat].is_none() && self.arch.vc_drain[flat] <= self.arch.time
    }

    /// The credit-return deadline of `vc`, if it is unoccupied and a
    /// previous occupant's tail is (or was) still streaming out. A deadline
    /// `<= now` has already expired: the slot is allocatable.
    pub fn vc_draining_until(&self, vc: VcRef) -> Option<u64> {
        let flat = self.flat_vc(vc);
        (self.arch.vc_occ[flat].is_none() && self.arch.vc_drain[flat] != 0)
            .then(|| self.arch.vc_drain[flat])
    }

    /// The router of `vc`, and the slot's bit in that router's occupancy
    /// and request words.
    #[inline]
    fn slot_bit(&self, vc: VcRef) -> (usize, u64) {
        let i = vc.port.index() * self.sched.vcs + vc.vc as usize;
        (vc.router.index(), 1u64 << i)
    }

    /// Record `vc` as holding a packet whose head is `head`, or as empty
    /// (`head` then names the request word the slot leaves), in its
    /// router's occupancy and request words. The occupied-router set moves
    /// only when the occupancy word leaves or reaches zero.
    #[inline(always)]
    fn mark(&mut self, vc: VcRef, head: u8, occupied: bool) {
        let (r, bit) = self.slot_bit(vc);
        let words = &mut self.sched.words[r];
        if occupied {
            words.req[head as usize] |= bit;
            if words.occ == 0 {
                self.sched.occupied.insert(vc.router);
            }
            words.occ |= bit;
        } else {
            words.req[head as usize] &= !bit;
            words.occ &= !bit;
            if words.occ == 0 {
                self.sched.occupied.remove(vc.router);
            }
        }
    }

    /// Install the packet behind `h` into `vc`, switchable from `ready_at`
    /// — which is when the router re-enters the allocator's scan set: the
    /// occupant cannot be a candidate earlier. The feeding neighbour is not
    /// woken: a put consumes a credit, it never creates one.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not free at the current cycle.
    pub fn vc_put(&mut self, vc: VcRef, h: PacketHandle, ready_at: u64) {
        let flat = self.flat_vc(vc);
        assert!(
            self.arch.vc_occ[flat].is_none() && self.arch.vc_drain[flat] <= self.arch.time,
            "put() into non-free slot {vc:?}"
        );
        self.arch.vc_occ[flat] = h;
        self.arch.vc_ready[flat] = ready_at;
        self.arch.vc_drain[flat] = 0;
        let pkt = self.arch.arena.get(h);
        let head = head_of(pkt);
        self.sched.vc_head[flat] = head;
        self.sched.vc_pkt[flat] = pkt.id;
        self.mark(vc, head, true);
        self.wake_at(vc.router, ready_at);
    }

    /// Insert `pkt` into the arena and install it into `vc` (a test/tool
    /// convenience over [`NetCore::vc_put`]). Returns the new handle.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not free at the current cycle.
    pub fn place_packet(&mut self, vc: VcRef, pkt: Packet, ready_at: u64) -> PacketHandle {
        let h = self.arch.arena.insert(pkt);
        self.vc_put(vc, h, ready_at);
        h
    }

    /// Remove the occupant of `vc` for a grant, leaving the slot draining
    /// until the packet's tail has streamed out (`now + len_flits`). The
    /// feeding (alive) neighbour is woken at the drain deadline, the first
    /// cycle the slot is a credit it can use, if it holds a packet that
    /// wants the output crossing into this port: a feeder whose packets all
    /// go elsewhere, or that holds none, and later comes to hold one that
    /// wants it is woken at that packet's `ready_at` (or touched), finds the
    /// slot draining and notes the deadline itself when it blocks. Whether
    /// the granting router is scanned again is the allocator's decision.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is unoccupied.
    pub(crate) fn vc_take(&mut self, vc: VcRef) -> PacketHandle {
        let flat = self.flat_vc(vc);
        let h = self.arch.vc_occ[flat];
        assert!(h.is_some(), "take() on non-occupied slot {vc:?}");
        let len = self.arch.arena.get(h).len_flits as u64;
        self.arch.vc_occ[flat] = PacketHandle::NONE;
        self.arch.vc_drain[flat] = self.arch.time + len;
        self.mark(vc, self.sched.vc_head[flat], false);
        if let Some(feeder) = self.arch.topo.neighbor(vc.router, vc.port) {
            if self.wants(feeder, vc.port.opposite().index() as u8) {
                self.wake_at(feeder, self.arch.time + len);
            }
        }
        h
    }

    /// Does `router` hold a packet whose head wants output `out`: a VC
    /// occupant (its request word), the bubble occupant or an
    /// injection-queue head? Occupants still in the hop pipeline count.
    fn wants(&self, router: NodeId, out: u8) -> bool {
        let r = router.index();
        if self.sched.words[r].req[out as usize] != 0 {
            return true;
        }
        if self.arch.bub_occ[r].is_some() && self.sched.bub_head[r] == out {
            return true;
        }
        let vnets = self.arch.cfg.vnets as usize;
        let queues = &self.arch.inject[r * vnets..][..vnets];
        queues
            .iter()
            .any(|q| q.head.is_some() && head_of(self.arch.arena.get(q.head)) == out)
    }

    /// Force `vc` fully free (no drain), returning the evicted occupant's
    /// handle if there was one. Used when a packet is *lost* (its buffer
    /// never streamed a tail) and by tests that move occupants around.
    pub fn vc_clear(&mut self, vc: VcRef) -> Option<PacketHandle> {
        let flat = self.flat_vc(vc);
        let h = self.arch.vc_occ[flat];
        self.arch.vc_occ[flat] = PacketHandle::NONE;
        self.arch.vc_drain[flat] = 0;
        self.mark(vc, self.sched.vc_head[flat], false);
        self.touch(vc.router);
        self.wake_feeder(vc.router, vc.port);
        h.is_some().then_some(h)
    }

    /// Remove the occupant of `vc` from the network entirely (no draining
    /// credit), returning the owned packet. The packet leaves the arena,
    /// so conservation counters must be adjusted by the caller if stats
    /// are being audited. Used by tests that stage and then unstage
    /// packets by hand.
    pub fn remove_packet(&mut self, vc: VcRef) -> Option<Packet> {
        let h = self.vc_clear(vc)?;
        Some(self.arch.arena.remove(h))
    }

    /// Overwrite the drain deadline of an **unoccupied** `vc`. Test hook
    /// only: audit tests use it to seed a never-expiring drain violation
    /// (`until = 0` restores the slot to fully free).
    ///
    /// # Panics
    ///
    /// Panics if `vc` is occupied.
    #[cfg(test)]
    pub(crate) fn set_drain_for_test(&mut self, vc: VcRef, until: u64) {
        let flat = self.flat_vc(vc);
        assert!(
            self.arch.vc_occ[flat].is_none(),
            "set_drain_for_test on occupied slot {vc:?}"
        );
        self.arch.vc_drain[flat] = until;
        self.touch(vc.router);
        self.wake_feeder(vc.router, vc.port);
    }

    /// Iterate over every VC reference of `router`'s mesh ports.
    pub(crate) fn vc_refs(&self, router: NodeId) -> impl Iterator<Item = VcRef> + '_ {
        let vcs = self.arch.cfg.vcs_per_port() as u8;
        DIRECTIONS
            .into_iter()
            .flat_map(move |port| (0..vcs).map(move |vc| VcRef { router, port, vc }))
    }

    /// The unoccupied VCs of `(router, port)` as a word: bit `vc` is set
    /// iff that slot holds no packet (it may still be draining). On a full
    /// port — the common case past the knee — the word is zero and a probe
    /// over its set bits reads no per-VC state at all.
    pub(crate) fn empty_vcs(&self, router: NodeId, port: Direction) -> u64 {
        (!self.sched.words[router.index()].occ >> (port.index() * self.sched.vcs))
            & ((1u64 << self.sched.vcs) - 1)
    }

    /// Could `(router, port)` take a packet at all: has it an unoccupied VC
    /// (perhaps still draining), or the router's bubble attached there and
    /// unoccupied? By the slot contract of [`crate::Plugin::pick_slot`],
    /// `false` means every plugin refuses every packet at this port, so the
    /// allocator asks before its winner search dereferences any packet.
    #[inline]
    pub(crate) fn port_has_room(&self, router: NodeId, port: Direction) -> bool {
        let r = router.index();
        self.empty_vcs(router, port) != 0
            || (self.arch.bub_occ[r].is_none()
                && matches!(self.arch.bub_attach[r], Some((p, _)) if p == port))
    }

    /// First allocatable VC (empty and done draining) among the flat
    /// indices `range` at `(router, port)`, if any. Visits the clear bits of
    /// the occupancy word in ascending order, so the first hit is the one a
    /// slot-by-slot probe of `range` would return.
    pub(crate) fn first_free_vc_in(
        &self,
        router: NodeId,
        port: Direction,
        range: std::ops::Range<u8>,
    ) -> Option<u8> {
        let base = self.vc_base(router) + port.index() * self.sched.vcs;
        let in_range = ((1u64 << range.len()) - 1) << range.start;
        let mut empty = self.empty_vcs(router, port) & in_range;
        while empty != 0 {
            let i = empty.trailing_zeros() as usize;
            empty &= empty - 1;
            if self.arch.vc_drain[base + i] <= self.arch.time {
                return Some(i as u8);
            }
        }
        None
    }

    /// First free regular VC of `vnet` at `(router, port)`, if any.
    pub fn first_free_regular_vc(&self, router: NodeId, port: Direction, vnet: u8) -> Option<u8> {
        self.first_free_vc_in(router, port, self.arch.cfg.vcs_of_vnet(vnet))
    }

    /// Does `(router, port)` have any buffer a packet of `vnet` could be
    /// granted into right now — a free regular VC of the vnet's group, or
    /// the router's bubble attached there for it? By the slot contract of
    /// [`crate::Plugin::pick_slot`], `false` means every plugin answers
    /// `None` for every packet of `vnet` at this port.
    pub(crate) fn vnet_has_free_slot(&self, router: NodeId, port: Direction, vnet: u8) -> bool {
        self.first_free_regular_vc(router, port, vnet).is_some()
            || self.bubble_available(router, port, vnet)
    }

    /// Are **all** VCs of `vnet` at `(router, port)` occupied? (The probe
    /// fork condition of Section IV-A.)
    pub fn all_vcs_occupied(&self, router: NodeId, port: Direction, vnet: u8) -> bool {
        let range = self.arch.cfg.vcs_of_vnet(vnet);
        let lo = port.index() * self.sched.vcs + range.start as usize;
        let need = ((1u64 << (range.end - range.start)) - 1) << lo;
        self.sched.words[router.index()].occ & need == need
    }

    /// The set of outputs wanted by head packets of `vnet` at
    /// `(router, port)` whose heads are switchable.
    pub fn wanted_outputs(&self, router: NodeId, port: Direction, vnet: u8) -> Vec<OutPort> {
        let base = self.vc_base(router) + port.index() * self.sched.vcs;
        let mut out = Vec::new();
        for i in self.arch.cfg.vcs_of_vnet(vnet) {
            let flat = base + i as usize;
            if self.arch.vc_occ[flat].is_some() {
                let want = match self.sched.vc_head[flat] {
                    HEAD_EJECT => OutPort::Eject,
                    d => OutPort::Dir(Direction::from_index(d as usize)),
                };
                if !out.contains(&want) {
                    out.push(want);
                }
            }
        }
        out
    }

    /// `router`'s VC occupancy word: bit `port * vcs_per_port + vc` is set
    /// iff that VC holds a packet. Lets plugins visit occupied slots in
    /// ascending `(port, vc)` order without probing the empty ones.
    pub fn occupancy_mask(&self, router: NodeId) -> u64 {
        self.sched.words[router.index()].occ
    }

    /// The routers with at least one occupied mesh-port VC (the non-zero
    /// occupancy words), for hooks that walk occupied state word by word.
    pub fn occupied_routers(&self) -> &NodeSet {
        &self.sched.occupied
    }

    /// Does any mesh-port VC of `router` hold a packet?
    pub fn any_occupied(&self, router: NodeId) -> bool {
        self.sched.words[router.index()].occ != 0
    }

    /// Number of occupied mesh-port VCs at `router`.
    pub(crate) fn occupied_vcs(&self, router: NodeId) -> u32 {
        self.sched.words[router.index()].occ.count_ones()
    }

    /// Number of packets resident in VCs and bubbles (not source queues).
    pub fn in_flight(&self) -> usize {
        self.sched
            .words
            .iter()
            .map(|w| w.occ.count_ones() as usize)
            .sum::<usize>()
            + self.arch.bub_occ.iter().filter(|h| h.is_some()).count()
    }

    /// Number of packets waiting in source queues (materialized heads plus
    /// unmaterialized tail descriptors).
    pub fn queued(&self) -> usize {
        self.arch.inject.iter().map(InjectQueue::len).sum()
    }

    /// Number of injection-queue heads currently materialized in the arena.
    /// Queue tails are plain descriptors and hold no arena slot, so the
    /// arena census is `in-network packets + queued_heads()`, not
    /// `+ queued()`.
    pub(crate) fn queued_heads(&self) -> usize {
        self.arch.inject.iter().filter(|q| q.head.is_some()).count()
    }

    /// Flat index of node `node`'s vnet-`vnet` injection queue (stride
    /// `vnets`, mirroring the flat VC id scheme).
    pub(crate) fn inject_idx(&self, node: NodeId, vnet: u8) -> usize {
        node.index() * self.arch.cfg.vnets as usize + vnet as usize
    }

    // ------------------------------------------------------------------
    // Bubble control (used by the Static Bubble plugin)
    // ------------------------------------------------------------------

    /// Does `router` have a static-bubble buffer?
    pub fn has_bubble(&self, router: NodeId) -> bool {
        self.arch.bub_exists[router.index()]
    }

    /// The (input port, vnet) the bubble at `router` is attached to, if the
    /// router has a bubble and it is active.
    pub fn bubble_attach(&self, router: NodeId) -> Option<(Direction, u8)> {
        self.arch.bub_attach[router.index()]
    }

    /// The packet occupying the bubble at `router`, if any.
    pub fn bubble_occupant(&self, router: NodeId) -> Option<&Packet> {
        let h = self.arch.bub_occ[router.index()];
        h.is_some().then(|| self.arch.arena.get(h))
    }

    /// Activate the bubble at `router`, attaching it to `(port, vnet)`.
    ///
    /// # Panics
    ///
    /// Panics if the router has no bubble or the bubble is occupied.
    pub fn bubble_activate(&mut self, router: NodeId, port: Direction, vnet: u8) {
        let r = router.index();
        assert!(self.has_bubble(router), "{router} has no static bubble");
        assert!(
            self.arch.bub_occ[r].is_none(),
            "activating an occupied bubble at {router}"
        );
        self.arch.bub_attach[r] = Some((port, vnet));
        self.touch(router);
        // The feeder of the attach port gained a slot it can send into.
        self.wake_feeder(router, port);
    }

    /// Deactivate the bubble at `router` (it stops accepting packets; an
    /// occupant, if any, still drains normally).
    ///
    /// # Panics
    ///
    /// Panics if the router has no bubble.
    pub fn bubble_deactivate(&mut self, router: NodeId) {
        let r = router.index();
        assert!(self.has_bubble(router), "{router} has no static bubble");
        let old = self.arch.bub_attach[r].take();
        // Conservative wakes: eligibility of the bubble as an input (this
        // router) and as a destination slot (the old attach feeder) changed.
        self.touch(router);
        if let Some((port, _)) = old {
            self.wake_feeder(router, port);
        }
    }

    /// Remove and return the bubble occupant's `(handle, ready_at)` at
    /// `router`, if any, leaving the bubble slot fully free (used for the
    /// paper's intra-router bubble→VC relocation, footnote 6).
    pub fn bubble_take_occupant(&mut self, router: NodeId) -> Option<(PacketHandle, u64)> {
        self.touch(router);
        let r = router.index();
        let h = self.arch.bub_occ[r];
        if h.is_none() {
            return None;
        }
        let ready = self.arch.bub_ready[r];
        self.arch.bub_occ[r] = PacketHandle::NONE;
        self.arch.bub_drain[r] = 0;
        // The freed (and still attached) bubble is a new credit upstream.
        if let Some((port, _)) = self.arch.bub_attach[r] {
            self.wake_feeder(router, port);
        }
        Some((h, ready))
    }

    /// Is the bubble at `router` active for `(port, vnet)` and free?
    pub fn bubble_available(&self, router: NodeId, port: Direction, vnet: u8) -> bool {
        let r = router.index();
        self.arch.bub_attach[r] == Some((port, vnet))
            && self.arch.bub_occ[r].is_none()
            && self.arch.bub_drain[r] <= self.arch.time
    }

    /// Install the packet behind `h` into the bubble at `router`. Engine
    /// path: the receiving router is woken at `ready_at` (as for
    /// [`NetCore::vc_put`]) and its feeder is not — an occupied bubble is
    /// not a credit.
    ///
    /// # Panics
    ///
    /// Panics if the bubble is not free at the current cycle.
    pub(crate) fn bubble_put(&mut self, router: NodeId, h: PacketHandle, ready_at: u64) {
        let r = router.index();
        assert!(
            self.arch.bub_occ[r].is_none() && self.arch.bub_drain[r] <= self.arch.time,
            "put() into non-free bubble at {router}"
        );
        self.arch.bub_occ[r] = h;
        self.arch.bub_ready[r] = ready_at;
        self.arch.bub_drain[r] = 0;
        self.sched.bub_head[r] = head_of(self.arch.arena.get(h));
        self.wake_at(router, ready_at);
    }

    /// Remove the bubble occupant for a grant, leaving the slot draining
    /// until `now + len_flits`. No wakes: the grant's commit path touches
    /// the granting router itself, and the freed-bubble plugin callback
    /// handles upstream credit.
    ///
    /// # Panics
    ///
    /// Panics if the bubble is unoccupied.
    pub(crate) fn bubble_take(&mut self, router: NodeId) -> PacketHandle {
        let r = router.index();
        let h = self.arch.bub_occ[r];
        assert!(h.is_some(), "take() on empty bubble at {router}");
        let len = self.arch.arena.get(h).len_flits as u64;
        self.arch.bub_occ[r] = PacketHandle::NONE;
        self.arch.bub_drain[r] = self.arch.time + len;
        h
    }

    // ------------------------------------------------------------------
    // Arena access
    // ------------------------------------------------------------------

    /// The packet arena (every live packet, addressed by handle).
    pub(crate) fn arena(&self) -> &PacketArena {
        &self.arch.arena
    }

    /// Mutable access to a resident packet (used by the escape-VC plugin to
    /// re-stamp routes); the cached desired-output head is refreshed after
    /// the closure runs. Returns `None` (without running `f`) if the buffer
    /// is empty or `input` is an injection queue. The holding router
    /// re-enters the allocator's scan set.
    pub fn with_packet_mut<R>(
        &mut self,
        input: InputRef,
        f: impl FnOnce(&mut Packet) -> R,
    ) -> Option<R> {
        match input {
            InputRef::Vc(v) => {
                let flat = self.flat_vc(v);
                let h = self.arch.vc_occ[flat];
                if h.is_none() {
                    return None;
                }
                let out = f(self.arch.arena.get_mut(h));
                // The slot's request bit follows its new head.
                let (r, bit) = self.slot_bit(v);
                let head = head_of(self.arch.arena.get(h));
                let req = &mut self.sched.words[r].req;
                req[self.sched.vc_head[flat] as usize] &= !bit;
                req[head as usize] |= bit;
                self.sched.vc_head[flat] = head;
                self.touch(v.router);
                self.wake_feeder(v.router, v.port);
                Some(out)
            }
            InputRef::Bubble(b) => {
                let r = b.index();
                let h = self.arch.bub_occ[r];
                if h.is_none() {
                    return None;
                }
                let out = f(self.arch.arena.get_mut(h));
                self.sched.bub_head[r] = head_of(self.arch.arena.get(h));
                self.touch(b);
                Some(out)
            }
            InputRef::Inject { node, .. } => {
                self.touch(node);
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals shared with the engine
    // ------------------------------------------------------------------

    /// Swap the topology (runtime reconfiguration). The mesh must be
    /// unchanged; only alive/dead state may differ.
    pub(crate) fn set_topology(&mut self, topo: &Topology) {
        let mesh = self.arch.topo.mesh();
        assert_eq!(mesh, topo.mesh(), "reconfigure keeps the mesh");
        self.arch.topo = topo.clone();
        // Reconfiguration rewrites buffers and liveness wholesale; wake
        // everything and let the allocator re-prune.
        self.wake_all();
    }

    pub(crate) fn fresh_packet_id(&mut self) -> PacketId {
        let id = PacketId(self.arch.next_pkt);
        self.arch.next_pkt += 1;
        id
    }

    /// The packet held at `input`, if any and if its head is switchable.
    pub(crate) fn packet_at(&self, input: InputRef) -> Option<&Packet> {
        let h = match input {
            InputRef::Vc(v) => self.arch.vc_occ[self.flat_vc(v)],
            InputRef::Bubble(r) => self.arch.bub_occ[r.index()],
            InputRef::Inject { node, vnet } => self.arch.inject[self.inject_idx(node, vnet)].head,
        };
        h.is_some().then(|| self.arch.arena.get(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NewPacket;
    use sb_routing::Route;
    use sb_topology::Mesh;

    fn core_with_bubble() -> (NetCore, NodeId) {
        let topo = Topology::full(Mesh::new(4, 4));
        let node = NodeId(5);
        (NetCore::new(&topo, SimConfig::default(), &[node]), node)
    }

    fn dummy_packet(id: u64, vnet: u8) -> Packet {
        packet_of_len(id, vnet, 5)
    }

    fn packet_of_len(id: u64, vnet: u8, len_flits: u16) -> Packet {
        packet_towards(id, vnet, len_flits, Direction::East)
    }

    /// A packet whose head wants output `towards`.
    fn packet_towards(id: u64, vnet: u8, len_flits: u16, towards: Direction) -> Packet {
        Packet::new(
            PacketId(id),
            NewPacket {
                src: NodeId(0),
                dst: NodeId(1),
                vnet,
                len_flits,
            },
            Route::new(vec![towards]),
            0,
        )
    }

    /// Step the clock to `t`, maturing the wheel at every cycle on the way
    /// as the allocator does.
    fn advance_to(core: &mut NetCore, t: u64) {
        while core.time() < t {
            core.advance_time();
            core.drain_wheel();
        }
    }

    #[test]
    fn fresh_core_is_empty() {
        let (core, _) = core_with_bubble();
        assert_eq!(core.in_flight(), 0);
        assert_eq!(core.queued(), 0);
        assert!(!core.any_occupied(NodeId(0)));
        assert_eq!(core.vc_refs(NodeId(0)).count(), 4 * 12);
        assert!(core.arena().is_empty());
    }

    #[test]
    fn bubble_lifecycle() {
        let (mut core, node) = core_with_bubble();
        assert!(core.has_bubble(node));
        assert!(!core.has_bubble(NodeId(0)));
        assert!(!core.bubble_available(node, Direction::South, 0));
        core.bubble_activate(node, Direction::South, 0);
        assert!(core.bubble_available(node, Direction::South, 0));
        assert!(!core.bubble_available(node, Direction::North, 0));
        core.bubble_deactivate(node);
        assert!(!core.bubble_available(node, Direction::South, 0));
    }

    #[test]
    #[should_panic(expected = "no static bubble")]
    fn bubble_activate_without_bubble_panics() {
        let (mut core, _) = core_with_bubble();
        core.bubble_activate(NodeId(0), Direction::South, 0);
    }

    #[test]
    fn occupancy_queries() {
        let (mut core, _) = core_with_bubble();
        let r = NodeId(9);
        // Fill all vnet-1 VCs at the North port.
        for vc in core.config().vcs_of_vnet(1) {
            core.place_packet(
                VcRef {
                    router: r,
                    port: Direction::North,
                    vc,
                },
                dummy_packet(vc as u64, 1),
                0,
            );
        }
        assert!(core.all_vcs_occupied(r, Direction::North, 1));
        assert!(!core.all_vcs_occupied(r, Direction::North, 0));
        assert_eq!(core.first_free_regular_vc(r, Direction::North, 1), None);
        assert!(core.first_free_regular_vc(r, Direction::North, 0).is_some());
        assert_eq!(
            core.wanted_outputs(r, Direction::North, 1),
            vec![OutPort::Dir(Direction::East)]
        );
        assert!(core.any_occupied(r));
        assert_eq!(core.in_flight(), 4);
        assert_eq!(core.occupied_vcs(r), 4);
        assert_eq!(core.arena().len(), 4);
    }

    #[test]
    fn vc_take_leaves_a_draining_credit() {
        let (mut core, _) = core_with_bubble();
        let vref = VcRef {
            router: NodeId(9),
            port: Direction::North,
            vc: 0,
        };
        let h = core.place_packet(vref, dummy_packet(1, 0), 3);
        assert_eq!(core.vc_ready_at(vref), Some(3));
        assert_eq!(core.arch.vc_occ[core.flat_vc(vref)], h);
        assert!(!core.vc_is_free(vref));
        let taken = core.vc_take(vref);
        assert_eq!(taken, h);
        // 5-flit packet taken at t=0: draining until cycle 5.
        assert_eq!(core.vc_draining_until(vref), Some(5));
        assert!(!core.vc_is_free(vref));
        assert!(!core.any_occupied(NodeId(9)));
    }

    /// Router 9's North-port VC 0 on the 4x4 mesh, and the neighbour that
    /// feeds that port.
    fn slot_and_feeder(core: &NetCore) -> (VcRef, NodeId) {
        let vref = VcRef {
            router: NodeId(9),
            port: Direction::North,
            vc: 0,
        };
        let feeder = core.topology().neighbor(vref.router, vref.port);
        (vref, feeder.expect("interior"))
    }

    /// Give `feeder` a packet to send towards `vref`'s port (switchable at
    /// once, so no wheel entry), then empty the scan set.
    fn load_feeder(core: &mut NetCore, feeder: NodeId, vref: VcRef) {
        let slot = VcRef {
            router: feeder,
            port: Direction::West,
            vc: 0,
        };
        let pkt = packet_towards(99, 0, 5, vref.port.opposite());
        core.place_packet(slot, pkt, core.time());
        core.clear_active_for_test();
    }

    #[test]
    fn a_router_across_a_dead_link_is_not_a_feeder() {
        let mut topo = Topology::full(Mesh::new(4, 4));
        let vref = VcRef {
            router: NodeId(9),
            port: Direction::North,
            vc: 0,
        };
        let across = topo.neighbor(vref.router, vref.port).expect("interior");
        topo.remove_link(vref.router, vref.port);
        let mut core = NetCore::new(&topo, SimConfig::default(), &[]);
        // The router the dead link used to join holds a packet for it, so
        // only the fault keeps it from being woken.
        load_feeder(&mut core, across, vref);
        // A packet the fault stranded at the dead port still leaves through
        // the crossbar, but nobody can use the credit it returns.
        core.place_packet(vref, dummy_packet(1, 0), 0);
        core.clear_active_for_test();
        core.vc_take(vref);
        assert_eq!(core.active_count(), 0, "a take touches no router");
        assert_eq!(core.next_wheel_event(), None, "no feeder to wake");
        core.vc_clear(vref);
        assert_eq!(core.active_count(), 1, "only the router itself");
        assert!(core.is_active(vref.router));
    }

    #[test]
    fn a_take_wakes_a_feeder_wanting_the_port_at_the_drain_deadline() {
        let (mut core, _) = core_with_bubble();
        let (vref, feeder) = slot_and_feeder(&core);
        core.place_packet(vref, dummy_packet(1, 0), 0);
        load_feeder(&mut core, feeder, vref);
        core.vc_take(vref); // 5 flits at t = 0: the credit returns at 5
        assert!(!core.is_active(vref.router), "re-entry is the allocator's");
        assert!(!core.is_active(feeder));
        advance_to(&mut core, 4);
        assert!(!core.is_active(feeder), "no credit to use before 5");
        advance_to(&mut core, 5);
        assert!(core.is_active(feeder));
        assert!(core.vc_is_free(vref));
    }

    /// A take wakes the feeder only if it holds a packet for the output
    /// that crosses into the freed port: in a VC (its request word), in its
    /// bubble, or at an injection-queue head. Packets that all go elsewhere
    /// are no reason to wake it, and neither is holding none.
    #[test]
    fn a_take_wakes_no_feeder_whose_packets_all_want_other_outputs() {
        let (core, _) = core_with_bubble();
        let (vref, feeder) = slot_and_feeder(&core);
        let into_port = vref.port.opposite();
        let elsewhere = vref.port; // any output but `into_port`

        // Whether a 5-flit take at `vref` schedules a wake at all.
        let woken = |core: &NetCore| {
            let mut core = core.clone();
            core.place_packet(vref, dummy_packet(1, 0), core.time());
            core.clear_active_for_test();
            core.vc_take(vref);
            core.next_wheel_event().is_some()
        };
        assert!(!woken(&core), "an empty feeder");
        // One packet of each kind the feeder can send, first going elsewhere
        // and then towards the port.
        type Load = fn(&mut NetCore, NodeId, Packet);
        let kinds: [(&str, Load); 3] = [
            ("a VC occupant", |core, feeder, pkt| {
                let slot = VcRef {
                    router: feeder,
                    port: Direction::West,
                    vc: 0,
                };
                core.place_packet(slot, pkt, core.time());
            }),
            ("a bubble occupant", |core, feeder, pkt| {
                let h = core.arch.arena.insert(pkt);
                core.arch.bub_exists[feeder.index()] = true;
                core.bubble_put(feeder, h, core.time());
            }),
            ("an injection-queue head", |core, feeder, pkt| {
                let qi = core.inject_idx(feeder, 1);
                core.arch.inject[qi].head = core.arch.arena.insert(pkt);
            }),
        ];
        for (kind, load) in kinds {
            let mut away = core.clone();
            load(&mut away, feeder, packet_towards(2, 1, 5, elsewhere));
            assert!(!woken(&away), "{kind} going elsewhere");
            let mut towards = core.clone();
            load(&mut towards, feeder, packet_towards(2, 1, 5, into_port));
            assert!(woken(&towards), "{kind} wanting the port");
        }
    }

    #[test]
    fn a_put_wakes_the_receiver_when_the_head_is_switchable() {
        let (mut core, _) = core_with_bubble();
        let (vref, feeder) = slot_and_feeder(&core);
        core.clear_active_for_test();
        core.place_packet(vref, dummy_packet(1, 0), 2);
        assert_eq!(core.active_count(), 0, "nothing to switch before 2");
        advance_to(&mut core, 1);
        assert!(!core.is_active(vref.router));
        advance_to(&mut core, 2);
        assert!(core.is_active(vref.router));
        assert!(!core.is_active(feeder), "a put is not a credit");
    }

    #[test]
    fn wakes_are_never_late() {
        let (mut core, _) = core_with_bubble();
        let (vref, feeder) = slot_and_feeder(&core);
        advance_to(&mut core, 3);
        core.clear_active_for_test();
        // A head already switchable (`ready_at <= now`) wakes at once.
        core.place_packet(vref, packet_of_len(1, 0, 200), 3);
        assert!(core.is_active(vref.router));
        // A 200-flit tail drains past the 64-slot wheel horizon: a feeder
        // with a packet for the port is woken early, at the horizon, where
        // the block path re-arms it.
        load_feeder(&mut core, feeder, vref);
        core.vc_take(vref);
        assert_eq!(core.vc_draining_until(vref), Some(203));
        assert_eq!(core.next_wheel_event(), Some(3 + WHEEL_SLOTS as u64 - 1));
        advance_to(&mut core, 3 + WHEEL_SLOTS as u64 - 1);
        assert!(core.is_active(feeder));
    }

    /// The 64-slot scan `next_wheel_event` used to be, kept as its oracle.
    fn next_wheel_event_by_scan(core: &NetCore) -> Option<u64> {
        let cur = (core.arch.time % WHEEL_SLOTS as u64) as usize;
        let due = |(slot, _): (usize, _)| {
            core.arch.time + ((slot + WHEEL_SLOTS - cur) % WHEEL_SLOTS) as u64
        };
        let filled = (core.sched.wheel.iter().enumerate()).filter(|(_, due)| !due.is_empty());
        filled.map(due).min()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Whatever puts, takes, clears, restamps, wakes and ticks do, the
        /// wheel word answers as the slot scan does, every index equals its
        /// rebuild (the request words included), and
        /// rebuilding changes nothing a reader of the caches can see.
        fn the_indices_follow_random_mutations(seed in proptest::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut core, _) = core_with_bubble();
            for step in 0..300u64 {
                let router = NodeId(rng.gen_range(0..16u16));
                let port = DIRECTIONS[rng.gen_range(0..4usize)];
                let vref = VcRef { router, port, vc: rng.gen_range(0..12u8) };
                match rng.gen_range(0..7u32) {
                    0 | 1 if core.vc_is_free(vref) => {
                        let ready_at = core.arch.time + rng.gen_range(0..3u64);
                        core.place_packet(vref, dummy_packet(step, 0), ready_at);
                    }
                    2 if core.vc_occupant(vref).is_some() => {
                        let h = core.vc_take(vref);
                        core.arch.arena.remove(h);
                    }
                    3 => drop(core.remove_packet(vref)),
                    4 => core.wake_at(router, core.arch.time + rng.gen_range(0..100u64)),
                    5 if core.vc_occupant(vref).is_some() => {
                        let towards = DIRECTIONS[rng.gen_range(0..4usize)];
                        let route = Route::new(vec![towards]);
                        core.with_packet_mut(InputRef::Vc(vref), |p| {
                            p.restamp(route, crate::packet::PacketMode::Normal)
                        });
                    }
                    _ => {
                        let next = core.arch.time + 1;
                        advance_to(&mut core, next);
                    }
                }
                proptest::prop_assert_eq!(core.next_wheel_event(), next_wheel_event_by_scan(&core));
                let mut violations = Vec::new();
                crate::audit::check_derived(&core, &mut violations);
                proptest::prop_assert!(violations.is_empty(), "{:?}", violations);
            }
            let mut rebuilt = core.clone();
            rebuilt.sched = rebuilt.rebuild_sched();
            proptest::prop_assert_eq!(rebuilt.next_wheel_event(), None);
            proptest::prop_assert_eq!(rebuilt.active_count(), 16);
            for router in core.topology().mesh().nodes() {
                let (mut had, mut has) = ([0u64; 5], [0u64; 5]);
                core.candidate_masks(router, &mut had);
                rebuilt.candidate_masks(router, &mut has);
                proptest::prop_assert_eq!(had, has);
            }
        }
    }

    #[test]
    fn free_slot_probes_follow_the_occupancy_word() {
        let (mut core, node) = core_with_bubble();
        let port = Direction::South;
        let at = |vc| VcRef {
            router: node,
            port,
            vc,
        };
        // vnet 1 owns VCs 4..8. Occupy 4 and 6, leave 5 draining.
        core.place_packet(at(4), dummy_packet(1, 1), 0);
        core.place_packet(at(5), dummy_packet(2, 1), 0);
        core.place_packet(at(6), dummy_packet(3, 1), 0);
        core.vc_take(at(5));
        assert_eq!(core.empty_vcs(node, port), 0xfff & !0b0101_0000);
        assert_eq!(core.first_free_regular_vc(node, port, 1), Some(7));
        assert_eq!(core.first_free_vc_in(node, port, 4..7), None);
        assert_eq!(core.first_free_regular_vc(node, port, 0), Some(0));
        core.place_packet(at(7), dummy_packet(4, 1), 0);
        assert!(!core.vnet_has_free_slot(node, port, 1));
        assert!(core.vnet_has_free_slot(node, port, 2));
        // An attached free bubble is a buffer of its (port, vnet).
        core.bubble_activate(node, port, 1);
        assert!(core.vnet_has_free_slot(node, port, 1));
        core.bubble_deactivate(node);
        assert!(!core.vnet_has_free_slot(node, port, 1));
        // The draining slot frees by time alone.
        advance_to(&mut core, 5);
        assert_eq!(core.first_free_regular_vc(node, port, 1), Some(5));
    }
}
