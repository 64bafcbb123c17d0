//! The packet arena: a slab store with generational handles.
//!
//! Every live packet in the simulation — resident in a VC, sitting in a
//! static bubble, or queued at a source NI — lives in exactly one
//! [`PacketArena`] slot and is referred to everywhere else by a 4-byte
//! [`PacketHandle`]. Moving a packet across the network moves the handle,
//! not the `Packet` (whose stamped [`sb_routing::Route`] owns a heap
//! allocation); the payload is touched only when a field is actually read.
//!
//! # Lifetime rules
//!
//! A handle is minted by [`PacketArena::insert`] and dies at the matching
//! [`PacketArena::remove`] — which the engine calls at exactly two points:
//! delivery (ejection) and loss/drop during reconfiguration. Any handle
//! copy that outlives that removal *dangles*. Slots are recycled through a
//! free list, so a dangling handle's index may point at a different, newer
//! packet; the per-slot generation counter catches this: every `remove`
//! bumps the slot's generation, and every dereference checks the handle's
//! stamped generation against the slot's. A stale dereference panics
//! instead of silently reading the wrong packet. (The generation is 8 bits,
//! so a slot must be recycled exactly 256 times between the copy and the
//! stale use for a mismatch to go undetected — and the conservation audit
//! independently cross-checks the live-slot count against the buffer census
//! every audited cycle.)

use crate::packet::Packet;
use serde::Serialize;

/// Bits of a [`PacketHandle`] used for the slot index (the rest hold the
/// generation). 16.7M concurrently-live packets bounds any reachable
/// simulation (a 64×64 mesh with every VC, bubble and a 4000-deep queue per
/// node is still an order of magnitude smaller).
const INDEX_BITS: u32 = 24;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;

/// A 4-byte generational reference to a packet in a `PacketArena`:
/// 24 bits of slot index, 8 bits of generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PacketHandle(u32);

impl PacketHandle {
    /// The reserved "no packet" sentinel, used by the flat VC tables for
    /// empty slots. Never minted by `PacketArena::insert`.
    pub(crate) const NONE: PacketHandle = PacketHandle(u32::MAX);

    /// Is this the [`PacketHandle::NONE`] sentinel?
    pub(crate) fn is_none(self) -> bool {
        self == Self::NONE
    }

    /// Is this a real (non-sentinel) handle?
    pub(crate) fn is_some(self) -> bool {
        self != Self::NONE
    }

    fn new(index: usize, gen: u8) -> Self {
        assert!(
            index < INDEX_MASK as usize,
            "packet arena overflow: {index} live packets"
        );
        PacketHandle((gen as u32) << INDEX_BITS | index as u32)
    }

    fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }

    fn generation(self) -> u8 {
        (self.0 >> INDEX_BITS) as u8
    }
}

impl Default for PacketHandle {
    fn default() -> Self {
        Self::NONE
    }
}

/// Slab storage for every live [`Packet`], addressed by [`PacketHandle`].
///
/// Serializes losslessly — slots, generations and the free list all travel
/// — so an [`crate::EngineSnapshot`] names every handle the tables hold.
#[derive(Debug, Clone, Default, Serialize)]
pub(crate) struct PacketArena {
    slots: Vec<Option<Packet>>,
    gens: Vec<u8>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// An empty arena with room for `cap` packets before regrowing.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        PacketArena {
            slots: Vec::with_capacity(cap),
            gens: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Store `pkt` and return its handle.
    pub(crate) fn insert(&mut self, pkt: Packet) -> PacketHandle {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            let i = i as usize;
            debug_assert!(self.slots[i].is_none());
            self.slots[i] = Some(pkt);
            PacketHandle::new(i, self.gens[i])
        } else {
            let i = self.slots.len();
            self.slots.push(Some(pkt));
            self.gens.push(0);
            PacketHandle::new(i, 0)
        }
    }

    /// The packet behind `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is [`PacketHandle::NONE`], dangles (its slot was
    /// freed), or is stale (its slot was freed and recycled — generation
    /// mismatch).
    #[inline]
    #[track_caller]
    pub(crate) fn get(&self, h: PacketHandle) -> &Packet {
        count_lookup();
        let live = self.gens.get(h.index()) == Some(&h.generation());
        match self.slots.get(h.index()) {
            Some(Some(pkt)) if live => pkt,
            _ => refuse(self.slots.len(), &self.gens, h),
        }
    }

    /// Mutable access to the packet behind `h`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PacketArena::get`].
    #[inline]
    #[track_caller]
    pub(crate) fn get_mut(&mut self, h: PacketHandle) -> &mut Packet {
        count_lookup();
        let live = self.gens.get(h.index()) == Some(&h.generation());
        let len = self.slots.len();
        match self.slots.get_mut(h.index()) {
            Some(Some(pkt)) if live => pkt,
            _ => refuse(len, &self.gens, h),
        }
    }

    /// Free `h`'s slot and return the packet by value. The slot's
    /// generation is bumped so every surviving copy of `h` becomes stale.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PacketArena::get`].
    #[track_caller]
    pub(crate) fn remove(&mut self, h: PacketHandle) -> Packet {
        let i = h.index();
        self.get(h);
        let pkt = self.slots[i].take().expect("checked live");
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(i as u32);
        self.live -= 1;
        pkt
    }

    /// Number of live packets.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Is the arena empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// The panic of a dereference through a handle that names no live packet:
/// out of line, so the generation check a dereference inlines is two loads
/// and a branch.
#[cold]
#[inline(never)]
#[track_caller]
fn refuse(slots: usize, gens: &[u8], h: PacketHandle) -> ! {
    assert!(h.is_some(), "dereferenced PacketHandle::NONE");
    let i = h.index();
    assert!(i < slots, "packet handle {i} out of arena bounds {slots}");
    panic!(
        "stale packet handle: slot {i} gen {} vs handle gen {} \
         (the packet was delivered or lost and the slot recycled)",
        gens[i],
        h.generation()
    );
}

/// Count one checked dereference (test builds only; see `LOOKUPS`).
#[inline(always)]
fn count_lookup() {
    #[cfg(test)]
    LOOKUPS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
thread_local! {
    /// Checked dereferences on this thread (tests read it around a run).
    pub(crate) static LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::packet::{NewPacket, PacketId};
    use crate::plugin::NullPlugin;
    use crate::traffic::{NoTraffic, UniformTraffic};
    use crate::vc::VcRef;
    use sb_routing::{Route, XyRouting};
    use sb_topology::{Direction, Mesh, NodeId, Topology};

    fn pkt(id: u64) -> Packet {
        Packet::new(
            PacketId(id),
            NewPacket {
                src: NodeId(0),
                dst: NodeId(1),
                vnet: 0,
                len_flits: 5,
            },
            Route::default(),
            0,
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = PacketArena::default();
        let h1 = a.insert(pkt(1));
        let h2 = a.insert(pkt(2));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1).id, PacketId(1));
        a.get_mut(h2).injected_at = 9;
        assert_eq!(a.get(h2).injected_at, 9);
        let out = a.remove(h1);
        assert_eq!(out.id, PacketId(1));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(h2).id, PacketId(2));
    }

    #[test]
    fn slots_are_recycled_with_fresh_generations() {
        let mut a = PacketArena::default();
        let h1 = a.insert(pkt(1));
        a.remove(h1);
        let h2 = a.insert(pkt(2));
        // Same slot, different generation: distinct handles.
        assert_ne!(h1, h2);
        assert_eq!(a.get(h2).id, PacketId(2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_after_recycle_panics() {
        let mut a = PacketArena::default();
        let h1 = a.insert(pkt(1));
        a.remove(h1);
        let _h2 = a.insert(pkt(2)); // recycles h1's slot
        a.get(h1);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn dangling_handle_without_recycle_panics() {
        let mut a = PacketArena::default();
        let h = a.insert(pkt(1));
        a.remove(h);
        a.get(h);
    }

    /// A handle the network minted before its packet left must not alias
    /// the recycled slot: the generation check panics on dereference.
    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_across_network_recycling_panics() {
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        let mut sim = Simulator::new(
            &topo,
            SimConfig::tiny(),
            Box::new(XyRouting::new(&topo)),
            NullPlugin,
            NoTraffic,
            0,
        );
        let slot = VcRef {
            router: mesh.node_at(0, 0),
            port: Direction::East,
            vc: 0,
        };
        let stale = sim.core_mut().place_packet(slot, pkt(1), 0);
        // Remove it (bumps the slot generation), then reuse the slot.
        sim.core_mut().remove_packet(slot).expect("just placed");
        let fresh = sim.core_mut().place_packet(slot, pkt(2), 0);
        assert_ne!(stale, fresh, "recycled slot carries a new generation");
        let _ = sim.core().arena().get(stale);
    }

    #[test]
    #[should_panic(expected = "dereferenced PacketHandle::NONE")]
    fn none_sentinel_panics() {
        let a = PacketArena::default();
        a.get(PacketHandle::NONE);
    }

    fn xy_sim(side: u16, rate: f64, seed: u64) -> Simulator<NullPlugin, UniformTraffic> {
        let topo = Topology::full(Mesh::new(side, side));
        let mut sim = Simulator::new(
            &topo,
            SimConfig::default(),
            Box::new(XyRouting::new(&topo)),
            NullPlugin,
            UniformTraffic::new(rate),
            seed,
        );
        sim.set_audit(1); // the census runs every cycle
        sim
    }

    /// A long audited run recycles arena slots: the live count tracks the
    /// buffer census every cycle (the auditor checks this at cadence 1), and
    /// the arena's slot table stays bounded by the peak in-flight population
    /// rather than the total offered population.
    #[test]
    fn arena_recycles_slots_under_sustained_traffic() {
        let mut sim = xy_sim(8, 0.1, 23);
        sim.run(3_000);
        let stats = sim.core().stats().clone();
        assert!(
            stats.delivered_packets > 500,
            "load must actually deliver packets ({})",
            stats.delivered_packets
        );
        let live = sim.core().arena().len();
        // Only in-network packets and materialized queue heads own arena
        // slots; unmaterialized tail descriptors do not.
        let in_net = sim.core().in_flight() + sim.core().queued_heads();
        assert_eq!(live, in_net, "arena census: live slots == buffered handles");
        // Thousands of packets flowed through; the slot table holds only the
        // high-water mark of simultaneously live ones.
        assert!(
            (live as u64) < stats.delivered_packets / 2,
            "slot table did not recycle: {live} live after {} delivered",
            stats.delivered_packets
        );
    }

    /// A grant reads its packet twice: once when the winner search picks
    /// it, once when the commit moves it (the take, the route step and the
    /// put share that read). On the saturated shape — up*/down* on a 16×16
    /// with 20 faulty links at UR 0.08, past its knee — every checked
    /// lookup of a run, less one for each candidate the search read and
    /// passed over, is at most two a grant.
    #[test]
    fn a_grant_reads_its_packet_twice() {
        use rand::SeedableRng;
        use sb_routing::UpDownRouting;
        use sb_topology::{FaultKind, FaultModel};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let topo = FaultModel::new(FaultKind::Links, 20).inject(Mesh::new(16, 16), &mut rng);
        let planner = Box::new(UpDownRouting::new(&topo));
        let traffic = UniformTraffic::new(0.08).single_vnet();
        let cfg = SimConfig::default();
        let mut sim = Simulator::new(&topo, cfg, planner, NullPlugin, traffic, 5);
        sim.run(2_000);
        let (k0, l0) = (sim.kernel_counters(), LOOKUPS.with(|n| n.get()));
        sim.run(2_000);
        let (k, lookups) = (sim.kernel_counters(), LOOKUPS.with(|n| n.get()) - l0);
        let grants = k.grants - k0.grants;
        let passed_over = (k.candidates_examined - k0.candidates_examined) - grants;
        assert!(grants > 10_000, "not saturated: {grants} grants");
        let per_grant = (lookups - passed_over) as f64 / grants as f64;
        assert!(
            per_grant <= 2.0,
            "{per_grant:.3} lookups a grant ({lookups} lookups, {grants} grants, \
             {passed_over} candidates passed over)"
        );
    }

    /// Draining the network empties the arena completely.
    #[test]
    fn arena_empties_when_the_network_drains() {
        let mut sim = xy_sim(6, 0.08, 5);
        sim.run(1_000);
        let mut sim = sim.replace_traffic(NoTraffic);
        assert!(sim.run_until_drained(50_000), "uniform XY traffic drains");
        assert!(
            sim.core().arena().is_empty(),
            "drained network, empty arena"
        );
    }
}
