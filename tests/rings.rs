//! Bubble Flow Control's premise (Section II-C): "as long as there is one
//! bubble within a dependence chain, there will be no deadlock and forward
//! progress can be made by flits" — checked on the real kernel, the
//! `Simulator` with the `StaticBubblePlugin`, on rings of n = 4..=24
//! routers.
//!
//! A ring is a 2×k mesh with its k−2 interior rungs cut. A mesh is
//! bipartite, so every ring in one is even.
//!
//! * Staged rows generalise Fig. 6's staging (`walkthrough.rs`): every ring
//!   VC in one direction holds a packet whose route continues two hops
//!   around the ring. With no bubble the ring is a stable deadlock; with
//!   one VC emptied it drains by itself (the BFC theorem); with one static
//!   bubble at any ring router the protocol recovers it.
//! * Organic rows are a proptest over ring size, VCs, uniform-random load
//!   and seed, with the auditor on and one bubble at (1,1).

use proptest::prelude::*;
use static_bubble_repro::core::{SbOptions, StaticBubblePlugin};
use static_bubble_repro::routing::{MinimalRouting, Route};
use static_bubble_repro::sim::{
    find_deadlock, InputRef, NewPacket, NoTraffic, Packet, PacketId, SimConfig, Simulator,
    TrafficSource, UniformTraffic, VcRef,
};
use static_bubble_repro::topology::{Direction, Mesh, NodeId, Topology};

/// t_DD of every row (the scenario default).
const TDD: u64 = 34;

/// Cycle budget of a staged drain; the slowest row takes about a tenth.
const DRAIN: u64 = 5_000;

/// Cycles after a staged drain for the enable to finish circulating.
const SETTLE: u64 = 200;

/// The ring sizes: a 2×2 mesh up to a 2×12 one.
fn sizes() -> impl Iterator<Item = usize> {
    (4..=24).step_by(2)
}

struct Ring {
    mesh: Mesh,
    topo: Topology,
    /// The routers in ring order: east along y = 0, west along y = 1.
    nodes: Vec<NodeId>,
    /// `out[i]`: the direction from `nodes[i]` to `nodes[i + 1]`.
    out: Vec<Direction>,
}

impl Ring {
    fn new(n: usize) -> Ring {
        let k = (n / 2) as u16;
        let mesh = Mesh::new(k, 2);
        let mut topo = Topology::full(mesh);
        for x in 1..k - 1 {
            topo.remove_link(mesh.node_at(x, 0), Direction::North);
        }
        let mut nodes: Vec<NodeId> = (0..k).map(|x| mesh.node_at(x, 0)).collect();
        nodes.extend((0..k).rev().map(|x| mesh.node_at(x, 1)));
        let out = (0..n)
            .map(|i| mesh.direction_between(nodes[i], nodes[(i + 1) % n]))
            .collect::<Option<Vec<_>>>()
            .expect("ring neighbours are mesh neighbours");
        Ring {
            mesh,
            topo,
            nodes,
            out,
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn sim<T: TrafficSource>(
        &self,
        vcs: u8,
        bubble: Option<NodeId>,
        traffic: T,
        seed: u64,
    ) -> Simulator<StaticBubblePlugin, T> {
        let bubbles: Vec<NodeId> = bubble.into_iter().collect();
        let cfg = SimConfig {
            vnets: 1,
            vcs_per_vnet: vcs,
            max_packet_flits: 5,
        };
        Simulator::new(
            &self.topo,
            cfg,
            Box::new(MinimalRouting::new(&self.topo)),
            StaticBubblePlugin::with_bubble_nodes(self.mesh, TDD, SbOptions::default(), &bubbles),
            traffic,
            seed,
        )
    }

    /// VC `vc` of `nodes[i]`'s input port from its ring predecessor.
    fn vc(&self, i: usize, vc: u8) -> VcRef {
        let n = self.len();
        VcRef {
            router: self.nodes[i],
            port: self.out[(i + n - 1) % n].opposite(),
            vc,
        }
    }

    /// Every ring VC in the forward direction holds a 5-flit packet bound
    /// two hops further round: the cycle Fig. 6 stages, on any ring.
    fn staged(&self, vcs: u8, bubble: Option<NodeId>) -> Simulator<StaticBubblePlugin, NoTraffic> {
        let n = self.len();
        let mut sim = self.sim(vcs, bubble, NoTraffic, 0);
        for i in 0..n {
            for vc in 0..vcs {
                let pkt = Packet::new(
                    PacketId((i * vcs as usize + vc as usize) as u64),
                    NewPacket {
                        src: self.nodes[i],
                        dst: self.nodes[(i + 2) % n],
                        vnet: 0,
                        len_flits: 5,
                    },
                    Route::new(vec![self.out[i], self.out[(i + 1) % n]]),
                    0,
                );
                sim.core_mut().place_packet(self.vc(i, vc), pkt, 0);
            }
        }
        sim
    }
}

#[test]
fn a_full_ring_without_a_bubble_stays_deadlocked() {
    for n in sizes() {
        for vcs in [1, 2] {
            let mut sim = Ring::new(n).staged(vcs, None);
            assert!(!find_deadlock(sim.core()).is_empty(), "n={n} vcs={vcs}");
            assert!(!sim.run_until_drained(5_000), "n={n} vcs={vcs}");
            assert_eq!(sim.core().stats().delivered_packets, 0, "n={n} vcs={vcs}");
            assert!(!find_deadlock(sim.core()).is_empty(), "n={n} vcs={vcs}");
        }
    }
}

/// The BFC theorem: one free buffer anywhere in the cycle and the ring
/// drains without any recovery.
#[test]
fn one_empty_vc_anywhere_drains_the_ring_without_recovery() {
    for n in sizes() {
        let ring = Ring::new(n);
        for vcs in [1, 2] {
            for i in 0..n {
                for vc in 0..vcs {
                    let mut sim = ring.staged(vcs, None);
                    sim.core_mut()
                        .remove_packet(ring.vc(i, vc))
                        .expect("staged");
                    let row = format!("n={n} vcs={vcs} empty VC {vc} at ring position {i}");
                    assert!(find_deadlock(sim.core()).is_empty(), "{row}");
                    assert!(sim.run_until_drained(DRAIN), "{row}");
                    let stats = sim.core().stats();
                    assert_eq!(stats.deadlocks_recovered, 0, "{row}");
                    assert_eq!(
                        stats.delivered_packets,
                        (n * vcs as usize - 1) as u64,
                        "{row}"
                    );
                }
            }
        }
    }
}

/// One static bubble at any router of the full ring: the protocol recovers
/// it, and leaves no router frozen and no special message in flight.
fn one_static_bubble_anywhere_recovers_the_ring(vcs: u8) {
    for n in sizes() {
        let ring = Ring::new(n);
        for i in 0..n {
            let row = format!("n={n} vcs={vcs} bubble at ring position {i}");
            let mut sim = ring.staged(vcs, Some(ring.nodes[i]));
            assert!(sim.run_until_drained(DRAIN), "{row}");
            let stats = sim.core().stats();
            assert!(stats.deadlocks_recovered >= 1, "{row}");
            assert_eq!(stats.delivered_packets, (n * vcs as usize) as u64, "{row}");
            sim.run(SETTLE);
            assert_eq!(sim.plugin().frozen_routers(), 0, "{row}");
            assert_eq!(sim.plugin().in_flight_messages(), 0, "{row}");
        }
    }
}

#[test]
fn one_static_bubble_anywhere_recovers_a_one_vc_ring() {
    one_static_bubble_anywhere_recovers_the_ring(1);
}

#[test]
fn one_static_bubble_anywhere_recovers_a_two_vc_ring() {
    one_static_bubble_anywhere_recovers_the_ring(2);
}

/// Cycles of uniform-random injection before an organic ring is drained.
const INJECT: u64 = 500;

/// A draining organic ring delivers at least once in every window this
/// long. Measured on 4,000 cases drawn as `organic_rings` draws them (500
/// or 1,000 cycles of injection, then 20,000 of drain watched cycle by
/// cycle): the longest gap between deliveries after the halt was 419
/// cycles, on a 1-VC ring of 24. The gap grows with the ring, about 16
/// cycles a router at 1 VC: each recovery's probe, disable and enable walk
/// the ring.
const W: u64 = 1_000;

/// How long an organic drain is watched. Past UR ≈ 1 a 1-VC ring of 18 or
/// more routers needs far longer than this to drain its source queues
/// (ROADMAP item 3(b)), so a full drain is not asserted.
const HORIZON: u64 = 4 * W;

/// How long an unprotected ring's deadlocked set is watched.
const PERSIST: u64 = 500;

/// The unprotected ring's first deadlock, and the check that it only grows.
#[derive(Default)]
struct Wedge(Option<(u64, Vec<InputRef>)>);

impl Wedge {
    fn observe<T: TrafficSource>(
        &mut self,
        sim: &Simulator<StaticBubblePlugin, T>,
    ) -> Result<(), TestCaseError> {
        let dead = find_deadlock(sim.core());
        match &self.0 {
            None if !dead.is_empty() => self.0 = Some((sim.time(), dead)),
            Some((t0, first)) if sim.time() <= t0 + PERSIST => {
                for buffer in first {
                    prop_assert!(
                        dead.contains(buffer),
                        "{buffer:?}, deadlocked at cycle {t0}, is free at cycle {}",
                        sim.time()
                    );
                }
            }
            _ => {}
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Uniform-random traffic on a ring with the bubble at (1,1) and on the
    /// same ring unprotected, both audited every 64 cycles.
    #[test]
    fn organic_rings(
        half in 2usize..=12,
        vcs in 1u8..=2,
        rate in 0.01f64..2.0,
        seed in any::<u64>(),
    ) {
        let ring = Ring::new(2 * half);
        let traffic = || UniformTraffic::new(rate).single_vnet();
        let mut protected = ring.sim(vcs, Some(ring.mesh.node_at(1, 1)), traffic(), seed);
        let mut bare = ring.sim(vcs, None, traffic(), seed);
        protected.set_audit(64);
        bare.set_audit(64);

        // Unprotected: a deadlocked set never shrinks.
        let mut wedge = Wedge::default();
        for _ in 0..INJECT {
            bare.run(1);
            wedge.observe(&bare)?;
        }
        protected.run(INJECT);
        // A bubble that never probed changed nothing.
        if protected.core().stats().probes_sent == 0 {
            prop_assert_eq!(protected.core().stats(), bare.core().stats());
        }
        if let Some((t0, _)) = wedge.0 {
            while bare.time() < t0 + PERSIST {
                bare.run(1);
                wedge.observe(&bare)?;
            }
        }

        // Protected: after the halt, deliveries grow in every window.
        protected.halt_injection();
        let halt = protected.time();
        while protected.time() < halt + HORIZON {
            let before = protected.core().stats().delivered_packets;
            if protected.run_until_drained(W) {
                break;
            }
            prop_assert!(
                protected.core().stats().delivered_packets > before,
                "nothing delivered in cycles {}..{}",
                protected.time() - W,
                protected.time()
            );
        }
    }
}
