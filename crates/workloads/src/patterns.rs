//! Additional open-loop synthetic patterns beyond the two in `sb-sim`.
//!
//! Each is a destination rule for [`sb_sim::Synthetic`], which owns the
//! arrival process, the packet mix, the vnets and the load bound — so every
//! pattern here takes `single_vnet`, `data_fraction` and `geometric` and
//! refuses a rate it cannot inject.

use rand::{Rng, RngCore};
use sb_sim::{Pattern, Synthetic};
use sb_topology::{NodeId, Topology};

/// A fixed partner is a destination only if it is another, alive node.
fn other_alive(src: NodeId, dst: NodeId, topo: &Topology) -> bool {
    dst != src && topo.router_alive(dst)
}

/// Transpose destinations: node (x, y) sends to (y, x) (square meshes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose;

/// Transpose traffic: `TransposeTraffic::new(rate)`.
pub type TransposeTraffic = Synthetic<Transpose>;

fn transposed(src: NodeId, topo: &Topology) -> NodeId {
    let mesh = topo.mesh();
    debug_assert_eq!(mesh.width(), mesh.height(), "transpose needs a square mesh");
    let c = mesh.coord(src);
    mesh.node_at(c.y, c.x)
}

impl Pattern for Transpose {
    fn can_send(&self, src: NodeId, topo: &Topology, _alive: &[NodeId]) -> bool {
        other_alive(src, transposed(src, topo), topo)
    }

    fn pick(
        &self,
        src: NodeId,
        topo: &Topology,
        _alive: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        Some(transposed(src, topo))
    }
}

/// Hotspot destinations: a fraction of packets target a small hot set (e.g.
/// the memory controllers); the rest are uniform random. A draw that lands
/// on the source itself or on a dead node is dropped.
#[derive(Debug, Clone)]
pub struct Hotspot {
    hot: Vec<NodeId>,
    hot_fraction: f64,
}

/// Hotspot traffic: `HotspotTraffic::with_pattern(Hotspot::new(..), rate)`.
pub type HotspotTraffic = Synthetic<Hotspot>;

impl Hotspot {
    /// `hot_fraction` of packets go to a uniformly chosen member of `hot`.
    ///
    /// # Panics
    ///
    /// Panics if `hot` is empty or `hot_fraction ∉ [0, 1]`.
    pub fn new(hot: Vec<NodeId>, hot_fraction: f64) -> Self {
        assert!(!hot.is_empty(), "hotspot set must be non-empty");
        assert!((0.0..=1.0).contains(&hot_fraction));
        Hotspot { hot, hot_fraction }
    }
}

impl Pattern for Hotspot {
    fn can_send(&self, _src: NodeId, _topo: &Topology, alive: &[NodeId]) -> bool {
        alive.len() >= 2
    }

    fn pick(
        &self,
        src: NodeId,
        topo: &Topology,
        alive: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let dst = if rng.gen_bool(self.hot_fraction) {
            self.hot[rng.gen_range(0..self.hot.len())]
        } else {
            alive[rng.gen_range(0..alive.len())]
        };
        other_alive(src, dst, topo).then_some(dst)
    }
}

/// Bit-shuffle destinations: the source id rotated left by one bit (classic
/// permutation stressing different links than transpose).
#[derive(Debug, Clone, Copy, Default)]
pub struct Shuffle;

/// Shuffle traffic: `ShuffleTraffic::new(rate)`.
pub type ShuffleTraffic = Synthetic<Shuffle>;

fn shuffled(src: NodeId, topo: &Topology) -> NodeId {
    let n = topo.mesh().node_count();
    let bits = usize::BITS - (n - 1).leading_zeros();
    let s = src.index();
    let d = ((s << 1) | (s >> (bits - 1))) & (n - 1);
    NodeId::from(d.min(n - 1))
}

impl Pattern for Shuffle {
    fn can_send(&self, src: NodeId, topo: &Topology, _alive: &[NodeId]) -> bool {
        other_alive(src, shuffled(src, topo), topo)
    }

    fn pick(
        &self,
        src: NodeId,
        topo: &Topology,
        _alive: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        Some(shuffled(src, topo))
    }
}

/// Near-neighbour destinations: every node talks to one of its alive mesh
/// neighbours (stencil codes; very light on the bisection).
#[derive(Debug, Clone, Copy, Default)]
pub struct Neighbor;

/// Neighbour traffic: `NeighborTraffic::new(rate)`.
pub type NeighborTraffic = Synthetic<Neighbor>;

impl Pattern for Neighbor {
    fn can_send(&self, src: NodeId, topo: &Topology, _alive: &[NodeId]) -> bool {
        topo.degree(src) > 0
    }

    fn pick(
        &self,
        src: NodeId,
        topo: &Topology,
        _alive: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let k = rng.gen_range(0..topo.degree(src));
        topo.neighbors(src).nth(k).map(|(_, dst)| dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_sim::TrafficSource;
    use sb_topology::{Direction, Mesh, Topology};

    #[test]
    fn transpose_pairs() {
        let mesh = Mesh::new(6, 6);
        let topo = Topology::full(mesh);
        let mut t = TransposeTraffic::new(1.5);
        let mut rng = StdRng::seed_from_u64(0);
        let pkts = t.generate(0, &topo, &mut rng);
        assert!(!pkts.is_empty());
        for p in pkts {
            let a = mesh.coord(p.src);
            let b = mesh.coord(p.dst);
            assert_eq!((a.x, a.y), (b.y, b.x));
        }
    }

    #[test]
    fn hotspot_bias() {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        let hot = vec![mesh.node_at(4, 0)];
        let mut t = HotspotTraffic::with_pattern(Hotspot::new(hot.clone(), 0.8), 1.0).single_vnet();
        let mut rng = StdRng::seed_from_u64(1);
        let mut hot_count = 0usize;
        let mut total = 0usize;
        for time in 0..200 {
            for p in t.generate(time, &topo, &mut rng) {
                total += 1;
                if p.dst == hot[0] {
                    hot_count += 1;
                }
            }
        }
        let frac = hot_count as f64 / total as f64;
        assert!(frac > 0.6, "hot fraction {frac} too low");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_hot_set_panics() {
        Hotspot::new(vec![], 0.5);
    }

    /// The message a constructor panics with.
    fn refusal(build: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let panic = std::panic::catch_unwind(build).expect_err("must be refused");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn an_uninjectable_rate_is_refused_not_clamped() {
        // 3.5 flits/node/cycle needs more than a packet per node per cycle:
        // refused, never clamped to the 3.0 that can be offered.
        let hotspot = |rate| HotspotTraffic::with_pattern(Hotspot::new(vec![NodeId(0)], 0.5), rate);
        assert!(refusal(|| drop(TransposeTraffic::new(3.5))).contains("not injectable"));
        assert!(refusal(|| drop(ShuffleTraffic::new(3.5))).contains("not injectable"));
        assert!(refusal(|| drop(NeighborTraffic::new(3.5))).contains("not injectable"));
        assert!(refusal(move || drop(hotspot(3.5))).contains("not injectable"));
        assert!(refusal(move || drop(hotspot(f64::NAN))).contains("non-negative"));
        assert!(refusal(move || drop(hotspot(-0.1))).contains("non-negative"));
    }

    #[test]
    fn geometric_next_arrival_is_exact() {
        // Through a pattern of this crate: the sampler is the injector's, so
        // `next_arrival` names a future cycle whatever the destination rule.
        let topo = Topology::full(Mesh::new(4, 4));
        let mut src = NeighborTraffic::new(0.02).geometric();
        let mut rng = StdRng::seed_from_u64(3);
        src.generate(0, &topo, &mut rng); // seeds the per-node streams
        let mut t = 0u64;
        for _ in 0..50 {
            let next = src
                .next_arrival(t)
                .expect("open-loop source never exhausts");
            assert!(next > t, "next_arrival({t}) = {next} is not in the future");
            if next > t + 1 {
                // A probe strictly inside the gap is empty and must not
                // disturb the schedule — the `next_arrival` contract.
                assert!(src.generate(t + 1, &topo, &mut rng).is_empty());
                assert_eq!(src.next_arrival(t + 1), Some(next));
            }
            let pkts = src.generate(next, &topo, &mut rng);
            assert!(!pkts.is_empty(), "an arrival was promised at {next}");
            t = next;
        }
    }

    #[test]
    fn shuffle_is_a_fixed_permutation() {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        let mut t = ShuffleTraffic::new(1.5);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen: std::collections::HashMap<NodeId, NodeId> = Default::default();
        for time in 0..50 {
            for p in t.generate(time, &topo, &mut rng) {
                let prev = seen.insert(p.src, p.dst);
                if let Some(prev) = prev {
                    assert_eq!(prev, p.dst, "shuffle destination must be fixed per src");
                }
            }
        }
        assert!(seen.len() > 30);
    }

    #[test]
    fn neighbor_traffic_is_single_hop() {
        let mesh = Mesh::new(6, 6);
        let topo = Topology::full(mesh);
        let mut t = NeighborTraffic::new(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for p in t.generate(0, &topo, &mut rng) {
            assert_eq!(mesh.manhattan(p.src, p.dst), 1);
        }
    }

    #[test]
    fn neighbor_traffic_respects_dead_links() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        let isolated = mesh.node_at(1, 1);
        for d in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ] {
            topo.remove_link(isolated, d);
        }
        let mut t = NeighborTraffic::new(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for time in 0..50 {
            for p in t.generate(time, &topo, &mut rng) {
                assert_ne!(p.src, isolated);
                assert_ne!(p.dst, isolated);
            }
        }
    }
}
