//! Minimal (shortest-path) routing over the surviving graph.
//!
//! "Minimal" on an irregular topology means *shortest available* path, which
//! may exceed the Manhattan distance when faults force detours. Static Bubble
//! and the regular VCs of the escape-VC baseline use these routes: they are
//! deadlock-prone by design, which is exactly what the recovery mechanisms
//! are for.

use crate::route::{Route, RouteSource};
use rand::Rng;
use sb_topology::{Direction, NodeId, Topology};

/// All-pairs shortest-path routing with uniform random choice among minimal
/// next hops (the paper: "Each flit randomly chooses from one of its possible
/// minimal routes without any routing restrictions").
///
/// Construction fills two `n × n` tables: hop distances by a breadth-first
/// search from 64 sources at once, then one byte per `(node, destination)`
/// naming the directions one hop closer. A
/// route query is `O(path length)`: a hop reads one byte, draws one choice
/// and steps across one adjacency entry.
///
/// ```
/// use sb_routing::{MinimalRouting, RouteSource};
/// use sb_topology::{Mesh, Topology};
/// use rand::SeedableRng;
///
/// let mesh = Mesh::new(8, 8);
/// let routing = MinimalRouting::new(&Topology::full(mesh));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let route = routing
///     .route(mesh.node_at(0, 0), mesh.node_at(7, 7), &mut rng)
///     .expect("full mesh is connected");
/// assert_eq!(route.hops(), 14);
/// ```
#[derive(Debug, Clone)]
pub struct MinimalRouting {
    topo: Topology,
    /// Hop distances, `dist[a * n + b]`, [`UNREACHABLE`] when disconnected.
    /// The graph is undirected, so the table is symmetric: row `a` is both
    /// "from `a`" and "to `a`".
    dist: Vec<u16>,
    /// Next-hop masks, `hop[cur * n + dst]`: bit [`Direction::index`] set
    /// iff the link that way is usable and its far end is one hop closer to
    /// `dst`.
    hop: Vec<u8>,
    /// Row stride (node count).
    n: usize,
}

/// Sentinel distance for "no surviving path".
const UNREACHABLE: u16 = u16::MAX;

/// Sources one breadth-first sweep carries: one bit each of a `u64`.
const BATCH: usize = 64;

/// `SELECT[mask][pick]` is the [`Direction::index`] of the `pick`-th set bit
/// of a next-hop mask, counting N, E, S, W.
const SELECT: [[u8; 4]; 16] = {
    let mut table = [[0; 4]; 16];
    let mut mask = 0;
    while mask < 16 {
        let mut k = 0;
        let mut i = 0;
        while i < 4 {
            // Candidates are counted N, E, S, W: the order a draw indexes.
            let dir = i;
            if mask >> dir & 1 != 0 {
                table[mask][k] = dir as u8;
                k += 1;
            }
            i += 1;
        }
        mask += 1;
    }
    table
};

impl MinimalRouting {
    /// Precompute shortest-path distances and next-hop masks over `topo`.
    ///
    /// # Panics
    ///
    /// Panics on a mesh of `u16::MAX` or more routers, whose distances would
    /// not fit the table.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.mesh().node_count();
        assert!(
            n < usize::from(UNREACHABLE),
            "{n} routers overflow u16 distances"
        );
        let adj = topo.adjacency();
        let mut dist = vec![UNREACHABLE; n * n];
        // Per node, one bit per source of the batch: reached so far, and
        // reached at the current level.
        let mut seen = vec![0u64; n];
        let mut front = vec![0u64; n];
        let mut next = vec![0u64; n];
        for batch in 0..n.div_ceil(BATCH) {
            let base = batch * BATCH;
            let width = BATCH.min(n - base);
            seen.fill(0);
            front.fill(0);
            for (bit, src) in (base..base + width).enumerate() {
                if topo.router_alive(NodeId::from(src)) {
                    seen[src] = 1 << bit;
                    front[src] = 1 << bit;
                    dist[src * n + src] = 0;
                }
            }
            let mut level = 0;
            loop {
                level += 1;
                let mut grew = 0;
                // A missing link points back at the node itself, whose own
                // front bits are already seen: no branch per link.
                for (v, around) in adj.iter().enumerate() {
                    let reached = around.iter().fold(0, |acc, u| acc | front[u.index()]);
                    let mut fresh = reached & !seen[v];
                    next[v] = fresh;
                    if fresh == 0 {
                        continue;
                    }
                    seen[v] |= fresh;
                    grew |= fresh;
                    // Symmetry: the distances from this batch's sources to
                    // `v` are row `v`'s columns of the batch.
                    let row = &mut dist[v * n + base..][..width];
                    while fresh != 0 {
                        row[fresh.trailing_zeros() as usize] = level;
                        fresh &= fresh - 1;
                    }
                }
                if grew == 0 {
                    break;
                }
                std::mem::swap(&mut front, &mut next);
            }
        }
        let mut hop = vec![0u8; n * n];
        let rows = dist.chunks_exact(n).zip(hop.chunks_exact_mut(n));
        for (around, (here, masks)) in adj.iter().zip(rows) {
            // A missing link is the node itself, never one closer.
            let [n0, n1, n2, n3] = around.map(|nb| &dist[nb.index() * n..][..n]);
            for (j, (mask, &h)) in masks.iter_mut().zip(here).enumerate() {
                // An unreachable neighbour's `u16::MAX` wraps to 0, and only
                // the destination sits at 0, whose usable neighbours reach it.
                let closer = |t: u16| u8::from(t.wrapping_add(1) == h);
                *mask =
                    closer(n0[j]) | closer(n1[j]) << 1 | closer(n2[j]) << 2 | closer(n3[j]) << 3;
            }
        }
        MinimalRouting {
            topo: topo.clone(),
            dist,
            hop,
            n,
        }
    }

    /// Hops from `src` to `dst` over the surviving graph, `None` if
    /// unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let d = self.dist[src.index() * self.n + dst.index()];
        (d != UNREACHABLE).then_some(u32::from(d))
    }

    /// Is `dst` reachable from `src`?
    pub fn is_reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.distance(src, dst).is_some()
    }

    /// The number of distinct minimal paths from `src` to `dst` (dynamic
    /// programming over the shortest-path DAG), or 0 if unreachable.
    ///
    /// This is the paper's *path diversity*: irregular topologies offer far
    /// less of it than the fault-free mesh, which is why they are more prone
    /// to deadlock and why spanning-tree routing hurts them so much.
    ///
    /// ```
    /// use sb_routing::MinimalRouting;
    /// use sb_topology::{Mesh, Topology};
    /// let mesh = Mesh::new(4, 4);
    /// let routing = MinimalRouting::new(&Topology::full(mesh));
    /// // 3+3 choose 3 = 20 staircase paths corner to corner.
    /// assert_eq!(routing.minimal_path_count(mesh.node_at(0, 0), mesh.node_at(3, 3)), 20);
    /// ```
    pub fn minimal_path_count(&self, src: NodeId, dst: NodeId) -> u128 {
        let Some(total) = self.distance(src, dst) else {
            return 0;
        };
        if total == 0 {
            return 1;
        }
        // Process the nodes on a shortest src→dst path in increasing
        // distance from src, pushing each one's count along its next hops.
        let from_src = &self.dist[src.index() * self.n..][..self.n];
        let to_dst = &self.dist[dst.index() * self.n..][..self.n];
        let mut count = vec![0u128; self.n];
        count[src.index()] = 1;
        let mut order: Vec<NodeId> = self
            .topo
            .alive_nodes()
            // An unreachable end's `u16::MAX` overshoots every distance.
            .filter(|n| u32::from(from_src[n.index()]) + u32::from(to_dst[n.index()]) == total)
            .collect();
        order.sort_by_key(|n| from_src[n.index()]);
        let adj = self.topo.adjacency();
        for &u in &order {
            let here = count[u.index()];
            if here == 0 {
                continue;
            }
            let mask = self.hop[u.index() * self.n + dst.index()];
            for &pick in &SELECT[usize::from(mask)][..mask.count_ones() as usize] {
                let v = adj[u.index()][usize::from(pick)].index();
                count[v] = count[v].saturating_add(here);
            }
        }
        count[dst.index()]
    }

    /// Average minimal-path diversity over all reachable ordered pairs
    /// (geometric mean is unwieldy; this reports the mean of
    /// `min(count, cap)` to keep one 14-hop corner pair from dominating).
    pub fn avg_path_diversity(&self, cap: u128) -> f64 {
        let mut sum = 0u128;
        let mut pairs = 0u64;
        for a in self.topo.alive_nodes() {
            for b in self.topo.alive_nodes() {
                if a == b || !self.is_reachable(a, b) {
                    continue;
                }
                sum += self.minimal_path_count(a, b).min(cap);
                pairs += 1;
            }
        }
        if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        }
    }
}

impl RouteSource for MinimalRouting {
    fn route(&self, src: NodeId, dst: NodeId, rng: &mut dyn rand::RngCore) -> Option<Route> {
        let d = self.distance(src, dst)?;
        let mut hops = Vec::with_capacity(d as usize);
        let adj = self.topo.adjacency();
        let mut cur = src;
        for _ in 0..d {
            // One draw a hop, whatever the number of candidates: the RNG
            // stream is that of a walk over the distance table.
            let mask = self.hop[cur.index() * self.n + dst.index()];
            let k = mask.count_ones() as usize;
            debug_assert!(k > 0, "positive distance implies a next hop");
            let pick = rng.gen_range(0..k);
            let dir = usize::from(SELECT[usize::from(mask)][pick]);
            hops.push(Direction::from_index(dir));
            cur = adj[cur.index()][dir];
        }
        debug_assert_eq!(cur, dst, "a minimal walk ends at its destination");
        Some(Route::new(hops))
    }

    /// One load from the distance table.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        self.dist[src.index() * self.n + dst.index()] != UNREACHABLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh};

    #[test]
    fn full_mesh_distance_is_manhattan() {
        let mesh = Mesh::new(6, 6);
        let routing = MinimalRouting::new(&Topology::full(mesh));
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                assert_eq!(routing.distance(a, b), Some(mesh.manhattan(a, b)));
            }
        }
    }

    #[test]
    fn routes_are_valid_and_minimal_under_faults() {
        let mesh = Mesh::new(8, 8);
        let mut rng = StdRng::seed_from_u64(11);
        let topo = FaultModel::new(FaultKind::Links, 25).inject(mesh, &mut rng);
        let routing = MinimalRouting::new(&topo);
        for (a, b) in [(0u16, 63u16), (5, 40), (17, 62), (8, 8)] {
            let (a, b) = (NodeId(a), NodeId(b));
            if let Some(route) = routing.route(a, b, &mut rng) {
                assert_eq!(route.trace(&topo, a), Some(b));
                assert_eq!(route.hops() as u32, routing.distance(a, b).unwrap());
            }
        }
    }

    #[test]
    fn random_choice_spreads_over_minimal_paths() {
        let mesh = Mesh::new(4, 4);
        let routing = MinimalRouting::new(&Topology::full(mesh));
        let mut rng = StdRng::seed_from_u64(3);
        let (a, b) = (mesh.node_at(0, 0), mesh.node_at(3, 3));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(routing.route(a, b, &mut rng).unwrap());
        }
        // 20 distinct minimal paths exist; sampling 200 should find many.
        assert!(
            seen.len() > 5,
            "only {} distinct minimal routes",
            seen.len()
        );
        assert!(seen.iter().all(|r| r.hops() == 6));
    }

    #[test]
    fn unreachable_returns_none() {
        let mesh = Mesh::new(4, 1);
        let mut topo = Topology::full(mesh);
        topo.remove_link(mesh.node_at(1, 0), Direction::East);
        let routing = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            routing.route(mesh.node_at(0, 0), mesh.node_at(3, 0), &mut rng),
            None
        );
        assert!(!routing.is_reachable(mesh.node_at(0, 0), mesh.node_at(3, 0)));
    }

    #[test]
    fn path_counts_match_combinatorics() {
        let mesh = Mesh::new(8, 8);
        let routing = MinimalRouting::new(&Topology::full(mesh));
        // (a+b choose a) staircase counts.
        let cases = [
            ((0u16, 0u16), (1u16, 0u16), 1u128),
            ((0, 0), (1, 1), 2),
            ((0, 0), (2, 2), 6),
            ((0, 0), (7, 7), 3432),
        ];
        for ((ax, ay), (bx, by), expect) in cases {
            assert_eq!(
                routing.minimal_path_count(mesh.node_at(ax, ay), mesh.node_at(bx, by)),
                expect
            );
        }
        assert_eq!(routing.minimal_path_count(NodeId(5), NodeId(5)), 1);
    }

    #[test]
    fn faults_destroy_path_diversity() {
        // The paper's motivation in one assert: the same pair has far fewer
        // minimal paths once links fail.
        let mesh = Mesh::new(8, 8);
        let full = MinimalRouting::new(&Topology::full(mesh));
        let mut rng = StdRng::seed_from_u64(8);
        let faulty_topo = FaultModel::new(FaultKind::Links, 30).inject(mesh, &mut rng);
        let faulty = MinimalRouting::new(&faulty_topo);
        let full_div = full.avg_path_diversity(64);
        let faulty_div = faulty.avg_path_diversity(64);
        assert!(
            faulty_div < full_div * 0.6,
            "diversity {faulty_div:.2} should collapse from {full_div:.2}"
        );
    }

    #[test]
    fn self_route_is_empty() {
        let mesh = Mesh::new(3, 3);
        let routing = MinimalRouting::new(&Topology::full(mesh));
        let mut rng = StdRng::seed_from_u64(0);
        let r = routing
            .route(mesh.node_at(1, 1), mesh.node_at(1, 1), &mut rng)
            .unwrap();
        assert_eq!(r.hops(), 0);
    }
}
