//! Minimal (shortest-path) routing over the surviving graph.
//!
//! "Minimal" on an irregular topology means *shortest available* path, which
//! may exceed the Manhattan distance when faults force detours. Static Bubble
//! and the regular VCs of the escape-VC baseline use these routes: they are
//! deadlock-prone by design, which is exactly what the recovery mechanisms
//! are for.

use crate::route::{Route, RouteSource};
use rand::Rng;
use sb_topology::{distances_from, Direction, NodeId, Topology};

/// All-pairs shortest-path routing with uniform random choice among minimal
/// next hops (the paper: "Each flit randomly chooses from one of its possible
/// minimal routes without any routing restrictions").
///
/// Construction runs one BFS per node (`O(V·E)`), after which route queries
/// are `O(path length)`: a hop reads one row of the topology's adjacency
/// table and at most four entries of the destination's distance row — no
/// coordinate arithmetic, no liveness test.
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
    /// Flat row-major distance table: `dist[dst * n + src]` = hops from
    /// `src` to `dst`, [`UNREACHABLE`] when disconnected. One contiguous
    /// allocation and one indexed load per query — the injection path
    /// consults this once per offered packet, so the former
    /// `Vec<Vec<Option<u32>>>` double indirection was measurable.
    dist: Vec<u32>,
    /// Row stride (node count).
    n: usize,
    /// On a fully-functional mesh the minimal next hops are exactly the
    /// coordinate-reducing directions, so `route` can skip the distance
    /// tables entirely.
    pristine: bool,
}

/// Sentinel distance for "no surviving path".
const UNREACHABLE: u32 = u32::MAX;

impl MinimalRouting {
    /// Precompute shortest-path distances over `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.mesh().node_count();
        let mut dist = Vec::with_capacity(n * n);
        for dst in topo.mesh().nodes() {
            dist.extend(
                distances_from(topo, dst)
                    .into_iter()
                    .map(|d| d.unwrap_or(UNREACHABLE)),
            );
        }
        MinimalRouting {
            topo: topo.clone(),
            dist,
            n,
            pristine: topo.is_pristine(),
        }
    }

    /// Hops from `src` to `dst` over the surviving graph, `None` if
    /// unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let d = self.dist[dst.index() * self.n + src.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// Is `dst` reachable from `src`?
    pub fn is_reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.distance(src, dst).is_some()
    }

    /// The minimal next-hop directions from `cur` towards `dst` (empty if
    /// unreachable or `cur == dst`): the alive neighbours of `cur`, one
    /// adjacency row, that are one hop closer, one distance load each.
    pub fn minimal_next_hops(&self, cur: NodeId, dst: NodeId) -> Vec<Direction> {
        let Some(d) = self.distance(cur, dst) else {
            return Vec::new();
        };
        if d == 0 {
            return Vec::new();
        }
        self.topo
            .neighbors(cur)
            .filter(|&(_, v)| self.distance(v, dst) == Some(d - 1))
            .map(|(dir, _)| dir)
            .collect()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The number of distinct minimal paths from `src` to `dst` (dynamic
    /// programming over the shortest-path DAG), or 0 if unreachable.
    ///
    /// This is the paper's *path diversity*: irregular topologies offer far
    /// less of it than the pristine mesh, which is why they are more prone
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
        // Process nodes in increasing distance-from-src, counting paths that
        // stay on the shortest-path DAG towards dst.
        let mesh = self.topo.mesh();
        let dist_from_src = &self.dist_from(src);
        let mut count = vec![0u128; mesh.node_count()];
        count[src.index()] = 1;
        let mut order: Vec<NodeId> = self
            .topo
            .alive_nodes()
            .filter(|&n| {
                matches!(
                    (dist_from_src[n.index()], self.distance(n, dst)),
                    (Some(a), Some(b)) if a + b == total
                )
            })
            .collect();
        order.sort_by_key(|n| dist_from_src[n.index()]);
        for &u in &order {
            if count[u.index()] == 0 {
                continue;
            }
            let du = self.distance(u, dst).expect("on DAG");
            for (_, v) in self.topo.neighbors(u) {
                if self.distance(v, dst) == Some(du.wrapping_sub(1)) && du > 0 {
                    count[v.index()] = count[v.index()].saturating_add(count[u.index()]);
                }
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

    fn dist_from(&self, src: NodeId) -> Vec<Option<u32>> {
        // dist[dst * n + src] is stored; gather per-src view.
        self.topo
            .mesh()
            .nodes()
            .map(|dst| self.distance(src, dst))
            .collect()
    }
}

impl RouteSource for MinimalRouting {
    fn route(&self, src: NodeId, dst: NodeId, rng: &mut dyn rand::RngCore) -> Option<Route> {
        let mut d = self.distance(src, dst)?;
        let mut hops = Vec::with_capacity(d as usize);
        if self.pristine {
            // Closed-form staircase walk. The candidate set and its order
            // match the general path below exactly (DIRECTIONS order:
            // N, E, S, W), so the RNG draws — and therefore every route —
            // are identical to the table-driven version.
            let mesh = self.topo.mesh();
            let (mut x, mut y) = {
                let c = mesh.coord(src);
                (c.x, c.y)
            };
            let (tx, ty) = {
                let c = mesh.coord(dst);
                (c.x, c.y)
            };
            while (x, y) != (tx, ty) {
                let mut nexts = [Direction::North; 2];
                let mut n = 0;
                if ty > y {
                    nexts[n] = Direction::North;
                    n += 1;
                }
                if tx > x {
                    nexts[n] = Direction::East;
                    n += 1;
                }
                if ty < y {
                    nexts[n] = Direction::South;
                    n += 1;
                }
                if tx < x {
                    nexts[n] = Direction::West;
                    n += 1;
                }
                let dir = nexts[rng.gen_range(0..n)];
                match dir {
                    Direction::North => y += 1,
                    Direction::East => x += 1,
                    Direction::South => y -= 1,
                    Direction::West => x -= 1,
                }
                hops.push(dir);
            }
            return Some(Route::new(hops));
        }
        let dist_to_dst = &self.dist[dst.index() * self.n..][..self.n];
        let mut cur = src;
        while d > 0 {
            // Stack-allocated equivalent of [`Self::minimal_next_hops`]
            // (same direction order, same RNG draws): this runs once per
            // hop of every injected packet, and the per-hop `Vec` was the
            // hottest allocation in the saturated injection path.
            let mut nexts = [(Direction::North, cur); 4];
            let mut n = 0;
            for (dir, v) in self.topo.neighbors(cur) {
                // `d - 1` can never equal the UNREACHABLE sentinel.
                if dist_to_dst[v.index()] == d - 1 {
                    nexts[n] = (dir, v);
                    n += 1;
                }
            }
            debug_assert!(n > 0, "positive distance implies a next hop");
            let (dir, next) = nexts[rng.gen_range(0..n)];
            hops.push(dir);
            cur = next;
            d -= 1;
        }
        Some(Route::new(hops))
    }

    /// One load from the distance table.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        self.dist[dst.index() * self.n + src.index()] != UNREACHABLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh};

    #[test]
    fn pristine_fast_path_matches_table_walk() {
        // The closed-form staircase in `route` must reproduce the
        // table-driven walk draw for draw: same candidate sets, same
        // order, same RNG consumption.
        let mesh = Mesh::new(5, 7);
        let routing = MinimalRouting::new(&Topology::full(mesh));
        assert!(routing.pristine);
        for (i, (a, b)) in mesh
            .nodes()
            .flat_map(|a| mesh.nodes().map(move |b| (a, b)))
            .enumerate()
        {
            let seed = i as u64;
            let fast = routing.route(a, b, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hops = Vec::new();
            let mut cur = a;
            while cur != b {
                let nexts = routing.minimal_next_hops(cur, b);
                let dir = nexts[rng.gen_range(0..nexts.len())];
                hops.push(dir);
                cur = mesh.neighbor(cur, dir).expect("alive link");
            }
            assert_eq!(fast, Some(Route::new(hops)));
        }
    }

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
