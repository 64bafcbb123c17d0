//! Channel-dependency graphs (Dally & Seitz / Duato theory).
//!
//! A routing function is deadlock-free on a topology if the dependency graph
//! over its directed channels is acyclic. The tests of this crate use the CDG
//! to *prove* that up-down and XY route sets are deadlock-free and that
//! unrestricted minimal routing is not — the premise of the whole paper.

use crate::route::{Route, RouteSource};

use sb_topology::{Direction, NodeId, Topology};

/// Dependency graph over directed channels `(router, output direction)`.
#[derive(Debug, Clone)]
pub struct ChannelDependencyGraph {
    topo: Topology,
    /// Adjacency: `edges[c]` = channels that `c` depends on (can be waited
    /// on while holding `c`). Deduplicated lazily at query time.
    edges: Vec<Vec<u32>>,
}

/// Index of the directed channel `(node, dir)`.
fn chan(node: NodeId, dir: Direction) -> usize {
    node.index() * 4 + dir.index()
}

impl ChannelDependencyGraph {
    /// An empty CDG over the channels of `topo`.
    pub(crate) fn new(topo: &Topology) -> Self {
        ChannelDependencyGraph {
            edges: vec![Vec::new(); topo.mesh().node_count() * 4],
            topo: topo.clone(),
        }
    }

    /// Record the dependencies induced by routing a packet along `route`
    /// from `src`: each consecutive channel pair adds one edge.
    ///
    /// # Panics
    ///
    /// Panics if the route crosses a dead link (use
    /// [`Route::trace`] to validate first).
    pub(crate) fn add_route(&mut self, src: NodeId, route: &Route) {
        let mut cur = src;
        let mut prev: Option<usize> = None;
        for &d in route.directions() {
            let c = chan(cur, d);
            if let Some(p) = prev {
                self.edges[p].push(c as u32);
            }
            prev = Some(c);
            cur = (self.topo.neighbor(cur, d)).expect("route crosses dead link");
        }
    }

    /// Build the CDG induced by routing between **all reachable pairs** with
    /// `source` (sampling `samples_per_pair` routes per pair to cover
    /// randomized routing functions).
    pub fn from_route_source<S: RouteSource>(
        topo: &Topology,
        source: &S,
        samples_per_pair: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Self {
        let mut cdg = ChannelDependencyGraph::new(topo);
        for a in topo.alive_nodes() {
            for b in topo.alive_nodes() {
                if a == b {
                    continue;
                }
                for _ in 0..samples_per_pair {
                    if let Some(r) = source.route(a, b, rng) {
                        cdg.add_route(a, &r);
                    }
                }
            }
        }
        cdg
    }

    /// Is the dependency graph acyclic (⇒ the recorded route set is
    /// deadlock-free)?
    pub fn is_acyclic(&self) -> bool {
        // Iterative three-color DFS.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.edges.len();
        let mut color = vec![WHITE; n];
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < self.edges[u].len() {
                    let v = self.edges[u][*i] as usize;
                    *i += 1;
                    match color[v] {
                        WHITE => {
                            color[v] = GRAY;
                            stack.push((v, 0));
                        }
                        GRAY => return false,
                        _ => {}
                    }
                } else {
                    color[u] = BLACK;
                    stack.pop();
                }
            }
        }
        true
    }

    /// Number of distinct dependency edges recorded.
    pub fn edge_count(&self) -> usize {
        let mut total = 0;
        let mut seen = std::collections::HashSet::new();
        for (u, vs) in self.edges.iter().enumerate() {
            seen.clear();
            for &v in vs {
                if seen.insert(v) {
                    total += 1;
                }
            }
            let _ = u;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinimalRouting, UpDownRouting, XyRouting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh};

    #[test]
    fn empty_cdg_is_acyclic() {
        let topo = Topology::full(Mesh::new(4, 4));
        assert!(ChannelDependencyGraph::new(&topo).is_acyclic());
        assert_eq!(ChannelDependencyGraph::new(&topo).edge_count(), 0);
    }

    #[test]
    fn xy_routing_cdg_is_acyclic() {
        let topo = Topology::full(Mesh::new(5, 5));
        let mut rng = StdRng::seed_from_u64(0);
        let cdg =
            ChannelDependencyGraph::from_route_source(&topo, &XyRouting::new(&topo), 1, &mut rng);
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn minimal_routing_cdg_has_cycles_on_full_mesh() {
        // "A network with zero faults is also deadlock-prone by definition,
        // unless a deadlock-free routing algorithm like XY is chosen."
        let topo = Topology::full(Mesh::new(4, 4));
        let mut rng = StdRng::seed_from_u64(0);
        let cdg = ChannelDependencyGraph::from_route_source(
            &topo,
            &MinimalRouting::new(&topo),
            4,
            &mut rng,
        );
        assert!(!cdg.is_acyclic());
    }

    #[test]
    fn updown_cdg_is_acyclic_across_faulty_topologies() {
        let mesh = Mesh::new(6, 6);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = 5 + (seed as usize % 15);
            let topo = FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng);
            let routing = UpDownRouting::new(&topo);
            let cdg = ChannelDependencyGraph::from_route_source(&topo, &routing, 1, &mut rng);
            assert!(cdg.is_acyclic(), "cycle under up-down, seed {seed}");
        }
    }

    #[test]
    fn manual_cycle_detected() {
        // Four packets turning left around a 2x2 block: the textbook deadlock.
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        let mut cdg = ChannelDependencyGraph::new(&topo);
        use Direction::*;
        // Each route covers two channels of the clockwise ring.
        cdg.add_route(mesh.node_at(0, 0), &Route::new(vec![North, East]));
        cdg.add_route(mesh.node_at(0, 1), &Route::new(vec![East, South]));
        cdg.add_route(mesh.node_at(1, 1), &Route::new(vec![South, West]));
        cdg.add_route(mesh.node_at(1, 0), &Route::new(vec![West, North]));
        assert!(!cdg.is_acyclic());
        assert_eq!(cdg.edge_count(), 4);
    }
}
