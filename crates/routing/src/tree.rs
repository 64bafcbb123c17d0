//! Tree-only spanning-tree routing: packets traverse spanning-tree links
//! exclusively, up to the lowest common ancestor and down to the
//! destination ("routed via the root", Fig. 1 of the paper).
//!
//! This is the conservative end of the spanning-tree design space: trivially
//! deadlock-free (the tree has no cycles at all) but with the worst
//! stretch. Up*/down* routing ([`crate::UpDownRouting`]) is the liberal
//! end: all links usable, only down→up turns forbidden. The paper's
//! baseline descriptions mix both ("up-down routing" vs "routed via the
//! root"); this crate provides the two extremes so experiments can report
//! either.

use crate::route::{Route, RouteSource};
use sb_topology::{connected_components, ComponentMap, Direction, NodeId, Topology};

/// Unique-path routing over a BFS spanning tree.
#[derive(Debug, Clone)]
pub struct TreeOnlyRouting {
    topo: Topology,
    components: ComponentMap,
    /// BFS parent of each node (`None` for roots and dead routers).
    parent: Vec<Option<NodeId>>,
    /// BFS depth from the component root.
    depth: Vec<Option<u32>>,
}

impl TreeOnlyRouting {
    /// Build one BFS tree per component, rooted at its lowest-id alive node
    /// (as [`crate::UpDownRouting`] does).
    pub fn new(topo: &Topology) -> Self {
        let components = connected_components(topo);
        let n = topo.mesh().node_count();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth: Vec<Option<u32>> = vec![None; n];
        for c in 0..components.count() {
            let root = components.members(c).next().expect("non-empty component");
            // BFS assigning parents.
            depth[root.index()] = Some(0);
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                let du = depth[u.index()].expect("queued has depth");
                for (_, v) in topo.neighbors(u) {
                    if depth[v.index()].is_none() {
                        depth[v.index()] = Some(du + 1);
                        parent[v.index()] = Some(u);
                        queue.push_back(v);
                    }
                }
            }
        }
        TreeOnlyRouting {
            topo: topo.clone(),
            components,
            parent,
            depth,
        }
    }

    /// The tree parent of a non-root node on a walk towards a known
    /// ancestor.
    fn parent_of(&self, node: NodeId) -> NodeId {
        self.parent[node.index()].expect("below the common ancestor")
    }
}

impl RouteSource for TreeOnlyRouting {
    /// The unique tree path src → LCA → dst. Deterministic.
    fn route(&self, src: NodeId, dst: NodeId, _rng: &mut dyn rand::RngCore) -> Option<Route> {
        if !self.routable(src, dst) {
            return None;
        }
        // Find the lowest common ancestor by levelling the deeper endpoint
        // and then climbing in lockstep, counting the hops on either side.
        let (mut a, mut b) = (src, dst);
        let mut depth_a = self.depth[a.index()].expect("alive");
        let mut depth_b = self.depth[b.index()].expect("alive");
        let (mut up, mut down) = (0, 0);
        while depth_a > depth_b {
            a = self.parent_of(a);
            depth_a -= 1;
            up += 1;
        }
        while depth_b > depth_a {
            b = self.parent_of(b);
            depth_b -= 1;
            down += 1;
        }
        while a != b {
            a = self.parent_of(a);
            b = self.parent_of(b);
            up += 1;
            down += 1;
        }
        let mesh = self.topo.mesh();
        let mut hops = vec![Direction::North; up + down];
        let mut cur = src;
        for hop in &mut hops[..up] {
            let parent = self.parent_of(cur);
            *hop = mesh.direction_between(cur, parent).expect("tree edge");
            cur = parent;
        }
        // The descent is the climb from `dst` reversed: fill it back to front.
        let mut cur = dst;
        for hop in hops[up..].iter_mut().rev() {
            let parent = self.parent_of(cur);
            *hop = mesh.direction_between(parent, cur).expect("tree edge");
            cur = parent;
        }
        Some(Route::new(hops))
    }

    /// Every same-component pair meets at the component's root at the
    /// latest.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        self.components.connected(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinimalRouting;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh};

    #[test]
    fn routes_reach_and_stay_on_tree() {
        let mesh = Mesh::new(6, 6);
        let mut trng = StdRng::seed_from_u64(5);
        let topo = FaultModel::new(FaultKind::Links, 10).inject(mesh, &mut trng);
        let tree = TreeOnlyRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        for a in topo.alive_nodes() {
            for b in topo.alive_nodes() {
                match tree.route(a, b, &mut rng) {
                    Some(r) => {
                        assert_eq!(r.trace(&topo, a), Some(b));
                        // Every hop must be a tree (parent) edge, and a walk
                        // over tree edges that never doubles back is *the*
                        // tree path.
                        assert!(!r.has_u_turn(), "{a}->{b} doubles back: {r}");
                        let mut cur = a;
                        for &d in r.directions() {
                            let next = topo.neighbor(cur, d).unwrap();
                            let tree_edge = tree.parent[cur.index()] == Some(next)
                                || tree.parent[next.index()] == Some(cur);
                            assert!(tree_edge, "{cur} -> {next} is not a tree edge");
                            cur = next;
                        }
                    }
                    None => assert!(!topo.reachable(a, b)),
                }
            }
        }
    }

    #[test]
    fn tree_paths_stretch_far_beyond_minimal() {
        // The Fig. 1 motivation: neighbours can be many tree-hops apart.
        let mesh = Mesh::new(8, 8);
        let topo = sb_topology::Topology::full(mesh);
        let tree = TreeOnlyRouting::new(&topo);
        let minimal = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        let mut worst = 0.0f64;
        let mut total_tree = 0usize;
        let mut total_min = 0u32;
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if a == b {
                    continue;
                }
                let t = tree.route(a, b, &mut rng).unwrap().hops();
                let m = minimal.distance(a, b).unwrap();
                total_tree += t;
                total_min += m;
                worst = worst.max(t as f64 / m as f64);
            }
        }
        let avg_stretch = total_tree as f64 / total_min as f64;
        assert!(avg_stretch > 1.3, "avg stretch {avg_stretch}");
        assert!(worst >= 5.0, "worst stretch {worst}");
    }

    #[test]
    fn tree_cdg_is_acyclic() {
        let mesh = Mesh::new(5, 5);
        let mut trng = StdRng::seed_from_u64(2);
        let topo = FaultModel::new(FaultKind::Links, 6).inject(mesh, &mut trng);
        let tree = TreeOnlyRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        let cdg = crate::ChannelDependencyGraph::from_route_source(&topo, &tree, 1, &mut rng);
        assert!(cdg.is_acyclic());
    }
}
