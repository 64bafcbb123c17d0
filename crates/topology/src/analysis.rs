//! Graph analysis over irregular topologies: connectivity, cycles, distances.
//!
//! These are the primitives behind the design-space sweeps (Figs. 2 and 3)
//! and behind spanning-tree construction in `sb-routing`.

use crate::geom::{NodeId, DIRECTIONS};
use crate::topology::Topology;
use std::collections::VecDeque;

/// Assignment of alive routers to connected components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentMap {
    /// `component[i]` is the component index of node `i`, or `None` for dead
    /// routers.
    component: Vec<Option<u32>>,
    count: u32,
}

impl ComponentMap {
    /// Number of connected components among alive routers.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Component index of `node`, or `None` if the router is dead.
    pub fn component_of(&self, node: NodeId) -> Option<u32> {
        self.component[node.index()]
    }

    /// Are two alive routers in the same component?
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        match (self.component_of(a), self.component_of(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// Nodes of component `c`, in id order.
    pub fn members(&self, c: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.component
            .iter()
            .enumerate()
            .filter(move |(_, comp)| **comp == Some(c))
            .map(|(i, _)| NodeId::from(i))
    }
}

/// Compute connected components of the surviving graph.
///
/// ```
/// use sb_topology::{connected_components, Mesh, Topology};
/// let topo = Topology::full(Mesh::new(4, 4));
/// assert_eq!(connected_components(&topo).count(), 1);
/// ```
pub fn connected_components(topo: &Topology) -> ComponentMap {
    let n = topo.mesh().node_count();
    let mut component: Vec<Option<u32>> = vec![None; n];
    let mut count = 0u32;
    for start in topo.alive_nodes() {
        if component[start.index()].is_some() {
            continue;
        }
        let c = count;
        count += 1;
        let mut queue = VecDeque::from([start]);
        component[start.index()] = Some(c);
        while let Some(u) = queue.pop_front() {
            // One indexed load a direction, not `Topology::neighbors`:
            // whether that iterator's loop unrolls here turned on what else
            // this module held, and rolled it cost `distances_from` (the
            // all-pairs table build) 40 %.
            for dir in DIRECTIONS {
                let Some(v) = topo.neighbor(u, dir) else {
                    continue;
                };
                if component[v.index()].is_none() {
                    component[v.index()] = Some(c);
                    queue.push_back(v);
                }
            }
        }
    }
    ComponentMap { component, count }
}

/// BFS hop distances from `src` over the surviving graph.
///
/// `None` entries are dead or unreachable routers.
pub fn distances_from(topo: &Topology, src: NodeId) -> Vec<Option<u32>> {
    let n = topo.mesh().node_count();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    if !topo.router_alive(src) {
        return dist;
    }
    dist[src.index()] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued node has distance");
        // One indexed load a direction, as in `connected_components`.
        for dir in DIRECTIONS {
            let Some(v) = topo.neighbor(u, dir) else {
                continue;
            };
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

impl Topology {
    /// Does the surviving (undirected) graph contain a cycle?
    ///
    /// This is the paper's notion of a *deadlock-prone* topology (Fig. 2): a
    /// cyclic topology graph admits cyclic buffer dependencies under
    /// unrestricted minimal routing; an acyclic (forest) one cannot deadlock.
    ///
    /// ```
    /// use sb_topology::{Mesh, Topology, Direction};
    /// let mesh = Mesh::new(2, 2);
    /// let mut topo = Topology::full(mesh);
    /// assert!(topo.has_undirected_cycle());
    /// topo.remove_link(mesh.node_at(0, 0), Direction::East);
    /// assert!(!topo.has_undirected_cycle());
    /// ```
    pub fn has_undirected_cycle(&self) -> bool {
        // A graph is a forest iff |E| = |V| - #components.
        let v = self.alive_node_count();
        let e = self.alive_links().count();
        let c = connected_components(self).count() as usize;
        e + c > v
    }

    /// Are `a` and `b` connected in the surviving graph?
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return self.router_alive(a);
        }
        connected_components(self).connected(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Direction;
    use crate::mesh::Mesh;

    #[test]
    fn full_mesh_single_component() {
        let topo = Topology::full(Mesh::new(8, 8));
        let comps = connected_components(&topo);
        assert_eq!(comps.count(), 1);
        assert_eq!(comps.members(0).count(), 64);
    }

    #[test]
    fn split_mesh_two_components() {
        let mesh = Mesh::new(4, 2);
        let mut topo = Topology::full(mesh);
        // Cut the vertical seam between columns 1 and 2.
        for y in 0..2 {
            topo.remove_link(mesh.node_at(1, y), Direction::East);
        }
        let comps = connected_components(&topo);
        assert_eq!(comps.count(), 2);
        assert!(comps.connected(mesh.node_at(0, 0), mesh.node_at(1, 1)));
        assert!(!comps.connected(mesh.node_at(1, 0), mesh.node_at(2, 0)));
        assert!(!topo.reachable(mesh.node_at(0, 0), mesh.node_at(3, 1)));
        assert!(topo.reachable(mesh.node_at(0, 0), mesh.node_at(0, 0)));
    }

    #[test]
    fn distances_match_manhattan_on_full_mesh() {
        let mesh = Mesh::new(5, 5);
        let topo = Topology::full(mesh);
        let src = mesh.node_at(2, 2);
        let dist = distances_from(&topo, src);
        for n in mesh.nodes() {
            assert_eq!(dist[n.index()], Some(mesh.manhattan(src, n)));
        }
    }

    #[test]
    fn distances_from_dead_router_empty() {
        let mesh = Mesh::new(3, 3);
        let mut topo = Topology::full(mesh);
        let n = mesh.node_at(1, 1);
        topo.remove_router(n);
        assert!(distances_from(&topo, n).iter().all(Option::is_none));
    }

    #[test]
    fn cycle_detection_on_spanning_tree_is_false() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        // Keep only a comb: the bottom row plus vertical teeth.
        for y in 1..4 {
            for x in 0..4 {
                topo.remove_link(mesh.node_at(x, y), Direction::East);
            }
        }
        assert!(!topo.has_undirected_cycle());
        assert_eq!(connected_components(&topo).count(), 1);
    }
}
