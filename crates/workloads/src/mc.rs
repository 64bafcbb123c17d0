//! Memory-controller placement and application-mapping helpers.
//!
//! The paper maps applications onto cores that form a connected sub-network
//! and only considers topologies that do not disconnect the memory
//! controllers (Section V-A). These helpers implement that policy.

use sb_topology::{connected_components, Mesh, NodeId, Topology};

/// The four memory controllers of an `n×m` mesh: the midpoints of each edge
/// (a common 64-core floorplan).
///
/// ```
/// use sb_workloads::default_memory_controllers;
/// use sb_topology::Mesh;
/// let mcs = default_memory_controllers(Mesh::new(8, 8));
/// assert_eq!(mcs.len(), 4);
/// ```
pub fn default_memory_controllers(mesh: Mesh) -> Vec<NodeId> {
    let (w, h) = (mesh.width(), mesh.height());
    let mut mcs = vec![
        mesh.node_at(w / 2, 0),
        mesh.node_at(w / 2, h - 1),
        mesh.node_at(0, h / 2),
        mesh.node_at(w - 1, h / 2),
    ];
    mcs.sort();
    mcs.dedup();
    mcs
}

/// The cores an application can be mapped on: alive routers in the largest
/// component that contains at least one alive memory controller, or `None`
/// if every MC is dead or unreachable (the topology is unusable, as the
/// paper discards such instances).
pub(crate) fn usable_cores(topo: &Topology, mcs: &[NodeId]) -> Option<Vec<NodeId>> {
    let comps = connected_components(topo);
    // Components that contain an alive MC, largest first.
    let mut candidates: Vec<(usize, u32)> = (0..comps.count())
        .filter(|&c| {
            mcs.iter()
                .any(|&m| topo.router_alive(m) && comps.component_of(m) == Some(c))
        })
        .map(|c| (comps.members(c).count(), c))
        .collect();
    candidates.sort();
    let (_, comp) = candidates.pop()?;
    Some(comps.members(comp).collect())
}

/// Do all alive memory controllers remain mutually reachable? (The paper's
/// stricter filter for the full-system runs.)
pub fn mcs_connected(topo: &Topology, mcs: &[NodeId]) -> bool {
    let alive: Vec<NodeId> = mcs
        .iter()
        .copied()
        .filter(|&m| topo.router_alive(m))
        .collect();
    if alive.len() != mcs.len() {
        return false;
    }
    alive.windows(2).all(|w| topo.reachable(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::Direction;

    #[test]
    fn default_mcs_on_8x8() {
        let mesh = Mesh::new(8, 8);
        let mcs = default_memory_controllers(mesh);
        assert_eq!(mcs.len(), 4);
        for &m in &mcs {
            let c = mesh.coord(m);
            assert!(c.x == 0 || c.x == 7 || c.y == 0 || c.y == 7);
        }
    }

    #[test]
    fn usable_cores_full_mesh_is_everything() {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        let mcs = default_memory_controllers(mesh);
        assert_eq!(usable_cores(&topo, &mcs).unwrap().len(), 64);
        assert!(mcs_connected(&topo, &mcs));
    }

    #[test]
    fn partition_keeps_mc_side() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        // Cut between columns 0 and 1.
        for y in 0..4 {
            topo.remove_link(mesh.node_at(0, y), Direction::East);
        }
        let mcs = vec![mesh.node_at(2, 0)];
        let cores = usable_cores(&topo, &mcs).unwrap();
        assert_eq!(cores.len(), 12);
        assert!(!cores.contains(&mesh.node_at(0, 0)));
    }

    #[test]
    fn dead_mc_component_unusable() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        let mcs = vec![mesh.node_at(2, 0)];
        topo.remove_router(mcs[0]);
        assert_eq!(usable_cores(&topo, &mcs), None);
        assert!(!mcs_connected(&topo, &mcs));
    }

    #[test]
    fn mcs_disconnected_detected() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        for y in 0..4 {
            topo.remove_link(mesh.node_at(1, y), Direction::East);
        }
        let mcs = vec![mesh.node_at(0, 2), mesh.node_at(3, 2)];
        assert!(!mcs_connected(&topo, &mcs));
        // But an app can still map on the larger half.
        assert!(usable_cores(&topo, &mcs).is_some());
    }
}
