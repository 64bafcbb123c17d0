//! Dimension-ordered XY routing — the classic deadlock-avoidance scheme for
//! *regular* meshes (Section II-A).
//!
//! XY is kept as a reference point: it is deadlock-free on the fault-free
//! mesh but cannot route around irregularity, which is the paper's starting
//! observation.

use crate::route::{Route, RouteSource};

use sb_topology::{Direction, NodeId, Topology};

/// XY (X-first, then Y) dimension-ordered routing.
///
/// Routes fail (`None`) if any required link is dead — XY has no ability to
/// detour, which is exactly why irregular topologies need something else.
///
/// ```
/// use sb_routing::{RouteSource, XyRouting};
/// use sb_topology::{Mesh, Topology};
/// use rand::SeedableRng;
/// let mesh = Mesh::new(4, 4);
/// let xy = XyRouting::new(&Topology::full(mesh));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let r = xy.route(mesh.node_at(0, 0), mesh.node_at(2, 3), &mut rng).unwrap();
/// assert_eq!(r.to_string(), "EENNN");
/// ```
#[derive(Debug, Clone)]
pub struct XyRouting {
    topo: Topology,
}

impl XyRouting {
    /// XY routing over `topo` (route queries check link liveness).
    pub fn new(topo: &Topology) -> Self {
        XyRouting { topo: topo.clone() }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The dimension-ordered walk from `src` to `dst`: `(direction, hops)`
    /// along X, then along Y.
    fn legs(&self, src: NodeId, dst: NodeId) -> [(Direction, u16); 2] {
        let mesh = self.topo.mesh();
        let (a, b) = (mesh.coord(src), mesh.coord(dst));
        let x_dir = if b.x > a.x {
            Direction::East
        } else {
            Direction::West
        };
        let y_dir = if b.y > a.y {
            Direction::North
        } else {
            Direction::South
        };
        [(x_dir, a.x.abs_diff(b.x)), (y_dir, a.y.abs_diff(b.y))]
    }
}

impl RouteSource for XyRouting {
    fn route(&self, src: NodeId, dst: NodeId, _rng: &mut dyn rand::RngCore) -> Option<Route> {
        self.routable(src, dst).then(|| {
            self.legs(src, dst)
                .into_iter()
                .flat_map(|(dir, hops)| (0..hops).map(move |_| dir))
                .collect()
        })
    }

    /// XY cannot detour: the fixed path must be fully alive. Walks it
    /// without building the route.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        if !self.topo.router_alive(src) || !self.topo.router_alive(dst) {
            return false;
        }
        let mut cur = src;
        for (dir, hops) in self.legs(src, dst) {
            for _ in 0..hops {
                let Some(next) = self.topo.neighbor(cur, dir) else {
                    return false;
                };
                cur = next;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::Mesh;

    #[test]
    fn xy_route_is_minimal_on_full_mesh() {
        let mesh = Mesh::new(8, 8);
        let xy = XyRouting::new(&Topology::full(mesh));
        let mut rng = StdRng::seed_from_u64(0);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                let r = xy.route(a, b, &mut rng).unwrap();
                assert_eq!(r.hops() as u32, mesh.manhattan(a, b));
                assert!(!r.has_u_turn());
            }
        }
    }

    #[test]
    fn xy_never_turns_north_south_to_east_west() {
        let mesh = Mesh::new(8, 8);
        let xy = XyRouting::new(&Topology::full(mesh));
        let mut rng = StdRng::seed_from_u64(0);
        for (a, b) in [(0u16, 63u16), (7, 56), (20, 43)] {
            let r = xy.route(NodeId(a), NodeId(b), &mut rng).unwrap();
            let dirs = r.directions();
            for w in dirs.windows(2) {
                let y_to_x = matches!(w[0], Direction::North | Direction::South)
                    && matches!(w[1], Direction::East | Direction::West);
                assert!(!y_to_x, "illegal YX turn in {r}");
            }
        }
    }

    #[test]
    fn xy_fails_on_broken_path() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        topo.remove_link(mesh.node_at(1, 0), Direction::East);
        let xy = XyRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        // (0,0) -> (3,0) must go straight east through the dead link.
        assert_eq!(
            xy.route(mesh.node_at(0, 0), mesh.node_at(3, 0), &mut rng),
            None
        );
        // But an unaffected pair still routes.
        assert!(xy
            .route(mesh.node_at(0, 1), mesh.node_at(3, 1), &mut rng)
            .is_some());
    }
}
