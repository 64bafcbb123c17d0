//! Source routes: the hop-by-hop port sequence a packet carries.

use sb_topology::{Direction, NodeId, Topology, Turn};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A source route: the sequence of output directions from the source router
/// to the destination router (ejection at the end is implicit).
///
/// An empty route means source == destination (pure local ejection).
///
/// ```
/// use sb_routing::Route;
/// use sb_topology::{Direction, Mesh, Topology};
/// let mesh = Mesh::new(4, 4);
/// let topo = Topology::full(mesh);
/// let route = Route::new(vec![Direction::East, Direction::North]);
/// assert_eq!(route.hops(), 2);
/// assert_eq!(route.trace(&topo, mesh.node_at(0, 0)), Some(mesh.node_at(1, 1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Route {
    hops: Vec<Direction>,
}

impl Route {
    /// Create a route from a hop sequence.
    pub fn new(hops: Vec<Direction>) -> Self {
        Route { hops }
    }

    /// Number of router-to-router hops.
    pub fn hops(&self) -> usize {
        self.hops.len()
    }

    /// The output direction at hop `i` (0 = at the source router).
    pub fn hop(&self, i: usize) -> Option<Direction> {
        self.hops.get(i).copied()
    }

    /// The hop sequence.
    pub fn directions(&self) -> &[Direction] {
        &self.hops
    }

    /// Walk the route from `src` over `topo`, returning the final router, or
    /// `None` if any hop uses a dead link.
    pub fn trace(&self, topo: &Topology, src: NodeId) -> Option<NodeId> {
        let mut cur = src;
        if !topo.router_alive(cur) {
            return None;
        }
        for &d in &self.hops {
            cur = topo.neighbor(cur, d)?;
        }
        Some(cur)
    }

    /// Does the route contain a (forbidden) u-turn?
    pub fn has_u_turn(&self) -> bool {
        self.hops
            .windows(2)
            .any(|w| Turn::between(w[0], w[1]).is_none())
    }
}

impl FromIterator<Direction> for Route {
    fn from_iter<T: IntoIterator<Item = Direction>>(iter: T) -> Self {
        Route::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hops.is_empty() {
            return write!(f, "·");
        }
        for d in &self.hops {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// A source of routes: given `(src, dst)` produce the route a packet is
/// stamped with at its network interface.
///
/// Implementations may be randomized (minimal routing picks uniformly among
/// shortest paths), hence the `&mut dyn RngCore`. The trait is object-safe so
/// simulators can hold a `Box<dyn RouteSource>`.
pub trait RouteSource {
    /// Compute a route from `src` to `dst`, or `None` if unreachable under
    /// this routing function.
    fn route(&self, src: NodeId, dst: NodeId, rng: &mut dyn rand::RngCore) -> Option<Route>;

    /// Can a packet at `src` reach `dst` at all under this routing function?
    /// Must agree with `route(src, dst, _).is_some()`.
    ///
    /// The injection path asks this once per offered packet to apply the
    /// drop-at-NI rule for unreachable destinations; the route itself is
    /// stamped lazily, when the packet reaches the head of its source
    /// queue. Implementations answer from tables built at construction
    /// (component maps, distance tables) and must not build a route to do
    /// so.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::arb_faulty_topology;
    use crate::{MinimalRouting, TreeOnlyRouting, UpDownRouting, XyRouting};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use sb_topology::Mesh;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The injection path drops a packet at the NI on `routable` alone
        /// and stamps the route later: the two must never disagree, dead
        /// routers included.
        #[test]
        fn routable_agrees_with_route_in_every_source(
            topo in arb_faulty_topology(),
            seed in any::<u64>(),
        ) {
            let sources: [(&str, Box<dyn RouteSource>); 4] = [
                ("minimal", Box::new(MinimalRouting::new(&topo))),
                ("up-down", Box::new(UpDownRouting::new(&topo))),
                ("tree-only", Box::new(TreeOnlyRouting::new(&topo))),
                ("xy", Box::new(XyRouting::new(&topo))),
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for (name, source) in &sources {
                for a in topo.mesh().nodes() {
                    for b in topo.mesh().nodes().step_by(3) {
                        let route = source.route(a, b, &mut rng);
                        prop_assert_eq!(
                            source.routable(a, b),
                            route.is_some(),
                            "{} {}->{}", name, a, b
                        );
                        if let Some(r) = route {
                            prop_assert_eq!(r.trace(&topo, a), Some(b), "{} {}->{}", name, a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trace_dead_link_fails() {
        let mesh = Mesh::new(3, 3);
        let mut topo = Topology::full(mesh);
        topo.remove_link(mesh.node_at(0, 0), Direction::East);
        let route = Route::new(vec![Direction::East]);
        assert_eq!(route.trace(&topo, mesh.node_at(0, 0)), None);
    }

    #[test]
    fn empty_route_stays_put() {
        let mesh = Mesh::new(3, 3);
        let topo = Topology::full(mesh);
        let route = Route::default();
        assert_eq!(
            route.trace(&topo, mesh.node_at(1, 1)),
            Some(mesh.node_at(1, 1))
        );
        assert_eq!(route.to_string(), "·");
    }

    #[test]
    fn u_turn_detection() {
        assert!(Route::new(vec![Direction::East, Direction::West]).has_u_turn());
        assert!(!Route::new(vec![Direction::East, Direction::North]).has_u_turn());
    }

    #[test]
    fn display_concatenates_directions() {
        let route: Route = [Direction::East, Direction::South].into_iter().collect();
        assert_eq!(route.to_string(), "ES");
    }
}
