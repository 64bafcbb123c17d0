//! Up*/down* spanning-tree routing (Autonet), the paper's baseline for
//! deadlock *avoidance* on irregular topologies.
//!
//! A BFS spanning tree is built per connected component; every link gets an
//! *up* end (the endpoint closer to the root, ties to the lower node id) and
//! a *down* end. A legal route traverses zero or more up moves followed by
//! zero or more down moves — the forbidden down→up turn is what breaks every
//! cyclic dependency. All cross-component pairs are unroutable.
//!
//! Routes returned here are *shortest legal* paths, computed by BFS over the
//! `(node, has-gone-down)` state graph. Legality is suffix-closed, so a
//! packet stamped with such a route (including mid-flight re-stamping when a
//! packet enters the escape network) can never participate in a down→up
//! dependency.
//!
//! The BFS runs once per *source*, on that source's first query: its full
//! predecessor tree is memoised in one byte per state, and every later route
//! from that source is a walk back from the destination — the table-driven
//! NI the paper assumes (Section II-D), filled on demand.

use crate::route::{Route, RouteSource};

use sb_topology::{
    connected_components, distances_from, ComponentMap, Direction, NodeId, Topology, DIRECTIONS,
};
use std::sync::OnceLock;

// One byte of a memoised BFS tree describes how the search first entered a
// `(node, gone_down)` state; `0` means the state is unreachable.
/// The state was reached (keeps the byte non-zero for the start state).
const REACHED: u8 = 0x80;
/// Of the node's two states, this one was discovered first.
const FIRST: u8 = 0x08;
/// The predecessor state had already gone down.
const PREV_DOWN: u8 = 0x04;
/// [`Direction::index`] of the move into the state.
const DIR_MASK: u8 = 0x03;

/// Up-down routing over an irregular topology.
///
/// ```
/// use sb_routing::{RouteSource, UpDownRouting};
/// use sb_topology::{Mesh, Topology};
/// use rand::SeedableRng;
///
/// let mesh = Mesh::new(8, 8);
/// let routing = UpDownRouting::new(&Topology::full(mesh));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let route = routing
///     .route(mesh.node_at(0, 0), mesh.node_at(7, 0), &mut rng)
///     .expect("same component");
/// // Up-down may be forced through the tree: never shorter than minimal.
/// assert!(route.hops() >= 7);
/// ```
#[derive(Debug, Clone)]
pub struct UpDownRouting {
    topo: Topology,
    components: ComponentMap,
    /// BFS level from the component root; `None` for dead routers.
    level: Vec<Option<u32>>,
    /// Per node, one byte of move masks: bit [`Direction::index`] of the
    /// low nibble set iff that link is usable, of the high nibble iff the
    /// move along it is up. Filled by the first [`RouteSource::route`] call,
    /// like the trees it serves.
    moves: OnceLock<Box<[u8]>>,
    /// Per-source BFS predecessor trees over the `(node, gone_down)` state
    /// graph (state index `node * 2 + gone_down`), built by the source's
    /// first [`RouteSource::route`] call — never at construction, so a
    /// source that sends nothing costs nothing.
    trees: Vec<OnceLock<Box<[u8]>>>,
}

impl UpDownRouting {
    /// Build the spanning trees — one per component, rooted at its
    /// lowest-id alive node, as Ariadne's distributed construction roots
    /// the tree at an effectively arbitrary "winner" — and the up/down link
    /// orientation.
    pub fn new(topo: &Topology) -> Self {
        let components = connected_components(topo);
        let mut level = vec![None; topo.mesh().node_count()];
        for c in 0..components.count() {
            let root = components
                .members(c)
                .next()
                .expect("component is non-empty");
            for (i, d) in distances_from(topo, root).into_iter().enumerate() {
                if components.component_of(NodeId::from(i)) == Some(c) {
                    level[i] = d;
                }
            }
        }
        UpDownRouting {
            topo: topo.clone(),
            components,
            level,
            moves: OnceLock::new(),
            trees: vec![OnceLock::new(); topo.mesh().node_count()],
        }
    }

    /// Every node's usable and up directions, packed as the `moves` field
    /// holds them.
    fn move_masks(&self) -> Box<[u8]> {
        (self.topo.mesh().nodes())
            .map(|node| {
                DIRECTIONS.into_iter().fold(0, |masks, dir| {
                    masks
                        | match self.is_up_move(node, dir) {
                            None => 0,
                            Some(false) => 1 << dir.index(),
                            Some(true) => 0x11 << dir.index(),
                        }
                })
            })
            .collect()
    }

    /// The full BFS from `src` over `(node, gone_down)` states, one byte per
    /// state. Discovery order — hence every predecessor, and which of a
    /// node's two states is found first — is that of a search that stops at
    /// its destination, so walking back from a node's [`FIRST`] state yields
    /// the route such a search returns.
    fn build_tree(&self, src: NodeId) -> Box<[u8]> {
        let moves = self.moves.get_or_init(|| self.move_masks());
        let adj = self.topo.adjacency();
        let states = self.topo.mesh().node_count() * 2;
        let mut tree = vec![0u8; states].into_boxed_slice();
        let start = src.index() * 2;
        tree[start] = REACHED | FIRST;
        // Every state is queued at most once.
        let mut queue = vec![0; states];
        queue[0] = start;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let state = queue[head];
            head += 1;
            let node = state / 2;
            let gone_down = state % 2 == 1;
            let (alive, up) = (moves[node] & 0xF, moves[node] >> 4);
            // Once down, an up move is illegal.
            let mut legal = if gone_down { alive & !up } else { alive };
            while legal != 0 {
                let dir = legal.trailing_zeros() as usize;
                legal &= legal - 1;
                let down = gone_down || up >> dir & 1 == 0;
                let next_state = adj[node][dir].index() * 2 + usize::from(down);
                if tree[next_state] != 0 {
                    continue;
                }
                let first = if tree[next_state ^ 1] == 0 { FIRST } else { 0 };
                let prev_down = if gone_down { PREV_DOWN } else { 0 };
                tree[next_state] = REACHED | first | prev_down | dir as u8;
                queue[tail] = next_state;
                tail += 1;
            }
        }
        tree
    }

    /// Is the move from `node` along alive link `dir` an *up* move (towards
    /// the up end of that link)? `None` for dead links.
    pub(crate) fn is_up_move(&self, node: NodeId, dir: Direction) -> Option<bool> {
        let other = self.topo.neighbor(node, dir)?;
        let (ln, lo) = (self.level[node.index()]?, self.level[other.index()]?);
        // The up end is the endpoint closer to the root, ties to lower id.
        Some(match lo.cmp(&ln) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => other < node,
        })
    }

    /// Is `route` (starting at `src`) legal under the up*/down* rule?
    pub fn is_legal(&self, src: NodeId, route: &Route) -> bool {
        let mut cur = src;
        let mut gone_down = false;
        for &d in route.directions() {
            match self.is_up_move(cur, d) {
                Some(true) if gone_down => return false,
                Some(up) => gone_down |= !up,
                None => return false,
            }
            cur = self.topo.neighbor(cur, d).expect("checked alive");
        }
        true
    }
}

impl RouteSource for UpDownRouting {
    /// Shortest legal up*/down* route; deterministic (ignores `rng`).
    fn route(&self, src: NodeId, dst: NodeId, _rng: &mut dyn rand::RngCore) -> Option<Route> {
        if !self.routable(src, dst) {
            return None;
        }
        if src == dst {
            return Some(Route::default());
        }
        let tree = self.trees[src.index()].get_or_init(|| self.build_tree(src));
        let mesh = self.topo.mesh();
        let start = src.index() * 2;
        let mut state = dst.index() * 2;
        if tree[state] & FIRST == 0 {
            state += 1;
            if tree[state] & FIRST == 0 {
                return None;
            }
        }
        let mut hops = Vec::with_capacity(usize::from(mesh.width() + mesh.height()));
        while state != start {
            let entry = tree[state];
            let dir = Direction::from_index(usize::from(entry & DIR_MASK));
            hops.push(dir);
            let prev = (self.topo)
                .neighbor(NodeId::from(state / 2), dir.opposite())
                .expect("tree edge");
            state = prev.index() * 2 + usize::from(entry & PREV_DOWN != 0);
        }
        hops.reverse();
        Some(Route::new(hops))
    }

    /// Every same-component pair has a legal route (up to the root, then
    /// down), and no other pair has any.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        self.components.connected(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::arb_faulty_topology;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh};

    impl UpDownRouting {
        /// The reference the memoised trees must reproduce: a fresh BFS over
        /// `(node, gone_down)` states per call, stopping at the first state
        /// of `dst` it discovers.
        fn route_by_search(&self, src: NodeId, dst: NodeId) -> Option<Route> {
            if self.components.component_of(src)? != self.components.component_of(dst)? {
                return None;
            }
            if src == dst {
                return Some(Route::default());
            }
            let n = self.topo.mesh().node_count();
            let mut prev: Vec<Option<(usize, Direction)>> = vec![None; n * 2];
            let mut visited = vec![false; n * 2];
            let start = src.index() * 2;
            visited[start] = true;
            let mut queue = std::collections::VecDeque::from([start]);
            let mut goal: Option<usize> = None;
            'bfs: while let Some(state) = queue.pop_front() {
                let node = NodeId::from(state / 2);
                let gone_down = state % 2 == 1;
                for dir in DIRECTIONS {
                    let Some(up) = self.is_up_move(node, dir) else {
                        continue;
                    };
                    if gone_down && up {
                        continue;
                    }
                    let next_node = self.topo.neighbor(node, dir).expect("alive link");
                    let next_state = next_node.index() * 2 + usize::from(gone_down || !up);
                    if visited[next_state] {
                        continue;
                    }
                    visited[next_state] = true;
                    prev[next_state] = Some((state, dir));
                    if next_node == dst {
                        goal = Some(next_state);
                        break 'bfs;
                    }
                    queue.push_back(next_state);
                }
            }
            let mut state = goal?;
            let mut hops = Vec::new();
            while let Some((p, dir)) = prev[state] {
                hops.push(dir);
                state = p;
            }
            hops.reverse();
            Some(Route::new(hops))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The memoised trees are an optimisation only: every pair gets the
        /// route the per-call search returns, in whatever order sources are
        /// first queried, and a clone (trees built or not) routes the same.
        #[test]
        fn memoised_routes_equal_the_search(topo in arb_faulty_topology()) {
            let routing = UpDownRouting::new(&topo);
            let cold = routing.clone();
            let mut rng = StdRng::seed_from_u64(0);
            let nodes: Vec<NodeId> = topo.mesh().nodes().collect();
            // Destinations outermost, so trees are built interleaved.
            for &b in &nodes {
                for &a in &nodes {
                    let route = routing.route(a, b, &mut rng);
                    prop_assert_eq!(&route, &routing.route_by_search(a, b), "{}->{}", a, b);
                    prop_assert_eq!(routing.routable(a, b), route.is_some());
                    if let Some(r) = &route {
                        prop_assert_eq!(r.trace(&topo, a), Some(b));
                        prop_assert!(routing.is_legal(a, r), "illegal {} from {}", r, a);
                    }
                }
            }
            let warm = routing.clone();
            for &a in nodes.iter().step_by(3) {
                for &b in nodes.iter().step_by(2) {
                    let route = routing.route(a, b, &mut rng);
                    prop_assert_eq!(&cold.route(a, b, &mut rng), &route);
                    prop_assert_eq!(&warm.route(a, b, &mut rng), &route);
                }
            }
        }
    }

    fn all_pairs_routes(routing: &UpDownRouting) -> Vec<(NodeId, Route)> {
        let mesh = routing.topo.mesh();
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if let Some(r) = routing.route(a, b, &mut rng) {
                    out.push((a, r));
                }
            }
        }
        out
    }

    #[test]
    fn full_mesh_routes_exist_and_are_legal() {
        let mesh = Mesh::new(6, 6);
        let topo = Topology::full(mesh);
        let routing = UpDownRouting::new(&topo);
        let routes = all_pairs_routes(&routing);
        assert_eq!(routes.len(), 36 * 36);
        for (src, r) in &routes {
            assert!(routing.is_legal(*src, r), "illegal route {r} from {src}");
            assert!(!r.has_u_turn());
        }
    }

    #[test]
    fn routes_connect_components_only() {
        let mesh = Mesh::new(4, 2);
        let mut topo = Topology::full(mesh);
        for y in 0..2 {
            topo.remove_link(mesh.node_at(1, y), Direction::East);
        }
        let routing = UpDownRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(routing
            .route(mesh.node_at(0, 0), mesh.node_at(1, 1), &mut rng)
            .is_some());
        assert!(routing
            .route(mesh.node_at(0, 0), mesh.node_at(2, 0), &mut rng)
            .is_none());
    }

    #[test]
    fn up_down_reaches_everything_under_heavy_faults() {
        let mesh = Mesh::new(8, 8);
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = FaultModel::new(FaultKind::Links, 30).inject(mesh, &mut rng);
            let routing = UpDownRouting::new(&topo);
            let comps = connected_components(&topo);
            for a in topo.alive_nodes() {
                for b in topo.alive_nodes() {
                    let connected = comps.connected(a, b);
                    let route = routing.route(a, b, &mut rng);
                    assert_eq!(route.is_some(), connected, "{a}->{b}");
                    if let Some(r) = route {
                        assert_eq!(r.trace(&topo, a), Some(b));
                        assert!(routing.is_legal(a, &r));
                    }
                }
            }
        }
    }

    #[test]
    fn up_move_orientation_antisymmetric() {
        let mesh = Mesh::new(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let topo = FaultModel::new(FaultKind::Routers, 10).inject(mesh, &mut rng);
        let routing = UpDownRouting::new(&topo);
        for n in topo.alive_nodes() {
            for (dir, m) in topo.neighbors(n) {
                let a = routing.is_up_move(n, dir).unwrap();
                let b = routing.is_up_move(m, dir.opposite()).unwrap();
                assert_ne!(a, b, "link {n}-{m} oriented both ways");
            }
        }
    }

    #[test]
    fn root_has_level_zero_and_only_down_moves_out() {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        let routing = UpDownRouting::new(&topo);
        // Default policy roots at the lowest alive id.
        let root = NodeId(0);
        assert_eq!(routing.level[root.index()], Some(0));
        for (dir, _) in topo.neighbors(root) {
            assert_eq!(routing.is_up_move(root, dir), Some(false));
        }
    }

    #[test]
    fn detour_through_tree_can_exceed_minimal() {
        // The motivating example of Fig. 1: some flows are forced through the
        // tree and become non-minimal on irregular topologies.
        let mesh = Mesh::new(8, 8);
        let mut stretched = 0;
        let mut rng = StdRng::seed_from_u64(0);
        for seed in 0..5u64 {
            let mut trng = StdRng::seed_from_u64(seed);
            let topo = FaultModel::new(FaultKind::Links, 20).inject(mesh, &mut trng);
            let routing = UpDownRouting::new(&topo);
            let minimal = crate::MinimalRouting::new(&topo);
            for a in topo.alive_nodes() {
                for b in topo.alive_nodes() {
                    let Some(min) = minimal.distance(a, b) else {
                        continue;
                    };
                    let ud = routing.route(a, b, &mut rng).unwrap().hops() as u32;
                    assert!(ud >= min);
                    if ud > min {
                        stretched += 1;
                    }
                }
            }
        }
        assert!(
            stretched > 0,
            "up-down should stretch some pairs on irregular topologies"
        );
    }
}
