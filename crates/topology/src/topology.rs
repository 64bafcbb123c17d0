//! Irregular topologies: a mesh with some routers and/or links absent.

use crate::geom::{Direction, NodeId, DIRECTIONS};
use crate::mesh::Mesh;
use serde::{Deserialize, Serialize};

/// A bidirectional mesh link, in canonical orientation (East or North from
/// `node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Link {
    /// The endpoint with the lower coordinate.
    pub node: NodeId,
    /// `East` or `North`.
    pub dir: Direction,
}

impl Link {
    /// Canonicalize an arbitrary `(node, direction)` pair to the unique
    /// representative of the bidirectional link, given the mesh.
    ///
    /// Returns `None` if the link falls off the mesh edge.
    pub fn canonical(mesh: Mesh, node: NodeId, dir: Direction) -> Option<Link> {
        let other = mesh.neighbor(node, dir)?;
        Some(match dir {
            Direction::East | Direction::North => Link { node, dir },
            Direction::West | Direction::South => Link {
                node: other,
                dir: dir.opposite(),
            },
        })
    }
}

/// An irregular topology derived from a [`Mesh`] by disabling routers and
/// links.
///
/// "Disabled" uniformly models the three sources of irregularity in the
/// paper: heterogeneous tiles carved out at design time, faulty components,
/// and power-gated components. A link is *usable* only if its link bit is set
/// **and** both endpoint routers are alive (a dead router takes its ports
/// with it).
///
/// ```
/// use sb_topology::{Mesh, Topology, Direction};
/// let mesh = Mesh::new(4, 4);
/// let mut topo = Topology::full(mesh);
/// let n = mesh.node_at(1, 1);
/// topo.remove_link(n, Direction::East);
/// assert!(!topo.link_alive(n, Direction::East));
/// assert!(!topo.link_alive(mesh.node_at(2, 1), Direction::West));
/// topo.remove_router(n);
/// assert!(!topo.link_alive(n, Direction::North));
/// assert_eq!(topo.neighbor(n, Direction::North), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    mesh: Mesh,
    /// Router alive bits, indexed by node id.
    routers: Vec<bool>,
    /// Link bits per node per direction (kept symmetric across endpoints).
    links: Vec<[bool; 4]>,
    /// The far end of every usable link, `adj[node][dir]`; the node's own id
    /// where there is none (no router is its own neighbour, and every `u16`
    /// is a valid id on the largest mesh). Derived from the three fields
    /// above and re-derived link by link by every mutator
    /// ([`Topology::patch`]), so that the per-cycle questions — who is across
    /// this port, is this link usable — are one load and no arithmetic. Not
    /// part of the serialised form.
    adj: Vec<[NodeId; 4]>,
}

/// What a [`Topology`] is on the wire: the state it cannot re-derive.
#[derive(Serialize, Deserialize)]
struct TopologyBits {
    mesh: Mesh,
    routers: Vec<bool>,
    links: Vec<[bool; 4]>,
}

impl Serialize for Topology {
    fn to_value(&self) -> Result<serde::Value, serde::Error> {
        TopologyBits {
            mesh: self.mesh,
            routers: self.routers.clone(),
            links: self.links.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Topology {
    fn from_value(value: serde::Value) -> Result<Self, serde::Error> {
        let TopologyBits {
            mesh,
            routers,
            links,
        } = TopologyBits::from_value(value)?;
        let n = mesh.node_count();
        if routers.len() != n || links.len() != n {
            return Err(serde::Error(format!(
                "topology of a {n}-router mesh with {} router bits and {} link rows",
                routers.len(),
                links.len()
            )));
        }
        let mut topo = Topology::full(mesh);
        topo.routers = routers;
        topo.links = links;
        for (node, dir) in mesh.links() {
            topo.patch(node, dir);
        }
        Ok(topo)
    }
}

impl Topology {
    /// The fully-functional mesh: all routers and links alive.
    pub fn full(mesh: Mesh) -> Self {
        let n = mesh.node_count();
        let mut links = vec![[false; 4]; n];
        let mut adj: Vec<[NodeId; 4]> = mesh.nodes().map(|node| [node; 4]).collect();
        for node in mesh.nodes() {
            for dir in DIRECTIONS {
                if let Some(other) = mesh.neighbor(node, dir) {
                    links[node.index()][dir.index()] = true;
                    adj[node.index()][dir.index()] = other;
                }
            }
        }
        Topology {
            mesh,
            routers: vec![true; n],
            links,
            adj,
        }
    }

    /// Re-derive both `adj` entries of the link `(node, dir)` from the link
    /// bit and the two router bits. Nothing off the mesh edge.
    fn patch(&mut self, node: NodeId, dir: Direction) {
        let Some(other) = self.mesh.neighbor(node, dir) else {
            return;
        };
        let usable = self.links[node.index()][dir.index()]
            && self.routers[node.index()]
            && self.routers[other.index()];
        let (there, back) = if usable { (other, node) } else { (node, other) };
        self.adj[node.index()][dir.index()] = there;
        self.adj[other.index()][dir.opposite().index()] = back;
    }

    /// The underlying mesh substrate.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Is this router alive (present, fault-free and powered)?
    #[inline]
    pub fn router_alive(&self, node: NodeId) -> bool {
        self.routers[node.index()]
    }

    /// Is the topology fully functional — every router alive and every
    /// in-mesh link usable? Pristine meshes admit closed-form answers
    /// (Manhattan distances, coordinate-derived minimal next hops) that
    /// routing layers use as fast paths.
    pub fn is_pristine(&self) -> bool {
        self.routers.iter().all(|&r| r) && self.alive_links().count() == self.mesh.link_count()
    }

    /// The router across the usable link out of `node` towards `dir`:
    /// `None` if the link bit is off, either endpoint router is dead, or the
    /// mesh ends there.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let other = self.adj[node.index()][dir.index()];
        (other != node).then_some(other)
    }

    /// Is the link out of `node` towards `dir` usable?
    ///
    /// Requires the link bit set and both endpoint routers alive; always
    /// `false` off the mesh edge.
    #[inline]
    pub fn link_alive(&self, node: NodeId, dir: Direction) -> bool {
        self.neighbor(node, dir).is_some()
    }

    /// Disable the bidirectional link `(node, dir)`.
    ///
    /// Idempotent. Does nothing if the link falls off the mesh edge.
    pub fn remove_link(&mut self, node: NodeId, dir: Direction) {
        if let Some(other) = self.mesh.neighbor(node, dir) {
            self.links[node.index()][dir.index()] = false;
            self.links[other.index()][dir.opposite().index()] = false;
            self.patch(node, dir);
        }
    }

    /// Disable a router (fault or power-gating). Its links become unusable
    /// but their bits are preserved.
    pub fn remove_router(&mut self, node: NodeId) {
        self.routers[node.index()] = false;
        for dir in DIRECTIONS {
            self.patch(node, dir);
        }
    }

    /// Disable every router inside the rectangle `[x0, x0+w) × [y0, y0+h)`,
    /// modelling a large heterogeneous tile (accelerator/GPU) that replaces a
    /// block of mesh routers at design time (Fig. 1(a)).
    ///
    /// # Panics
    ///
    /// Panics if the rectangle does not fit in the mesh.
    pub fn carve_tile(&mut self, x0: u16, y0: u16, w: u16, h: u16) {
        assert!(
            x0 + w <= self.mesh.width() && y0 + h <= self.mesh.height(),
            "tile rectangle out of mesh"
        );
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                self.remove_router(self.mesh.node_at(x, y));
            }
        }
    }

    /// Iterate over alive routers.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.mesh.nodes().filter(move |&n| self.router_alive(n))
    }

    /// Number of alive routers.
    pub fn alive_node_count(&self) -> usize {
        self.routers.iter().filter(|&&b| b).count()
    }

    /// Iterate over usable links in canonical orientation.
    pub fn alive_links(&self) -> impl Iterator<Item = Link> + '_ {
        self.mesh.nodes().flat_map(move |node| {
            [Direction::East, Direction::North]
                .into_iter()
                .filter(move |&dir| self.link_alive(node, dir))
                .map(move |dir| Link { node, dir })
        })
    }

    /// The alive neighbours of `node` (via usable links), with directions.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (Direction, NodeId)> + '_ {
        DIRECTIONS
            .into_iter()
            .zip(self.adj[node.index()])
            .filter(move |&(_, other)| other != node)
    }

    /// Degree of `node` in the surviving graph.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).count()
    }

    /// Render the topology as ASCII art (routers as `o`/`x`, links as
    /// `-`/`|`), row `height-1` on top. Handy in examples and failing tests.
    pub fn ascii_art(&self) -> String {
        let mesh = self.mesh;
        let mut out = String::new();
        for y in (0..mesh.height()).rev() {
            // Router row.
            for x in 0..mesh.width() {
                let n = mesh.node_at(x, y);
                out.push(if self.router_alive(n) { 'o' } else { 'x' });
                if x + 1 < mesh.width() {
                    out.push_str(if self.link_alive(n, Direction::East) {
                        "--"
                    } else {
                        "  "
                    });
                }
            }
            out.push('\n');
            // Vertical-link row.
            if y > 0 {
                for x in 0..mesh.width() {
                    let n = mesh.node_at(x, y);
                    out.push(if self.link_alive(n, Direction::South) {
                        '|'
                    } else {
                        ' '
                    });
                    if x + 1 < mesh.width() {
                        out.push_str("  ");
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Topology {
        /// The definition `adj` caches, by arithmetic on the primary bits.
        fn neighbor_by_definition(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
            let other = self.mesh.neighbor(node, dir)?;
            let usable = self.links[node.index()][dir.index()]
                && self.routers[node.index()]
                && self.routers[other.index()];
            usable.then_some(other)
        }

        /// Every query the table answers, held against the definition.
        fn check_adjacency(&self) -> Result<(), TestCaseError> {
            let mut links = Vec::new();
            for node in self.mesh.nodes() {
                let mut around = Vec::new();
                for dir in DIRECTIONS {
                    let expect = self.neighbor_by_definition(node, dir);
                    prop_assert_eq!(self.neighbor(node, dir), expect, "{} {:?}", node, dir);
                    prop_assert_eq!(self.link_alive(node, dir), expect.is_some());
                    around.extend(expect.map(|other| (dir, other)));
                }
                prop_assert_eq!(self.degree(node), around.len());
                prop_assert_eq!(self.neighbors(node).collect::<Vec<_>>(), around);
                for dir in [Direction::East, Direction::North] {
                    if self.neighbor_by_definition(node, dir).is_some() {
                        links.push(Link { node, dir });
                    }
                }
            }
            prop_assert_eq!(self.is_pristine(), links.len() == self.mesh.link_count());
            prop_assert_eq!(self.alive_links().collect::<Vec<_>>(), links);
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The mutators patch the table; none of them rebuilds it. Whatever
        /// the order — re-removing, removing a link under a dead endpoint,
        /// edge nodes and off-mesh directions included — it stays equal to
        /// the definition, and it never reaches the serialised form.
        fn adjacency_equals_its_definition_after_every_mutation(
            (w, h) in (4u16..=16, 4u16..=16),
            seed in any::<u64>(),
        ) {
            let mesh = Mesh::new(w, h);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut topo = Topology::full(mesh);
            topo.check_adjacency()?;
            for _ in 0..40 {
                let node = NodeId(rng.gen_range(0..mesh.node_count() as u16));
                let dir = DIRECTIONS[rng.gen_range(0..4usize)];
                match rng.gen_range(0..6u8) {
                    0..=2 => topo.remove_link(node, dir),
                    3 | 4 => topo.remove_router(node),
                    _ => {
                        let c = mesh.coord(node);
                        let (tw, th) = (rng.gen_range(1..=w - c.x), rng.gen_range(1..=h - c.y));
                        topo.carve_tile(c.x, c.y, tw.min(3), th.min(3));
                    }
                }
                topo.check_adjacency()?;
            }
            let value = topo.to_value().expect("serialises");
            let serde::Value::Map(entries) = &value else {
                panic!("a topology is a map, got {value:?}");
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            prop_assert_eq!(keys, ["mesh", "routers", "links"]);
            let back = Topology::from_value(value).expect("deserialises");
            back.check_adjacency()?;
            prop_assert_eq!(back, topo);
        }
    }

    #[test]
    fn a_topology_of_the_wrong_size_is_refused() {
        let serde::Value::Map(mut entries) = Topology::full(Mesh::new(3, 3)).to_value().unwrap()
        else {
            panic!("a topology is a map");
        };
        entries[0].1 = Mesh::new(4, 4).to_value().unwrap();
        let err = Topology::from_value(serde::Value::Map(entries)).unwrap_err();
        assert!(err.0.contains("16-router mesh with 9 router bits"), "{err}");
    }

    #[test]
    fn full_topology_has_all_links() {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        assert_eq!(topo.alive_links().count(), mesh.link_count());
        assert_eq!(topo.alive_node_count(), 64);
    }

    #[test]
    fn a_removed_link_is_dead_from_both_ends() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        let n = mesh.node_at(2, 2);
        topo.remove_link(n, Direction::West);
        assert!(!topo.link_alive(n, Direction::West));
        assert!(!topo.link_alive(mesh.node_at(1, 2), Direction::East));
        assert_eq!(topo.alive_links().count(), mesh.link_count() - 1);
    }

    #[test]
    fn dead_router_kills_incident_links() {
        let mesh = Mesh::new(4, 4);
        let mut topo = Topology::full(mesh);
        let n = mesh.node_at(1, 1);
        let full = Topology::full(mesh);
        topo.remove_router(n);
        assert_eq!(topo.degree(n), 0);
        for (_, m) in full.neighbors(n) {
            assert_eq!(topo.degree(m), full.degree(m) - 1);
        }
    }

    #[test]
    fn edge_links_never_alive() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        assert!(!topo.link_alive(mesh.node_at(0, 0), Direction::West));
        assert!(!topo.link_alive(mesh.node_at(3, 3), Direction::North));
    }

    #[test]
    fn carve_tile_removes_block() {
        let mesh = Mesh::new(8, 8);
        let mut topo = Topology::full(mesh);
        topo.carve_tile(2, 2, 3, 2);
        assert_eq!(topo.alive_node_count(), 64 - 6);
    }

    #[test]
    #[should_panic(expected = "tile rectangle out of mesh")]
    fn carve_tile_out_of_range() {
        let mesh = Mesh::new(4, 4);
        Topology::full(mesh).carve_tile(3, 3, 2, 2);
    }

    #[test]
    fn canonical_link_identities() {
        let mesh = Mesh::new(4, 4);
        let a = mesh.node_at(1, 1);
        let b = mesh.node_at(2, 1);
        let l1 = Link::canonical(mesh, a, Direction::East).unwrap();
        let l2 = Link::canonical(mesh, b, Direction::West).unwrap();
        assert_eq!(l1, l2);
        assert_eq!(
            Link::canonical(mesh, mesh.node_at(0, 0), Direction::West),
            None
        );
    }

    #[test]
    fn ascii_art_shape() {
        let mesh = Mesh::new(3, 2);
        let art = Topology::full(mesh).ascii_art();
        assert_eq!(art, "o--o--o\n|  |  |\no--o--o\n");
    }
}
