//! The regular `n×m` mesh substrate that every topology derives from.

use crate::geom::{Coord, Direction, NodeId};
use serde::{Deserialize, Serialize};

/// A regular `width × height` mesh of routers.
///
/// The mesh is the design-time substrate of the paper: irregular topologies
/// arise by disabling routers or links of a mesh (heterogeneous tiles, faults,
/// power-gating). `Mesh` itself is a pure coordinate system; the alive/absent
/// state lives in [`crate::Topology`].
///
/// ```
/// use sb_topology::Mesh;
/// let mesh = Mesh::new(8, 8);
/// assert_eq!(mesh.node_count(), 64);
/// assert_eq!(mesh.link_count(), 112); // 2 * 7 * 8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Create a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the node count exceeds `u16`.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32 + 1,
            "mesh too large for u16 node ids"
        );
        Mesh { width, height }
    }

    /// Number of columns.
    pub fn width(self) -> u16 {
        self.width
    }

    /// Number of rows.
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of routers.
    pub fn node_count(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total number of (bidirectional) mesh links.
    pub fn link_count(self) -> usize {
        let w = self.width as usize;
        let h = self.height as usize;
        (w - 1) * h + w * (h - 1)
    }

    /// The node at column `x`, row `y`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "coordinate out of mesh");
        NodeId(y * self.width + x)
    }

    /// The coordinate of `node`.
    pub fn coord(self, node: NodeId) -> Coord {
        debug_assert!(node.index() < self.node_count());
        Coord::new(node.0 % self.width, node.0 / self.width)
    }

    /// The neighbour of `node` in direction `dir`, if it exists on the mesh.
    ///
    /// ```
    /// use sb_topology::{Mesh, Direction};
    /// let mesh = Mesh::new(4, 4);
    /// let n = mesh.node_at(0, 0);
    /// assert!(mesh.neighbor(n, Direction::West).is_none());
    /// assert_eq!(mesh.neighbor(n, Direction::East), Some(mesh.node_at(1, 0)));
    /// ```
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let (dx, dy) = dir.delta();
        let nx = c.x as i32 + dx;
        let ny = c.y as i32 + dy;
        if nx < 0 || ny < 0 || nx >= self.width as i32 || ny >= self.height as i32 {
            None
        } else {
            Some(self.node_at(nx as u16, ny as u16))
        }
    }

    /// The direction from `from` to an adjacent node `to`, if adjacent.
    pub fn direction_between(self, from: NodeId, to: NodeId) -> Option<Direction> {
        crate::geom::DIRECTIONS
            .into_iter()
            .find(|&d| self.neighbor(from, d) == Some(to))
    }

    /// Iterate over all node ids, row-major.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u16).map(NodeId)
    }

    /// Iterate over all bidirectional links as `(node, direction)` pairs with
    /// the canonical orientation (East and North only), each link once.
    pub(crate) fn links(self) -> impl Iterator<Item = (NodeId, Direction)> {
        let mesh = self;
        mesh.nodes().flat_map(move |n| {
            [Direction::East, Direction::North]
                .into_iter()
                .filter(move |&d| mesh.neighbor(n, d).is_some())
                .map(move |d| (n, d))
        })
    }

    /// Manhattan distance between two nodes on the full mesh.
    pub fn manhattan(self, a: NodeId, b: NodeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::DIRECTIONS;

    #[test]
    fn coord_roundtrip() {
        let mesh = Mesh::new(8, 8);
        for n in mesh.nodes() {
            let c = mesh.coord(n);
            assert_eq!(mesh.node_at(c.x, c.y), n);
        }
    }

    #[test]
    fn neighbor_symmetry() {
        let mesh = Mesh::new(5, 3);
        for n in mesh.nodes() {
            for d in DIRECTIONS {
                if let Some(m) = mesh.neighbor(n, d) {
                    assert_eq!(mesh.neighbor(m, d.opposite()), Some(n));
                    assert_eq!(mesh.direction_between(n, m), Some(d));
                }
            }
        }
    }

    #[test]
    fn link_count_matches_enumeration() {
        for (w, h) in [(1u16, 1u16), (2, 2), (8, 8), (4, 7), (16, 16)] {
            let mesh = Mesh::new(w, h);
            assert_eq!(mesh.links().count(), mesh.link_count());
        }
    }

    #[test]
    fn corner_nodes_have_two_neighbors() {
        let mesh = Mesh::new(8, 8);
        let corner = mesh.node_at(0, 0);
        let n: Vec<_> = DIRECTIONS
            .into_iter()
            .filter_map(|d| mesh.neighbor(corner, d))
            .collect();
        assert_eq!(n.len(), 2);
    }

    #[test]
    #[should_panic(expected = "coordinate out of mesh")]
    fn node_at_out_of_range_panics() {
        Mesh::new(4, 4).node_at(4, 0);
    }

    #[test]
    fn manhattan_distance() {
        let mesh = Mesh::new(8, 8);
        assert_eq!(mesh.manhattan(mesh.node_at(0, 0), mesh.node_at(7, 7)), 14);
    }
}
