//! Geometric primitives: node identifiers, coordinates, directions and turns.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a router/node in a mesh, laid out row-major
/// (`id = y * width + x`).
///
/// The numeric ordering of `NodeId` is used by the Static Bubble protocol for
/// tie-breaking (higher id wins), exactly as in the paper.
///
/// ```
/// use sb_topology::{Mesh, NodeId};
/// let mesh = Mesh::new(8, 8);
/// let node = mesh.node_at(3, 2);
/// assert_eq!(node, NodeId(19));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(v: usize) -> Self {
        NodeId(u16::try_from(v).expect("node id out of range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An (x, y) coordinate in the mesh. `x` grows eastward, `y` grows northward.
///
/// The paper's placement conditions (Section III) are expressed directly on
/// these coordinates.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Coord {
    /// Column (0-based, grows eastward).
    pub x: u16,
    /// Row (0-based, grows northward).
    pub y: u16,
}

impl Coord {
    /// Create a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to `other`.
    ///
    /// ```
    /// use sb_topology::Coord;
    /// assert_eq!(Coord::new(1, 1).manhattan(Coord::new(4, 3)), 5);
    /// ```
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// One of the four mesh directions.
///
/// A packet *travelling* `North` arrives at the neighbour's `South` input
/// port; [`Direction::opposite`] converts between the two views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// +y
    North,
    /// +x
    East,
    /// -y
    South,
    /// -x
    West,
}

/// All four directions, in a fixed arbitration order.
pub const DIRECTIONS: [Direction; 4] = [
    Direction::North,
    Direction::East,
    Direction::South,
    Direction::West,
];

impl Direction {
    /// The opposite direction.
    ///
    /// ```
    /// use sb_topology::Direction;
    /// assert_eq!(Direction::North.opposite(), Direction::South);
    /// ```
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Direction after a 90° left (counter-clockwise) turn.
    pub(crate) fn left(self) -> Direction {
        match self {
            Direction::North => Direction::West,
            Direction::West => Direction::South,
            Direction::South => Direction::East,
            Direction::East => Direction::North,
        }
    }

    /// Direction after a 90° right (clockwise) turn.
    pub(crate) fn right(self) -> Direction {
        match self {
            Direction::North => Direction::East,
            Direction::East => Direction::South,
            Direction::South => Direction::West,
            Direction::West => Direction::North,
        }
    }

    /// Stable small index (0..4) for array-backed per-direction state.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
        }
    }

    /// Inverse of [`Direction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_index(i: usize) -> Direction {
        DIRECTIONS[i]
    }

    /// The (dx, dy) unit step of this direction.
    pub(crate) fn delta(self) -> (i32, i32) {
        match self {
            Direction::North => (0, 1),
            Direction::East => (1, 0),
            Direction::South => (0, -1),
            Direction::West => (-1, 0),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Direction::North => 'N',
            Direction::East => 'E',
            Direction::South => 'S',
            Direction::West => 'W',
        };
        write!(f, "{c}")
    }
}

/// A relative turn, the 2-bit unit of the probe path encoding (Section IV-A).
///
/// Turns are relative to the current *travel* direction. U-turns (180°) are
/// not representable: the paper's design forbids them ("We assume packets
/// cannot take 180 degree, i.e., u-turns").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Turn {
    /// Continue in the same direction.
    Straight,
    /// 90° counter-clockwise.
    Left,
    /// 90° clockwise.
    Right,
}

impl Turn {
    /// The turn taken when changing travel direction `from → to`, or `None`
    /// for a (forbidden) u-turn.
    ///
    /// ```
    /// use sb_topology::{Direction, Turn};
    /// assert_eq!(Turn::between(Direction::North, Direction::West), Some(Turn::Left));
    /// assert_eq!(Turn::between(Direction::North, Direction::South), None);
    /// ```
    pub fn between(from: Direction, to: Direction) -> Option<Turn> {
        if to == from {
            Some(Turn::Straight)
        } else if to == from.left() {
            Some(Turn::Left)
        } else if to == from.right() {
            Some(Turn::Right)
        } else {
            None
        }
    }

    /// Apply this turn to a travel direction, yielding the new direction.
    pub fn apply(self, dir: Direction) -> Direction {
        match self {
            Turn::Straight => dir,
            Turn::Left => dir.left(),
            Turn::Right => dir.right(),
        }
    }

    /// Invert the turn: given the direction travelled *after* the turn,
    /// recover the direction travelled before it.
    ///
    /// ```
    /// use sb_topology::{Direction, Turn};
    /// let before = Direction::North;
    /// let after = Turn::Left.apply(before);
    /// assert_eq!(Turn::Left.unapply(after), before);
    /// ```
    pub fn unapply(self, dir: Direction) -> Direction {
        match self {
            Turn::Straight => dir,
            Turn::Left => dir.right(),
            Turn::Right => dir.left(),
        }
    }
}

impl fmt::Display for Turn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Turn::Straight => 'S',
            Turn::Left => 'L',
            Turn::Right => 'R',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involution() {
        for d in DIRECTIONS {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn left_right_cancel() {
        for d in DIRECTIONS {
            assert_eq!(d.left().right(), d);
            assert_eq!(d.right().left(), d);
        }
    }

    #[test]
    fn four_lefts_identity() {
        for d in DIRECTIONS {
            assert_eq!(d.left().left().left().left(), d);
        }
    }

    #[test]
    fn index_roundtrip() {
        for d in DIRECTIONS {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn turn_between_covers_all_non_uturns() {
        for from in DIRECTIONS {
            for to in DIRECTIONS {
                let t = Turn::between(from, to);
                if to == from.opposite() {
                    assert_eq!(t, None);
                } else {
                    assert_eq!(t.unwrap().apply(from), to);
                }
            }
        }
    }

    #[test]
    fn delta_matches_opposite() {
        for d in DIRECTIONS {
            let (dx, dy) = d.delta();
            let (ox, oy) = d.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(Coord::new(1, 2).to_string(), "(1, 2)");
        assert_eq!(Direction::North.to_string(), "N");
        assert_eq!(Turn::Left.to_string(), "L");
    }
}
