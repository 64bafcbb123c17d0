//! The four special messages of the Static Bubble protocol (Section IV).
//!
//! All special messages are single-flit, bufferless (forwarded or dropped in
//! the cycle they arrive, never stored), travel on the regular links with
//! priority over flits, and take 1 cycle of router processing + 1 cycle of
//! link traversal per hop. A probe *accumulates* the turn it takes at every
//! router; disable / check-probe / enable carry the latched turn list and
//! *strip* the front turn at each hop.

use sb_topology::{Direction, NodeId, Turn};
use serde::Serialize;

/// Maximum turns a special message can carry: with 128-bit links, 3 bits of
/// message type and 6 bits of sender id, 59 two-bit turns fit (Section IV-B,
/// "Can a probe loop around infinitely?").
pub(crate) const TURN_CAPACITY: usize = 59;

/// The kind of a special message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MsgKind {
    /// Trace a suspected dependence chain (forked at every router).
    Probe,
    /// Freeze the confirmed chain: set `is_deadlock` + IO-priority buffers.
    Disable,
    /// Re-check the chain after one recovery step (not forked).
    CheckProbe,
    /// Release the chain: clear `is_deadlock` + IO-priority buffers.
    Enable,
}

impl MsgKind {
    /// Output-mux priority (Section IV-C):
    /// `check_probe > disable/enable > probe` (flits are below all).
    pub(crate) fn priority(self) -> u8 {
        match self {
            MsgKind::CheckProbe => 3,
            MsgKind::Disable | MsgKind::Enable => 2,
            MsgKind::Probe => 1,
        }
    }

    /// The statistics class of this message kind.
    pub fn stat_class(self) -> sb_sim::SpecialClass {
        match self {
            MsgKind::Probe => sb_sim::SpecialClass::Probe,
            MsgKind::Disable => sb_sim::SpecialClass::Disable,
            MsgKind::CheckProbe => sb_sim::SpecialClass::CheckProbe,
            MsgKind::Enable => sb_sim::SpecialClass::Enable,
        }
    }
}

/// A special message in flight or being processed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpecialMsg {
    /// Message type.
    pub kind: MsgKind,
    /// The static-bubble router that originated it (ties break to the
    /// higher id everywhere in the protocol).
    pub sender: NodeId,
    /// The virtual network whose buffer-dependence chain is being traced
    /// (dependence cycles never span vnets).
    pub vnet: u8,
    /// Turn list: accumulated (probe) or remaining (others).
    pub turns: Vec<Turn>,
}

impl SpecialMsg {
    /// A fresh probe with an empty turn list.
    pub(crate) fn probe(sender: NodeId, vnet: u8) -> Self {
        SpecialMsg {
            kind: MsgKind::Probe,
            sender,
            vnet,
            turns: Vec::new(),
        }
    }

    /// A disable / check-probe / enable carrying the latched path.
    pub(crate) fn with_path(kind: MsgKind, sender: NodeId, vnet: u8, turns: Vec<Turn>) -> Self {
        debug_assert!(kind != MsgKind::Probe);
        SpecialMsg {
            kind,
            sender,
            vnet,
            turns,
        }
    }

    /// Probe: append the turn taken at this router; `false` (drop) if the
    /// turn capacity is exhausted.
    #[must_use]
    pub(crate) fn push_turn(&mut self, turn: Turn) -> bool {
        if self.turns.len() >= TURN_CAPACITY {
            return false;
        }
        self.turns.push(turn);
        true
    }

    /// Disable/check-probe/enable: strip the front turn and yield the output
    /// direction at a router entered while travelling `travel`.
    ///
    /// Returns `None` when no turns remain (the message is back at its
    /// sender).
    pub(crate) fn strip_turn(&mut self, travel: Direction) -> Option<Direction> {
        if self.turns.is_empty() {
            return None;
        }
        let turn = self.turns.remove(0);
        Some(turn.apply(travel))
    }

    /// Reconstruct the output direction the probe was originally sent from,
    /// given the direction it was travelling when it arrived back at its
    /// sender. The sender appends no turn, so walking the turn list
    /// backwards from the final travel direction recovers the first hop.
    pub(crate) fn origin_out(&self, final_travel: Direction) -> Direction {
        let mut d = final_travel;
        for t in self.turns.iter().rev() {
            d = t.unapply(d);
        }
        d
    }
}

/// A special message travelling a link: arrives at `to` on input port
/// `in_port` at cycle `arrive_at`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub(crate) struct InFlightMsg {
    /// The message.
    pub msg: SpecialMsg,
    /// Destination router of this hop.
    pub to: NodeId,
    /// The input port it arrives at.
    pub in_port: Direction,
    /// Arrival cycle.
    pub arrive_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_follow_section_iv_c() {
        assert!(MsgKind::CheckProbe.priority() > MsgKind::Disable.priority());
        assert_eq!(MsgKind::Disable.priority(), MsgKind::Enable.priority());
        assert!(MsgKind::Enable.priority() > MsgKind::Probe.priority());
    }

    #[test]
    fn probe_turn_capacity() {
        let mut p = SpecialMsg::probe(NodeId(5), 0);
        for _ in 0..TURN_CAPACITY {
            assert!(p.push_turn(Turn::Left));
        }
        assert!(!p.push_turn(Turn::Straight));
        assert_eq!(p.turns.len(), TURN_CAPACITY);
    }

    #[test]
    fn strip_turn_walks_path() {
        let mut d = SpecialMsg::with_path(
            MsgKind::Disable,
            NodeId(5),
            0,
            vec![Turn::Left, Turn::Straight, Turn::Right],
        );
        // Travelling North: Left -> West.
        assert_eq!(d.strip_turn(Direction::North), Some(Direction::West));
        // Then travelling West: Straight -> West.
        assert_eq!(d.strip_turn(Direction::West), Some(Direction::West));
        // Then Right -> North.
        assert_eq!(d.strip_turn(Direction::West), Some(Direction::North));
        assert_eq!(d.strip_turn(Direction::North), None);
    }
}
