//! Hardware budget of the Static Bubble microarchitecture (Section IV-C).
//!
//! The special messages are single-flit and must fit the link width; this
//! module makes the paper's bit-level arithmetic explicit and testable:
//! with 128-bit links, 3 bits of message type and 6 bits of sender id, a
//! probe can carry ⌊(128 − 3 − 6) / 2⌋ = 59 two-bit turns — the capacity
//! the protocol enforces (`TURN_CAPACITY`).

use sb_topology::Mesh;
use serde::{Deserialize, Serialize};

/// Bits needed to encode one turn (L / S / R — 2 bits with one spare code).
pub const TURN_BITS: u32 = 2;

/// Bits needed for the message-type field (probe / disable / check-probe /
/// enable, plus spare codes: the paper budgets 3).
pub const MSG_TYPE_BITS: u32 = 3;

/// The flit/link budget of one special message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageBudget {
    /// Link (and flit) width in bits.
    pub link_bits: u32,
    /// Bits for the sender node id.
    pub id_bits: u32,
}

impl MessageBudget {
    /// The paper's configuration: 128-bit links on a 64-core mesh.
    pub fn paper_64core() -> Self {
        MessageBudget {
            link_bits: 128,
            id_bits: 6,
        }
    }

    /// Budget for an arbitrary mesh with the given link width.
    pub fn for_mesh(mesh: Mesh, link_bits: u32) -> Self {
        let nodes = mesh.node_count() as u32;
        MessageBudget {
            link_bits,
            id_bits: 32 - nodes.saturating_sub(1).leading_zeros().min(31),
        }
    }

    /// Maximum number of turns a probe can accumulate before it must be
    /// dropped.
    pub fn turn_capacity(&self) -> usize {
        ((self.link_bits.saturating_sub(MSG_TYPE_BITS + self.id_bits)) / TURN_BITS) as usize
    }

    /// The longest router path (in routers) a disable/check-probe/enable
    /// can describe: turns + the sender itself.
    pub fn max_path_routers(&self) -> usize {
        self.turn_capacity() + 1
    }
}

/// Per-router state added by the framework, in bits (the basis of the
/// "<0.5% of a router" area claim; the buffers dominate everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStateBits {
    /// Every router: `is_deadlock` bit.
    pub is_deadlock: u32,
    /// Every router: IO-priority buffer (input port + output port).
    pub io_priority: u32,
    /// Every router: source-id buffer.
    pub source_id: u32,
    /// SB routers only: the turn buffer.
    pub turn_buffer: u32,
    /// SB routers only: counter + threshold + FSM state.
    pub counter_fsm: u32,
}

impl RouterStateBits {
    /// The bit budget for a given message configuration.
    pub fn for_budget(b: MessageBudget) -> Self {
        RouterStateBits {
            is_deadlock: 1,
            io_priority: 2 + 2, // 2 bits per port selector
            source_id: b.id_bits,
            turn_buffer: b.turn_capacity() as u32 * TURN_BITS,
            counter_fsm: 16 + 3, // 16-bit counter covers t_DD and t_DR; 6 states
        }
    }

    /// Total bits at a non-SB router.
    pub fn plain_router_bits(&self) -> u32 {
        self.is_deadlock + self.io_priority + self.source_id
    }

    /// Total bits at an SB router (excluding the packet-sized bubble buffer,
    /// which is counted as a buffer in the area model).
    pub fn sb_router_bits(&self) -> u32 {
        self.plain_router_bits() + self.turn_buffer + self.counter_fsm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_probe_capacity_is_59() {
        // "in a 64 core mesh assuming 128-bit wide links, the probe can only
        // carry a maximum of 59 turns (3-bits for message type + 6 bits for
        // sender node-id)".
        let b = MessageBudget::paper_64core();
        assert_eq!(b.turn_capacity(), 59);
        assert_eq!(b.turn_capacity(), crate::msg::TURN_CAPACITY);
        assert_eq!(b.max_path_routers(), 60);
    }

    #[test]
    fn id_bits_follow_mesh_size() {
        assert_eq!(MessageBudget::for_mesh(Mesh::new(8, 8), 128).id_bits, 6);
        assert_eq!(MessageBudget::for_mesh(Mesh::new(16, 16), 128).id_bits, 8);
        assert_eq!(MessageBudget::for_mesh(Mesh::new(2, 2), 128).id_bits, 2);
    }

    #[test]
    fn bigger_meshes_trade_id_bits_for_turns() {
        let small = MessageBudget::for_mesh(Mesh::new(8, 8), 128);
        let big = MessageBudget::for_mesh(Mesh::new(16, 16), 128);
        assert!(big.turn_capacity() < small.turn_capacity());
        assert_eq!(big.turn_capacity(), 58);
    }

    #[test]
    fn control_state_is_tiny_relative_to_a_buffer() {
        // One 5-flit × 128-bit buffer is 640 bits; the whole SB control
        // state is well under half of that — consistent with the <0.5%
        // router-area claim once buffers/crossbar are accounted.
        let bits = RouterStateBits::for_budget(MessageBudget::paper_64core());
        assert!(bits.plain_router_bits() < 16);
        assert!(bits.sb_router_bits() < 160);
        assert!((bits.sb_router_bits() as f64) < 0.25 * 640.0);
    }
}
