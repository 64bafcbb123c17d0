//! Packets: the unit of buffering and movement (virtual cut-through).

use sb_routing::Route;
use sb_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Globally unique packet identifier (per simulation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PacketId(pub u64);

/// Which buffer class a packet may occupy — interpreted by the attached
/// deadlock-handling plugin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum PacketMode {
    /// Ordinary packet: regular VCs, its stamped (possibly deadlock-prone)
    /// route.
    #[default]
    Normal,
    /// Packet that has been moved to the escape network by the escape-VC
    /// baseline: escape VCs only, deadlock-free re-stamped route.
    Escape,
}

/// A request to inject a packet, produced by traffic sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct NewPacket {
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Virtual network (message class).
    pub vnet: u8,
    /// Length in flits (1 = control, `max_packet_flits` = data).
    pub len_flits: u16,
}

/// An in-flight packet.
///
/// Carries its full source route and the index of the next hop to take;
/// `desired_hop` is `None` once the packet has arrived at its destination
/// router and wants ejection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Virtual network; never changes in flight.
    pub vnet: u8,
    /// Length in flits.
    pub len_flits: u16,
    /// Injection cycle (when it entered the source queue's head grant).
    pub injected_at: u64,
    /// Cycle the packet was created/enqueued by the traffic source.
    pub created_at: u64,
    /// Buffer-class mode (see [`PacketMode`]).
    pub mode: PacketMode,
    route: Route,
    hop: usize,
    /// Cached `route.hop(hop)`: the allocator reads the desired output on
    /// every scan, while it can only change through `advance_hop` or
    /// `restamp` (the sole mutators of `route`/`hop`).
    head: Option<sb_topology::Direction>,
}

impl Packet {
    /// Create a packet about to be injected at `src` with the given route.
    pub fn new(id: PacketId, req: NewPacket, route: Route, created_at: u64) -> Self {
        let head = route.hop(0);
        Packet {
            id,
            src: req.src,
            dst: req.dst,
            vnet: req.vnet,
            len_flits: req.len_flits,
            injected_at: created_at,
            created_at,
            mode: PacketMode::Normal,
            route,
            hop: 0,
            head,
        }
    }

    /// The output direction the packet wants at its current router, or
    /// `None` if it wants ejection.
    pub fn desired_hop(&self) -> Option<sb_topology::Direction> {
        debug_assert_eq!(self.head, self.route.hop(self.hop));
        self.head
    }

    /// The stamped route.
    pub(crate) fn route(&self) -> &Route {
        &self.route
    }

    /// Index of the next hop within the route.
    pub(crate) fn hop_index(&self) -> usize {
        self.hop
    }

    /// Advance to the next hop (called by the engine on a grant).
    pub(crate) fn advance_hop(&mut self) {
        debug_assert!(self.hop < self.route.hops());
        self.hop += 1;
        self.head = self.route.hop(self.hop);
    }

    /// Replace the remaining route (used when the escape-VC baseline
    /// re-stamps a deadlock-free route from the packet's current router).
    pub(crate) fn restamp(&mut self, route: Route, mode: PacketMode) {
        self.head = route.hop(0);
        self.route = route;
        self.hop = 0;
        self.mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::Direction;

    fn pkt(route: Vec<Direction>) -> Packet {
        Packet::new(
            PacketId(1),
            NewPacket {
                src: NodeId(0),
                dst: NodeId(3),
                vnet: 0,
                len_flits: 5,
            },
            Route::new(route),
            10,
        )
    }

    #[test]
    fn desired_hop_walks_route() {
        let mut p = pkt(vec![Direction::East, Direction::North]);
        assert_eq!(p.desired_hop(), Some(Direction::East));
        p.advance_hop();
        assert_eq!(p.desired_hop(), Some(Direction::North));
        p.advance_hop();
        assert_eq!(p.desired_hop(), None);
        assert_eq!(p.hop_index(), p.route().hops());
    }

    #[test]
    fn restamp_resets_progress() {
        let mut p = pkt(vec![Direction::East, Direction::East]);
        p.advance_hop();
        p.restamp(Route::new(vec![Direction::North]), PacketMode::Escape);
        assert_eq!(p.desired_hop(), Some(Direction::North));
        assert_eq!(p.mode, PacketMode::Escape);
        assert_eq!((p.hop_index(), p.route().hops()), (0, 1));
    }
}
