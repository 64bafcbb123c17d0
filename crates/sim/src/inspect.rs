//! Human-readable views of live network state, for debugging, examples and
//! experiment logs.

use crate::netcore::NetCore;
use sb_topology::NodeId;
use serde::{Deserialize, Serialize};

/// A summary snapshot of the network at one cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Cycle the snapshot was taken.
    pub time: u64,
    /// Packets resident in VCs/bubbles.
    pub in_flight: usize,
    /// Packets waiting in source queues.
    pub queued: usize,
    /// Occupied VCs per router (row-major).
    pub occupancy: Vec<u8>,
    /// Routers whose source queues are non-empty.
    pub backlogged_nodes: usize,
}

impl Snapshot {
    /// Capture the current state of `core`.
    pub(crate) fn capture(core: &NetCore) -> Self {
        let mesh = core.topology().mesh();
        let mut occupancy = Vec::with_capacity(mesh.node_count());
        let mut backlogged = 0usize;
        for n in mesh.nodes() {
            let occ = core.occupied_vcs(n) as usize;
            let bubble = usize::from(core.bubble_occupant(n).is_some());
            occupancy.push((occ + bubble).min(u8::MAX as usize) as u8);
            let vnets = core.config().vnets as usize;
            if core.arch.inject[n.index() * vnets..][..vnets]
                .iter()
                .any(|q| !q.is_empty())
            {
                backlogged += 1;
            }
        }
        Snapshot {
            time: core.time(),
            in_flight: core.in_flight(),
            queued: core.queued(),
            occupancy,
            backlogged_nodes: backlogged,
        }
    }

    /// Occupancy of `node`.
    pub(crate) fn occupancy_of(&self, node: NodeId) -> u8 {
        self.occupancy[node.index()]
    }
}

impl NetCore {
    /// Render the buffer-occupancy of every router as an ASCII heat map
    /// (`.` = empty, `1`-`9` = occupied VC count, `#` = 10+, `x` = dead
    /// router), highest row on top — the quickest way to *see* a deadlock
    /// knot or a congestion hotspot.
    ///
    /// ```
    /// use sb_sim::{NetCore, SimConfig};
    /// use sb_topology::{Mesh, Topology};
    /// let core = NetCore::new(&Topology::full(Mesh::new(3, 2)), SimConfig::tiny(), &[]);
    /// assert_eq!(core.occupancy_art(), ". . .\n. . .\n");
    /// ```
    pub fn occupancy_art(&self) -> String {
        let mesh = self.topology().mesh();
        let snap = Snapshot::capture(self);
        let mut out = String::new();
        for y in (0..mesh.height()).rev() {
            for x in 0..mesh.width() {
                let n = mesh.node_at(x, y);
                let c = if !self.topology().router_alive(n) {
                    'x'
                } else {
                    match snap.occupancy_of(n) {
                        0 => '.',
                        v @ 1..=9 => char::from(b'0' + v),
                        _ => '#',
                    }
                };
                out.push(c);
                if x + 1 < mesh.width() {
                    out.push(' ');
                }
            }
            out.push('\n');
        }
        out
    }

    /// One-line status string for periodic experiment logging.
    pub fn status_line(&self) -> String {
        let s = self.stats();
        format!(
            "t={} inflight={} queued={} delivered={} probes={} recovered={}",
            self.time(),
            self.in_flight(),
            self.queued(),
            s.delivered_packets,
            s.probes_sent,
            s.deadlocks_recovered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::{NewPacket, Packet, PacketId};
    use crate::vc::VcRef;
    use sb_routing::Route;
    use sb_topology::{Direction, Mesh, Topology};

    #[test]
    fn snapshot_counts_occupancy() {
        let mesh = Mesh::new(3, 3);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        let n = mesh.node_at(1, 1);
        core.place_packet(
            VcRef {
                router: n,
                port: Direction::North,
                vc: 0,
            },
            Packet::new(
                PacketId(1),
                NewPacket {
                    src: n,
                    dst: mesh.node_at(0, 0),
                    vnet: 0,
                    len_flits: 1,
                },
                Route::new(vec![Direction::West]),
                0,
            ),
            0,
        );
        let snap = Snapshot::capture(&core);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.occupancy_of(n), 1);
        assert_eq!(snap.occupancy_of(mesh.node_at(0, 0)), 0);
        assert!(core.occupancy_art().contains('1'));
    }

    #[test]
    fn dead_routers_render_as_x() {
        let mesh = Mesh::new(2, 2);
        let mut topo = Topology::full(mesh);
        topo.remove_router(mesh.node_at(0, 0));
        let core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        let art = core.occupancy_art();
        assert_eq!(art, ". .\nx .\n");
    }

    #[test]
    fn status_line_mentions_key_counters() {
        let topo = Topology::full(Mesh::new(2, 2));
        let core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        let line = core.status_line();
        assert!(line.contains("t=0"));
        assert!(line.contains("inflight=0"));
    }
}
