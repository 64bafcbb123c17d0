//! The deadlock oracle: exact, global detection over the VC wait-for
//! structure.
//!
//! The oracle is for **measurement** (classifying topologies in Figs. 2–3,
//! terminating experiment runs, asserting recovery in tests). The recovery
//! mechanisms under study never consult it — Static Bubble detects deadlocks
//! with its distributed counter/probe protocol, the escape-VC baseline with
//! local timeouts.
//!
//! Definition used: an occupied buffer is **live** iff its head packet wants
//! local ejection, or some downstream candidate buffer is free, or some
//! downstream candidate buffer is live (it will eventually free, at which
//! point *somebody* — possibly another packet — makes progress; global
//! progress is what distinguishes deadlock from starvation). The network is
//! deadlocked iff some occupied buffer is not live. Computed as a backwards
//! fixpoint from live seeds.

use crate::netcore::NetCore;
use crate::packet::PacketId;
use crate::plugin::InputRef;
use crate::vc::VcRef;
use sb_topology::{Direction, NodeId};
use serde::{Deserialize, Serialize};

/// The wait-for graph over the occupied buffers, from which both of this
/// module's questions are answered.
struct WaitFor {
    /// The occupied buffers: the alive routers in id order, each router's
    /// VCs (port-major, in flat VC order) and then its bubble.
    bufs: Vec<InputRef>,
    /// `bufs[i]` waits on the buffers at `edges[ends[i]..ends[i + 1]]`
    /// (positions in `bufs`): the occupied VCs of its head's vnet at the
    /// downstream input port, in VC order, then the downstream bubble if it
    /// is occupied and attached to that port and vnet (otherwise it is not
    /// a candidate at all).
    ends: Vec<u32>,
    edges: Vec<u32>,
    /// Does `bufs[i]` drain by itself? Its head wants ejection, or a
    /// candidate downstream buffer is free now or draining — a draining
    /// slot frees in bounded time, so it is as good as free for liveness.
    /// A head aimed at a dead link never moves: no seed and no edges
    /// (routes should prevent this).
    seed: Vec<bool>,
}

impl WaitFor {
    fn new(core: &NetCore) -> Self {
        let topo = core.topology();
        let cfg = core.config();
        let nodes = topo.mesh().node_count();
        // Position in `bufs` by flat VC id, then one slot per bubble;
        // `u32::MAX` marks a free buffer.
        let vcs = nodes * 4 * cfg.vcs_per_port();
        let bubble = |r: NodeId| vcs + r.index();
        let mut index = vec![u32::MAX; vcs + nodes];
        let mut bufs = Vec::new();
        for router in topo.alive_nodes() {
            for r in core.vc_refs(router) {
                if core.vc_occupant(r).is_some() {
                    index[core.flat_vc(r)] = bufs.len() as u32;
                    bufs.push(InputRef::Vc(r));
                }
            }
            if core.bubble_occupant(router).is_some() {
                index[bubble(router)] = bufs.len() as u32;
                bufs.push(InputRef::Bubble(router));
            }
        }
        let (mut ends, mut edges, mut seed) = (vec![0], Vec::new(), Vec::new());
        for &input in &bufs {
            let (router, pkt) = match input {
                InputRef::Vc(r) => (r.router, core.vc_occupant(r)),
                InputRef::Bubble(r) => (r, core.bubble_occupant(r)),
                InputRef::Inject { .. } => unreachable!("a source queue is not a buffer"),
            };
            let pkt = pkt.expect("indexed occupied");
            // A head that wants ejection always eventually drains.
            let mut free = pkt.desired_hop().is_none();
            let downstream = (pkt.desired_hop())
                .and_then(|dir| Some((topo.neighbor(router, dir)?, dir.opposite())));
            if let Some((neighbor, port)) = downstream {
                let mut wait_on = |at: usize| match index[at] {
                    u32::MAX => free = true,
                    j => edges.push(j),
                };
                for vc in cfg.vcs_of_vnet(pkt.vnet) {
                    let r = VcRef {
                        router: neighbor,
                        port,
                        vc,
                    };
                    wait_on(core.flat_vc(r));
                }
                if core.bubble_attach(neighbor) == Some((port, pkt.vnet)) {
                    wait_on(bubble(neighbor));
                }
            }
            seed.push(free);
            ends.push(edges.len() as u32);
        }
        WaitFor {
            bufs,
            ends,
            edges,
            seed,
        }
    }

    fn waits_on(&self, i: usize) -> &[u32] {
        &self.edges[self.ends[i] as usize..self.ends[i + 1] as usize]
    }

    /// The buffers not live: a buffer is live iff it is a seed or waits on
    /// a live buffer (that one will eventually free, at which point
    /// *somebody* makes progress). Computed backwards from the seeds.
    fn not_live(&self) -> Vec<InputRef> {
        let n = self.bufs.len();
        let mut waiters: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            for &j in self.waits_on(i) {
                waiters[j as usize].push(i as u32);
            }
        }
        let mut live = self.seed.clone();
        let mut stack: Vec<usize> = (0..n).filter(|&i| live[i]).collect();
        while let Some(j) = stack.pop() {
            for &w in &waiters[j] {
                if !live[w as usize] {
                    live[w as usize] = true;
                    stack.push(w as usize);
                }
            }
        }
        let dead = self.bufs.iter().zip(&live).filter(|(_, &l)| !l);
        dead.map(|(&b, _)| b).collect()
    }

    /// One cycle among the occupied VCs, found by an iterative DFS with
    /// parent reconstruction. Bubbles are left out: they are the recovery
    /// mechanism, not part of the steady dependency structure.
    fn vc_cycle(&self) -> Option<Vec<InputRef>> {
        let n = self.bufs.len();
        let is_vc = |i: usize| matches!(self.bufs[i], InputRef::Vc(_));
        let mut color = vec![0u8; n];
        let mut parent = vec![usize::MAX; n];
        for start in (0..n).filter(|&i| is_vc(i)) {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(&mut (u, ref mut k)) = stack.last_mut() {
                let Some(&v) = self.waits_on(u).get(*k) else {
                    color[u] = 2;
                    stack.pop();
                    continue;
                };
                let v = v as usize;
                *k += 1;
                if !is_vc(v) {
                    continue;
                }
                match color[v] {
                    0 => {
                        color[v] = 1;
                        parent[v] = u;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Found a cycle v -> ... -> u -> v.
                        let mut cycle = vec![u];
                        let mut x = u;
                        while x != v {
                            x = parent[x];
                            cycle.push(x);
                        }
                        cycle.reverse();
                        return Some(cycle.into_iter().map(|i| self.bufs[i]).collect());
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// Find the set of non-live (deadlocked or blocked-behind-deadlock) occupied
/// buffers. Empty means no deadlock.
pub fn find_deadlock(core: &NetCore) -> Vec<InputRef> {
    WaitFor::new(core).not_live()
}

/// Is the network deadlocked right now?
pub(crate) fn is_deadlocked(core: &NetCore) -> bool {
    !find_deadlock(core).is_empty()
}

/// Post-mortem: extract one concrete buffer-dependency **cycle** from the
/// current state (a sequence of occupied buffers, each waiting on the
/// next), or `None` if no cycle exists. This is the structure a Static
/// Bubble probe traces; exposing it makes wedged states debuggable.
pub fn find_dependency_cycle(core: &NetCore) -> Option<Vec<InputRef>> {
    WaitFor::new(core).vc_cycle()
}

/// One edge of an annotated wait-for cycle: the occupied buffer, the packet
/// blocked in it, and the output direction it wants (None = ejection, which
/// cannot appear in a real cycle but is kept for robustness). Read top to
/// bottom: each buffer's packet waits for space in the next buffer's
/// router; the last waits on the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitForEdge {
    /// The occupied buffer this edge starts from.
    pub buffer: InputRef,
    /// The packet blocked in it.
    pub pkt: PacketId,
    /// Its virtual network.
    pub vnet: u8,
    /// The output direction its head wants (`None` = ejection).
    pub wants: Option<Direction>,
}

/// The oracle's two answers a forensics report holds, from one wait-for
/// graph: is the network deadlocked, and the dependency cycle of
/// [`find_dependency_cycle`] annotated with the blocked packets and wanted
/// directions (empty when the network has none).
pub(crate) fn deadlock_and_cycle(core: &NetCore) -> (bool, Vec<WaitForEdge>) {
    let graph = WaitFor::new(core);
    let deadlocked = !graph.not_live().is_empty();
    let Some(cycle) = graph.vc_cycle() else {
        return (deadlocked, Vec::new());
    };
    let edges = cycle
        .into_iter()
        .filter_map(|input| {
            let pkt = core.packet_at(input)?;
            Some(WaitForEdge {
                buffer: input,
                pkt: pkt.id,
                vnet: pkt.vnet,
                wants: pkt.desired_hop(),
            })
        })
        .collect();
    (deadlocked, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::{NewPacket, Packet, PacketId};
    use sb_routing::Route;
    use sb_topology::{Direction, Mesh, Topology};

    /// Place a packet in `vc` wanting to move along `route`.
    fn place(core: &mut NetCore, vc: VcRef, id: u64, dst: NodeId, route: Vec<Direction>) {
        let pkt = Packet::new(
            PacketId(id),
            NewPacket {
                src: vc.router,
                dst,
                vnet: 0,
                len_flits: 5,
            },
            Route::new(route),
            0,
        );
        core.place_packet(vc, pkt, 0);
    }

    fn vc(router: NodeId, port: Direction) -> VcRef {
        VcRef {
            router,
            port,
            vc: 0,
        }
    }

    #[test]
    fn empty_network_not_deadlocked() {
        let topo = Topology::full(Mesh::new(4, 4));
        let core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        assert!(!is_deadlocked(&core));
    }

    #[test]
    fn four_packet_ring_deadlock() {
        // The classic 2x2 clockwise cycle with single VCs.
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        use Direction::*;
        let (a, b, c, d) = (
            mesh.node_at(0, 0),
            mesh.node_at(0, 1),
            mesh.node_at(1, 1),
            mesh.node_at(1, 0),
        );
        // Each packet sits at a router (having arrived from the previous one
        // in the ring) and wants to continue clockwise two more hops.
        place(&mut core, vc(b, South), 1, d, vec![East, South]);
        place(&mut core, vc(c, West), 2, a, vec![South, West]);
        place(&mut core, vc(d, North), 3, b, vec![West, North]);
        place(&mut core, vc(a, East), 4, c, vec![North, East]);
        let dead = find_deadlock(&core);
        assert_eq!(dead.len(), 4);
    }

    #[test]
    fn ring_with_one_free_vc_is_live() {
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        use Direction::*;
        let (b, c, d) = (mesh.node_at(0, 1), mesh.node_at(1, 1), mesh.node_at(1, 0));
        // Only three of the four ring VCs are occupied.
        place(&mut core, vc(b, South), 1, d, vec![East, South]);
        place(
            &mut core,
            vc(c, West),
            2,
            mesh.node_at(0, 0),
            vec![South, West],
        );
        place(&mut core, vc(d, North), 3, b, vec![West, North]);
        assert!(!is_deadlocked(&core));
    }

    #[test]
    fn ejecting_packet_is_live_and_unblocks_waiter() {
        let mesh = Mesh::new(3, 1);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        // Packet at node1 wants ejection; packet at node0 wants node1's VC.
        place(
            &mut core,
            vc(mesh.node_at(1, 0), Direction::West),
            1,
            mesh.node_at(1, 0),
            vec![],
        );
        place(
            &mut core,
            vc(mesh.node_at(0, 0), Direction::East),
            2,
            mesh.node_at(1, 0),
            vec![Direction::East],
        );
        // Wait: the second packet sits at node0's East input port. Its
        // desired hop East leads to node1's West port VC, which is occupied
        // by the ejecting (live) packet — so it is live too.
        assert!(!is_deadlocked(&core));
    }

    #[test]
    fn dependency_cycle_extraction() {
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        use Direction::*;
        let (a, b, c, d) = (
            mesh.node_at(0, 0),
            mesh.node_at(0, 1),
            mesh.node_at(1, 1),
            mesh.node_at(1, 0),
        );
        place(&mut core, vc(b, South), 1, d, vec![East, South]);
        place(&mut core, vc(c, West), 2, a, vec![South, West]);
        place(&mut core, vc(d, North), 3, b, vec![West, North]);
        place(&mut core, vc(a, East), 4, c, vec![North, East]);
        let cycle = find_dependency_cycle(&core).expect("ring has a cycle");
        assert_eq!(cycle.len(), 4);
        // Every element waits on the next (closing the loop).
        let routers: std::collections::HashSet<NodeId> = cycle
            .iter()
            .map(|i| match i {
                InputRef::Vc(v) => v.router,
                _ => unreachable!("only VCs are returned"),
            })
            .collect();
        assert_eq!(routers.len(), 4);
    }

    #[test]
    fn described_cycle_is_annotated() {
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        use Direction::*;
        let (a, b, c, d) = (
            mesh.node_at(0, 0),
            mesh.node_at(0, 1),
            mesh.node_at(1, 1),
            mesh.node_at(1, 0),
        );
        place(&mut core, vc(b, South), 1, d, vec![East, South]);
        place(&mut core, vc(c, West), 2, a, vec![South, West]);
        place(&mut core, vc(d, North), 3, b, vec![West, North]);
        place(&mut core, vc(a, East), 4, c, vec![North, East]);
        let (deadlocked, edges) = deadlock_and_cycle(&core);
        assert!(deadlocked, "a full one-VC ring");
        assert_eq!(edges.len(), 4);
        // Every edge names a real blocked packet wanting a real direction.
        for e in &edges {
            assert!(e.wants.is_some(), "cycle members never want ejection");
            assert_eq!(e.vnet, 0);
        }
        let ids: std::collections::HashSet<u64> = edges.iter().map(|e| e.pkt.0).collect();
        assert_eq!(ids, [1, 2, 3, 4].into_iter().collect());
        let empty = NetCore::new(&topo, SimConfig::tiny(), &[]);
        assert_eq!(deadlock_and_cycle(&empty), (false, Vec::new()));
    }

    #[test]
    fn no_cycle_in_chain() {
        let mesh = Mesh::new(3, 1);
        let topo = Topology::full(mesh);
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        place(
            &mut core,
            vc(mesh.node_at(1, 0), Direction::West),
            1,
            mesh.node_at(1, 0),
            vec![],
        );
        assert_eq!(find_dependency_cycle(&core), None);
    }

    #[test]
    fn active_bubble_breaks_deadlock() {
        let mesh = Mesh::new(2, 2);
        let topo = Topology::full(mesh);
        use Direction::*;
        let (a, b, c, d) = (
            mesh.node_at(0, 0),
            mesh.node_at(0, 1),
            mesh.node_at(1, 1),
            mesh.node_at(1, 0),
        );
        let mut core = NetCore::new(&topo, SimConfig::tiny(), &[b]);
        place(&mut core, vc(b, South), 1, d, vec![East, South]);
        place(&mut core, vc(c, West), 2, a, vec![South, West]);
        place(&mut core, vc(d, North), 3, b, vec![West, North]);
        place(&mut core, vc(a, East), 4, c, vec![North, East]);
        assert!(is_deadlocked(&core));
        // Activating b's bubble for (South input, vnet 0) gives the packet
        // at a (which wants North into b's South port) a free buffer.
        core.bubble_activate(b, South, 0);
        assert!(!is_deadlocked(&core));
    }
}
