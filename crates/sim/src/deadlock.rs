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
use sb_topology::{Direction, NodeId, DIRECTIONS};
use serde::{Deserialize, Serialize};

use std::collections::VecDeque;

/// One occupied buffer position considered by the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Buf {
    Vc(VcRef),
    Bubble(NodeId),
}

/// Find the set of non-live (deadlocked or blocked-behind-deadlock) occupied
/// buffers. Empty means no deadlock.
pub fn find_deadlock(core: &NetCore) -> Vec<InputRef> {
    let topo = core.topology();
    let cfg = core.config();
    let _now = core.time();

    // Enumerate occupied buffers and index them.
    let mut bufs: Vec<Buf> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for router in topo.alive_nodes() {
        for port in DIRECTIONS {
            for vc in 0..cfg.vcs_per_port() as u8 {
                let r = VcRef { router, port, vc };
                if core.vc_occupant(r).is_some() {
                    index.insert(Buf::Vc(r), bufs.len());
                    bufs.push(Buf::Vc(r));
                }
            }
        }
        if core.bubble_occupant(router).is_some() {
            index.insert(Buf::Bubble(router), bufs.len());
            bufs.push(Buf::Bubble(router));
        }
    }

    // Build reverse dependency edges and live seeds.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); bufs.len()];
    let mut live = vec![false; bufs.len()];
    let mut queue = VecDeque::new();
    for (i, &buf) in bufs.iter().enumerate() {
        let pkt = match buf {
            Buf::Vc(r) => core.vc_occupant(r).expect("indexed occupied"),
            Buf::Bubble(r) => core.bubble_occupant(r).expect("indexed occupied"),
        };
        let router = match buf {
            Buf::Vc(r) => r.router,
            Buf::Bubble(r) => r,
        };
        let Some(dir) = pkt.desired_hop() else {
            // Wants ejection: always eventually drains.
            live[i] = true;
            queue.push_back(i);
            continue;
        };
        let Some(neighbor) = topo.neighbor(router, dir) else {
            // A packet aimed at a dead link can never move; count it as
            // non-live with no escape (routes should prevent this).
            continue;
        };
        let port = dir.opposite();
        let mut any_free = false;
        for vc in cfg.vcs_of_vnet(pkt.vnet) {
            let r = VcRef {
                router: neighbor,
                port,
                vc,
            };
            if core.vc_occupant(r).is_none() {
                // Free now, or draining — a draining slot frees in bounded
                // time, so it is as good as free for liveness.
                any_free = true;
            } else if let Some(&j) = index.get(&Buf::Vc(r)) {
                rev[j].push(i as u32);
            }
        }
        // An active, attached, empty (or draining) bubble downstream is a
        // usable buffer.
        if core.bubble_attach(neighbor) == Some((port, pkt.vnet)) {
            if core.bubble_occupant(neighbor).is_none() {
                any_free = true;
            } else if let Some(&j) = index.get(&Buf::Bubble(neighbor)) {
                // Occupied bubble: depend on it only because it is attached
                // to our port/vnet (otherwise it is not a candidate at all).
                rev[j].push(i as u32);
            }
        }
        if any_free {
            live[i] = true;
            queue.push_back(i);
        }
    }

    // Backwards propagation of liveness.
    while let Some(j) = queue.pop_front() {
        // rev[j]: buffers waiting (partly) on j.
        let waiters = std::mem::take(&mut rev[j]);
        for w in waiters {
            let w = w as usize;
            if !live[w] {
                live[w] = true;
                queue.push_back(w);
            }
        }
    }

    bufs.iter()
        .zip(&live)
        .filter(|(_, &l)| !l)
        .map(|(&b, _)| match b {
            Buf::Vc(r) => InputRef::Vc(r),
            Buf::Bubble(r) => InputRef::Bubble(r),
        })
        .collect()
}

/// Is the network deadlocked right now?
pub fn is_deadlocked(core: &NetCore) -> bool {
    !find_deadlock(core).is_empty()
}

/// Post-mortem: extract one concrete buffer-dependency **cycle** from the
/// current state (a sequence of occupied buffers, each waiting on the
/// next), or `None` if no cycle exists. This is the structure a Static
/// Bubble probe traces; exposing it makes wedged states debuggable.
pub fn find_dependency_cycle(core: &NetCore) -> Option<Vec<InputRef>> {
    let topo = core.topology();
    let cfg = core.config();

    // Wait edges between occupied VCs (bubbles excluded: they are the
    // recovery mechanism, not part of the steady dependency structure).
    let mut nodes: Vec<VcRef> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for router in topo.alive_nodes() {
        for port in DIRECTIONS {
            for vc in 0..cfg.vcs_per_port() as u8 {
                let r = VcRef { router, port, vc };
                if core.vc_occupant(r).is_some() {
                    index.insert(r, nodes.len());
                    nodes.push(r);
                }
            }
        }
    }
    let mut edges: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    for (i, r) in nodes.iter().enumerate() {
        let pkt = core.vc_occupant(*r).expect("indexed");
        let Some(dir) = pkt.desired_hop() else {
            continue;
        };
        let Some(neighbor) = topo.neighbor(r.router, dir) else {
            continue;
        };
        for vc in cfg.vcs_of_vnet(pkt.vnet) {
            let w = VcRef {
                router: neighbor,
                port: dir.opposite(),
                vc,
            };
            if let Some(&j) = index.get(&w) {
                edges[i].push(j as u32);
            }
        }
    }
    // Iterative DFS for a cycle, with parent reconstruction.
    let n = nodes.len();
    let mut color = vec![0u8; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (u, ref mut k)) = stack.last_mut() {
            if *k < edges[u].len() {
                let v = edges[u][*k] as usize;
                *k += 1;
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
                        return Some(cycle.into_iter().map(|i| InputRef::Vc(nodes[i])).collect());
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    None
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

/// Annotate the dependency cycle of [`find_dependency_cycle`] with the
/// blocked packets and wanted directions, for forensics dumps. Empty when
/// the network has no dependency cycle.
pub fn describe_cycle(core: &NetCore) -> Vec<WaitForEdge> {
    let Some(cycle) = find_dependency_cycle(core) else {
        return Vec::new();
    };
    cycle
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
        .collect()
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
        let edges = describe_cycle(&core);
        assert_eq!(edges.len(), 4);
        // Every edge names a real blocked packet wanting a real direction.
        for e in &edges {
            assert!(e.wants.is_some(), "cycle members never want ejection");
            assert_eq!(e.vnet, 0);
        }
        let ids: std::collections::HashSet<u64> = edges.iter().map(|e| e.pkt.0).collect();
        assert_eq!(ids, [1, 2, 3, 4].into_iter().collect());
        assert!(describe_cycle(&NetCore::new(&topo, SimConfig::tiny(), &[])).is_empty());
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
