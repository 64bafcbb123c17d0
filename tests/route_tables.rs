//! `MinimalRouting`'s tables against their definitions, on every shape the
//! table builder treats differently: a line, a mesh one router past a
//! 64-source batch, odd and even squares, link and router faults, a graph in
//! two pieces, and pristine meshes.
//!
//! - Every pair's `distance` is the breadth-first distance
//!   `distances_from` computes one source at a time.
//! - Every pair's `route` is the walk over the distance table: at each hop
//!   the usable neighbours one hop closer, in N, E, S, W order, and one
//!   `gen_range` draw over them, even when there is only one. The two
//!   walks share a seed and must leave their generators in the same state.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use static_bubble_repro::routing::{MinimalRouting, Route, RouteSource};
use static_bubble_repro::topology::{
    distances_from, Direction, FaultKind, FaultModel, Mesh, NodeId, Topology,
};

/// The route the distance table alone defines, drawing from `rng` as the
/// table walk always has.
fn table_walk(
    routing: &MinimalRouting,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    rng: &mut dyn RngCore,
) -> Option<Route> {
    let mut d = routing.distance(src, dst)?;
    let mut hops = Vec::new();
    let mut cur = src;
    while d > 0 {
        let nexts: Vec<(Direction, NodeId)> = topo
            .neighbors(cur)
            .filter(|&(_, v)| routing.distance(v, dst) == Some(d - 1))
            .collect();
        let (dir, next) = nexts[rng.gen_range(0..nexts.len())];
        hops.push(dir);
        cur = next;
        d -= 1;
    }
    Some(Route::new(hops))
}

/// Hold `topo`'s tables to their definitions for every ordered pair.
fn check(name: &str, topo: &Topology) {
    let routing = MinimalRouting::new(topo);
    let nodes: Vec<NodeId> = topo.mesh().nodes().collect();
    for &a in &nodes {
        let bfs = distances_from(topo, a);
        for &b in &nodes {
            assert_eq!(routing.distance(a, b), bfs[b.index()], "{name}: {a}->{b}");
            assert_eq!(routing.routable(a, b), bfs[b.index()].is_some());
        }
    }
    let mut walked = StdRng::seed_from_u64(nodes.len() as u64);
    let mut reference = walked.clone();
    for &a in &nodes {
        for &b in &nodes {
            let route = routing.route(a, b, &mut walked);
            let expect = table_walk(&routing, topo, a, b, &mut reference);
            assert_eq!(route, expect, "{name}: {a}->{b}");
        }
    }
    assert_eq!(
        walked.next_u64(),
        reference.next_u64(),
        "{name}: the walks drew differently"
    );
}

fn faulty(width: u16, height: u16, kind: FaultKind, count: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    FaultModel::new(kind, count).inject(Mesh::new(width, height), &mut rng)
}

#[test]
fn a_line_has_one_route_per_pair() {
    check("1x40", &Topology::full(Mesh::new(1, 40)));
}

#[test]
fn one_router_past_a_batch() {
    check("5x13", &faulty(5, 13, FaultKind::Links, 6, 13));
}

#[test]
fn an_odd_square_with_link_faults() {
    check("9x9", &faulty(9, 9, FaultKind::Links, 12, 9));
}

#[test]
fn sixteen_by_sixteen_with_link_faults() {
    check("16x16/20 links", &faulty(16, 16, FaultKind::Links, 20, 1));
}

#[test]
fn sixteen_by_sixteen_with_router_faults() {
    check(
        "16x16/10 routers",
        &faulty(16, 16, FaultKind::Routers, 10, 2),
    );
}

#[test]
fn two_components_route_only_within_each() {
    // A 7x6 cut between columns 2 and 3, with a dead router on each side.
    let mesh = Mesh::new(7, 6);
    let mut topo = Topology::full(mesh);
    for y in 0..mesh.height() {
        topo.remove_link(mesh.node_at(2, y), Direction::East);
    }
    topo.remove_router(mesh.node_at(1, 3));
    topo.remove_router(mesh.node_at(5, 1));
    let routing = MinimalRouting::new(&topo);
    assert_eq!(
        routing.distance(mesh.node_at(0, 0), mesh.node_at(6, 5)),
        None
    );
    assert_eq!(
        routing.distance(mesh.node_at(0, 0), mesh.node_at(2, 5)),
        Some(7)
    );
    check("7x6 split", &topo);
}

#[test]
fn pristine_meshes_walk_the_staircase() {
    check("8x8", &Topology::full(Mesh::new(8, 8)));
    check("16x16", &Topology::full(Mesh::new(16, 16)));
}
