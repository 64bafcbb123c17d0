//! Property-based tests for routing over irregular topologies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_routing::{ChannelDependencyGraph, MinimalRouting, RouteSource, UpDownRouting};
use sb_topology::{FaultKind, FaultModel, Mesh, NodeId};

fn arb_faulty_topology() -> impl Strategy<Value = sb_topology::Topology> {
    (3u16..8, 3u16..8, any::<u64>(), 0usize..25).prop_map(|(w, h, seed, faults)| {
        let mesh = Mesh::new(w, h);
        let faults = faults.min(mesh.link_count() / 2);
        let mut rng = StdRng::seed_from_u64(seed);
        FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minimal_routes_trace_to_destination(topo in arb_faulty_topology(), seed in any::<u64>()) {
        let routing = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        for a in topo.alive_nodes().step_by(3) {
            for b in topo.alive_nodes().step_by(5) {
                match routing.route(a, b, &mut rng) {
                    Some(r) => {
                        prop_assert_eq!(r.trace(&topo, a), Some(b));
                        prop_assert_eq!(r.hops() as u32, routing.distance(a, b).unwrap());
                    }
                    None => prop_assert!(!topo.reachable(a, b)),
                }
            }
        }
    }

    #[test]
    fn minimal_routes_never_uturn(topo in arb_faulty_topology(), seed in any::<u64>()) {
        // A shortest path can never immediately backtrack.
        let routing = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        for a in topo.alive_nodes().step_by(4) {
            for b in topo.alive_nodes().step_by(7) {
                if let Some(r) = routing.route(a, b, &mut rng) {
                    prop_assert!(!r.has_u_turn());
                }
            }
        }
    }

    #[test]
    fn updown_routes_are_legal_and_complete(topo in arb_faulty_topology()) {
        let routing = UpDownRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(0);
        for a in topo.alive_nodes().step_by(2) {
            for b in topo.alive_nodes().step_by(3) {
                match routing.route(a, b, &mut rng) {
                    Some(r) => {
                        prop_assert_eq!(r.trace(&topo, a), Some(b));
                        prop_assert!(routing.is_legal(a, &r));
                    }
                    None => prop_assert!(!topo.reachable(a, b)),
                }
            }
        }
    }

    #[test]
    fn updown_cdg_always_acyclic(topo in arb_faulty_topology()) {
        let routing = UpDownRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(1);
        let cdg = ChannelDependencyGraph::from_route_source(&topo, &routing, 1, &mut rng);
        prop_assert!(cdg.is_acyclic());
    }

    #[test]
    fn updown_never_shorter_than_minimal(topo in arb_faulty_topology()) {
        let ud = UpDownRouting::new(&topo);
        let minimal = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(2);
        for a in topo.alive_nodes().step_by(3) {
            for b in topo.alive_nodes().step_by(4) {
                if let (Some(r), Some(d)) = (ud.route(a, b, &mut rng), minimal.distance(a, b)) {
                    prop_assert!(r.hops() as u32 >= d);
                }
            }
        }
    }

    #[test]
    fn reachability_agrees_between_routings(topo in arb_faulty_topology()) {
        let ud = UpDownRouting::new(&topo);
        let minimal = MinimalRouting::new(&topo);
        let mut rng = StdRng::seed_from_u64(3);
        let nodes: Vec<NodeId> = topo.alive_nodes().collect();
        for &a in nodes.iter().step_by(3) {
            for &b in nodes.iter().step_by(5) {
                prop_assert_eq!(
                    ud.route(a, b, &mut rng).is_some(),
                    minimal.is_reachable(a, b)
                );
            }
        }
    }
}
