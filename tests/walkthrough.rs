//! A reconstruction of the paper's walk-through example (Section IV-A,
//! Fig. 6): the six-router cyclic dependence chain
//! `(A,B)→(C)→(E,F)→(G,H)→(I,J)→(K)→(A,B)`, recovered by the single
//! static-bubble node "node 5".
//!
//! The figure's side cast (Z waiting on the ejecting M,N) cannot exist in a
//! *stable* snapshot of a real network: the moment M,N eject, the slot Z
//! vacates becomes a free buffer circulating the ring — Bubble Flow Control
//! theory in action — and the "deadlock" self-resolves. So this test stages
//! the core ring only (two stuck packets per ring port), which is exactly
//! the structure the recovery protocol acts on.
//!
//! Geometry (4×4 mesh, paper names in parentheses, ids = y*4+x):
//!
//! ```text
//!   y=2:  n8 (1) ── n9 (2) ── n10 (3)
//!          │         │          │
//!   y=1:  n4 (4) ── n5 (5*)    ...     * = static bubble
//!          │         │
//!   y=0:  n0 (6) ── n1 (7)
//! ```
//!
//! The probe leaves node 5 northward and records the turns **L, L, S, L, L**
//! — exactly the sequence of Fig. 6(a).

mod fig6;

use fig6::{build, place};
use static_bubble_repro::core::{FsmState, SbOptions, StaticBubblePlugin};
use static_bubble_repro::routing::MinimalRouting;
use static_bubble_repro::sim::{NoTraffic, PacketId, SimConfig, Simulator, SpecialClass, VcRef};
use static_bubble_repro::topology::{Direction, Mesh, Topology, Turn};

#[test]
fn figure6_probe_records_llsll_and_recovery_completes() {
    let (mut sim, node5) = build();
    assert!(sim.deadlocked_now(), "the staged ring is a stable deadlock");

    // --- Probe traversal (Fig. 6(a)) ---------------------------------
    // Run until the probe returns and is latched.
    let mut latched = None;
    for _ in 0..600 {
        sim.tick();
        let fsm = sim.plugin().fsm(node5).unwrap();
        if fsm.state == FsmState::SDisable {
            latched = Some(fsm.turn_buffer.clone());
            break;
        }
    }
    let turns = latched.expect("probe must return and latch");
    assert_eq!(
        turns,
        vec![
            Turn::Left,
            Turn::Left,
            Turn::Straight,
            Turn::Left,
            Turn::Left
        ],
        "the latched path must be L,L,S,L,L as in Fig. 6(a)"
    );
    // t_DR = 2 × path length = 2 × 6 routers = 12 (Section IV-A).
    assert_eq!(sim.plugin().fsm(node5).unwrap().tdr, 12);

    // --- Disable traversal (Fig. 6(b)) --------------------------------
    for _ in 0..40 {
        sim.tick();
        if sim.plugin().fsm(node5).unwrap().state == FsmState::SSbActive {
            break;
        }
    }
    let fsm = sim.plugin().fsm(node5).unwrap();
    assert_eq!(
        fsm.state,
        FsmState::SSbActive,
        "disable must return and arm the bubble"
    );
    assert_eq!(
        fsm.chain_in,
        Direction::South,
        "IO-priority in = South (step 12)"
    );
    assert_eq!(
        fsm.probe_out,
        Direction::North,
        "IO-priority out = North (step 12)"
    );
    // All six routers of the chain are frozen.
    assert_eq!(sim.plugin().frozen_routers(), 6);
    assert_eq!(
        sim.core().bubble_attach(node5),
        Some((Direction::South, 0)),
        "bubble serves the chain port"
    );

    // --- Recovery: the ring advances through the bubble ----------------
    assert!(
        sim.run_until_drained(5_000),
        "recovery must deliver every packet: {} left",
        sim.core().in_flight()
    );
    let stats = sim.core().stats().clone();
    assert_eq!(stats.delivered_packets, 12, "all 12 ring packets deliver");
    assert_eq!(stats.deadlocks_recovered, 1);
    assert!(stats.probes_sent >= 1);

    // --- Check-probe and enable (Fig. 6(c)/(d)) ------------------------
    // Let the enable finish circulating, then the state must be pristine.
    sim.run(200);
    assert_eq!(
        sim.plugin().frozen_routers(),
        0,
        "enable clears every router"
    );
    let fsm = sim.plugin().fsm(node5).unwrap();
    assert!(matches!(fsm.state, FsmState::SOff | FsmState::SDd));
    assert!(sim.core().bubble_attach(node5).is_none(), "bubble off");
    assert_eq!(
        sim.plugin().in_flight_messages(),
        0,
        "no stray special messages"
    );
    // Check-probes were used in the recovery loop (footnote 7 fast path).
    assert!(
        stats.special_link_flits[SpecialClass::CheckProbe.index()] > 0,
        "the fast path re-verified the chain at least once"
    );
}

#[test]
fn figure6_one_free_buffer_resolves_the_ring_by_itself() {
    // The Bubble Flow Control premise the whole paper builds on (Sec II-C):
    // the same ring with ONE buffer left free is not deadlocked at all —
    // the hole circulates and every packet eventually delivers, no recovery
    // needed. (This is why the figure's Z, waiting on ejecting packets,
    // cannot be part of a stable deadlock.)
    let (mut sim, node5) = build();
    // Free one ring slot by removing Z.
    let n9 = Mesh::new(4, 4).node_at(1, 2);
    let taken = sim
        .core_mut()
        .remove_packet(VcRef {
            router: n9,
            port: Direction::South,
            vc: 1,
        })
        .expect("Z was staged there");
    assert_eq!(taken.id, PacketId('Z' as u64));
    assert!(!sim.deadlocked_now(), "one hole makes the ring live");
    assert!(sim.run_until_drained(5_000));
    assert_eq!(sim.core().stats().delivered_packets, 11);
    assert_eq!(
        sim.core().stats().deadlocks_recovered,
        0,
        "no recovery should be needed"
    );
    let _ = node5;
}

#[test]
fn figure6_without_bubble_stays_deadlocked() {
    // Control experiment: the identical network with no static bubble node
    // wedges forever.
    use Direction::*;
    let mesh = Mesh::new(4, 4);
    let topo = Topology::full(mesh);
    let cfg = SimConfig {
        vnets: 1,
        vcs_per_vnet: 2,
        max_packet_flits: 5,
    };
    let mut sim = Simulator::with_bubbles(
        &topo,
        cfg,
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::with_bubble_nodes(mesh, 8, SbOptions::default(), &[]),
        NoTraffic,
        0,
        &[],
    );
    let node5 = mesh.node_at(1, 1);
    let (n0, n1, n4, n8, n9) = (
        mesh.node_at(0, 0),
        mesh.node_at(1, 0),
        mesh.node_at(0, 1),
        mesh.node_at(0, 2),
        mesh.node_at(1, 2),
    );
    place(&mut sim, node5, South, 1, 'I', n9, vec![North]);
    place(&mut sim, node5, South, 0, 'J', n9, vec![North]);
    place(&mut sim, n9, South, 0, 'K', n8, vec![West]);
    place(&mut sim, n9, South, 1, 'Z', n8, vec![West]);
    place(&mut sim, n8, East, 0, 'A', n4, vec![South]);
    place(&mut sim, n8, East, 1, 'B', n4, vec![South]);
    place(&mut sim, n4, North, 0, 'C', n0, vec![South]);
    place(&mut sim, n4, North, 1, 'D', n0, vec![South]);
    place(&mut sim, n0, North, 0, 'E', n1, vec![East]);
    place(&mut sim, n0, North, 1, 'F', n1, vec![East]);
    place(&mut sim, n1, West, 0, 'G', node5, vec![North]);
    place(&mut sim, n1, West, 1, 'H', node5, vec![North]);
    assert!(!sim.run_until_drained(5_000), "no bubble, no recovery");
    assert!(sim.deadlocked_now());
    assert_eq!(sim.core().stats().delivered_packets, 0);
}
