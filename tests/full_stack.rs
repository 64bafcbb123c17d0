//! Cross-crate integration tests exercising the public API end-to-end, the
//! way the examples and experiments do.

use rand::SeedableRng;
use static_bubble_repro::core::{placement, FsmState, StaticBubblePlugin};
use static_bubble_repro::energy::{AreaModel, EnergyModel, NetworkConfigCost};
use static_bubble_repro::routing::{
    ChannelDependencyGraph, MinimalRouting, RouteSource, TreeOnlyRouting, UpDownRouting,
};
use static_bubble_repro::sim::{EscapeVcPlugin, NoTraffic, SimConfig, Simulator, UniformTraffic};
use static_bubble_repro::topology::{FaultKind, FaultModel, Mesh, Topology};
use static_bubble_repro::workloads::{AppTraffic, ParsecApp, RodiniaApp};

/// The full paper pipeline on one irregular topology: placement covers it,
/// minimal routing is deadlock-prone on it, Static Bubble runs it safely,
/// and the energy model prices the run.
#[test]
fn paper_pipeline_end_to_end() {
    let mesh = Mesh::new(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let topo = FaultModel::new(FaultKind::Links, 12).inject(mesh, &mut rng);

    // Design time: placement and its guarantee.
    let bubbles = placement::alive_bubbles(&topo);
    assert!(!bubbles.is_empty());
    assert!(placement::coverage_holds_on(&topo));

    // The premise: minimal routing admits cyclic dependencies, up-down does
    // not.
    let mut cdg_rng = rand::rngs::StdRng::seed_from_u64(1);
    assert!(!ChannelDependencyGraph::from_route_source(
        &topo,
        &MinimalRouting::new(&topo),
        2,
        &mut cdg_rng
    )
    .is_acyclic());
    assert!(ChannelDependencyGraph::from_route_source(
        &topo,
        &UpDownRouting::new(&topo),
        1,
        &mut cdg_rng
    )
    .is_acyclic());

    // Runtime: Static Bubble at a deadlock-prone load, then drain clean.
    // The seed is chosen to exercise real recoveries AND drain: a minority
    // of seeds (2 and 5 of 1..=12) wedge this scenario in a deadlock the
    // probe/latch recovery never closes — a known limitation of the
    // recovery protocol under sustained multi-cycle congestion (see
    // ROADMAP), independent of the engine's data layout. Those seeds are
    // pinned with their forensic signature in
    // `crates/fleet/tests/wedge_seed.rs`.
    let cfg = SimConfig::single_vnet();
    let mut sim = Simulator::new(
        &topo,
        cfg,
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        UniformTraffic::new(0.18).single_vnet(),
        1,
    );
    sim.run(4_000);
    let delivered = sim.core().stats().delivered_packets;
    assert!(delivered > 1_000);
    let mut sim = sim.replace_traffic(NoTraffic);
    assert!(sim.run_until_drained(200_000), "network must drain");

    // Pricing.
    let cost = NetworkConfigCost::for_topology(&topo, cfg.vcs_per_port(), bubbles.len());
    let energy = EnergyModel::dsent_32nm().price(sim.core().stats(), cost);
    assert!(energy.total() > 0.0);
    assert!(energy.leakage() > 0.0);
}

/// All four routing functions agree on reachability and deliver packets in
/// a live network.
#[test]
fn routing_functions_interoperate() {
    let mesh = Mesh::new(6, 6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let topo = FaultModel::new(FaultKind::Routers, 5).inject(mesh, &mut rng);
    let minimal = MinimalRouting::new(&topo);
    let updown = UpDownRouting::new(&topo);
    let tree = TreeOnlyRouting::new(&topo);
    let mut q = rand::rngs::StdRng::seed_from_u64(0);
    for a in topo.alive_nodes() {
        for b in topo.alive_nodes() {
            let m = minimal.route(a, b, &mut q).is_some();
            assert_eq!(m, updown.route(a, b, &mut q).is_some());
            assert_eq!(m, tree.route(a, b, &mut q).is_some());
        }
    }
}

/// The three evaluated designs deliver the same workload; the recovery
/// designs do it with shorter routes. Built entirely through the scenario
/// layer: one spec, three designs.
#[test]
fn designs_compare_as_the_paper_says() {
    use static_bubble_repro::scenario::{Design, FaultSpec, Scenario};
    let base = Scenario::new("design-comparison", Design::TreeOnly)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 20,
            seed: 12,
        })
        .with_rate(0.05)
        .with_seed(9)
        .with_warmup(1_000)
        .with_cycles(4_000);
    let run = |design| base.clone().with_design(design).run().stats;
    let tree = run(Design::TreeOnly);
    let evc = run(Design::EscapeVc);
    let sb = run(Design::StaticBubble);
    let (t_lat, e_lat, s_lat) = (
        tree.avg_latency().unwrap(),
        evc.avg_latency().unwrap(),
        sb.avg_latency().unwrap(),
    );
    // Minimal-routed designs beat the via-root tree at low load.
    assert!(s_lat < t_lat, "SB {s_lat} vs tree {t_lat}");
    assert!(e_lat < t_lat, "eVC {e_lat} vs tree {t_lat}");
    // And with no deadlocks at this load, SB ≈ escape VC.
    assert!((s_lat - e_lat).abs() / e_lat < 0.15);
}

/// Application workloads run on all designs over an irregular SoC.
#[test]
fn apps_run_on_carved_soc() {
    let mesh = Mesh::new(8, 8);
    let mut topo = Topology::full(mesh);
    topo.carve_tile(3, 3, 2, 2);
    let app = AppTraffic::new(RodiniaApp::Bfs.profile(), &topo)
        .expect("usable")
        .with_budget(300);
    let bubbles = placement::alive_bubbles(&topo);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        app,
        2,
    );
    assert!(sim.run_until_drained(500_000));
    assert_eq!(sim.traffic().completed(), 300);
    // The FSMs end idle or in detection, never stuck in recovery.
    for b in &bubbles {
        let fsm = sim.plugin().fsm(*b).unwrap();
        assert!(matches!(fsm.state, FsmState::SOff | FsmState::SDd));
    }
}

/// Table I's cost story through the public energy/area API.
#[test]
fn table_i_costs_reproduce() {
    let area = AreaModel::dsent_32nm();
    let (plain, sb, evc) = area.network_comparison(64, 48, 12, 21);
    assert!(AreaModel::overhead_pct(plain, sb) < 1.0);
    assert!(AreaModel::overhead_pct(plain, evc) > 10.0);
    assert_eq!(placement::bubble_count(8, 8), 21);
    assert_eq!(placement::bubble_count(16, 16), 89);
}

/// The facade re-exports cover every subsystem.
#[test]
fn facade_paths_compile_and_work() {
    let mesh = static_bubble_repro::topology::Mesh::new(4, 4);
    let _ = static_bubble_repro::core::placement::placement(mesh);
    let _ = static_bubble_repro::routing::XyRouting::new(
        &static_bubble_repro::topology::Topology::full(mesh),
    );
    let _ = static_bubble_repro::energy::EnergyModel::dsent_32nm();
    let _ = static_bubble_repro::workloads::ParsecApp::ALL;
    let _ = ParsecApp::Blackscholes.profile();
    let _ = static_bubble_repro::sim::SimConfig::default();
}

/// Energy ordering under identical traffic: the Fig. 10 relationship
/// SB < escape VC (extra buffers leak) holds for any window.
#[test]
fn energy_ordering_matches_fig10() {
    use static_bubble_repro::energy::EnergyModel;
    let mesh = Mesh::new(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(40);
    let topo = FaultModel::new(FaultKind::Routers, 7).inject(mesh, &mut rng);
    let cfg = SimConfig::single_vnet();
    let model = EnergyModel::dsent_32nm();
    let run_sb = {
        let bubbles = placement::alive_bubbles(&topo);
        let mut sim = Simulator::new(
            &topo,
            cfg,
            Box::new(MinimalRouting::new(&topo)),
            StaticBubblePlugin::new(&topo, 34),
            UniformTraffic::new(0.08).single_vnet(),
            4,
        );
        sim.warmup(1_000);
        sim.run(4_000);
        let cost = static_bubble_repro::energy::NetworkConfigCost::for_topology(
            &topo,
            cfg.vcs_per_port(),
            bubbles.len(),
        );
        model.price(sim.core().stats(), cost)
    };
    let run_evc = {
        let mut sim = Simulator::new(
            &topo,
            cfg,
            Box::new(MinimalRouting::new(&topo)),
            EscapeVcPlugin::new(&topo, 34),
            UniformTraffic::new(0.08).single_vnet(),
            4,
        );
        sim.warmup(1_000);
        sim.run(4_000);
        let cost = static_bubble_repro::energy::NetworkConfigCost::for_topology(
            &topo,
            cfg.vcs_per_port() + cfg.vnets as usize,
            0,
        );
        model.price(sim.core().stats(), cost)
    };
    assert!(
        run_sb.router_leakage < run_evc.router_leakage,
        "21 bubbles must leak less than 4 escape VCs per router"
    );
    assert!(run_sb.total() < run_evc.total());
}
