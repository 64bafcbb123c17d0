//! Message-dependent (protocol-level) deadlock: the reason the paper's
//! Table II uses three virtual networks. Requests and replies travel in
//! disjoint buffer pools, so a request storm can never strangle the replies
//! that would eventually free it.

use sb_routing::MinimalRouting;
use sb_sim::{NullPlugin, SimConfig, Simulator};
use sb_topology::{Mesh, Topology};
use sb_workloads::{AppTraffic, RodiniaApp};
use static_bubble::StaticBubblePlugin;

/// The hadoop profile slams the memory controllers with requests; replies
/// still flow because they use their own vnet, so the closed loop keeps
/// completing transactions rather than wedging.
#[test]
fn request_reply_never_self_deadlocks_across_vnets() {
    let mesh = Mesh::new(8, 8);
    let topo = Topology::full(mesh);
    let app = AppTraffic::new(RodiniaApp::Hadoop.profile(), &topo).expect("usable");
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        app,
        31,
    );
    let mut last_completed = 0;
    for window in 0..10 {
        sim.run(2_000);
        let completed = sim.traffic().completed();
        assert!(
            completed > last_completed,
            "window {window}: transactions stopped completing ({completed})"
        );
        last_completed = completed;
    }
}

/// The same workload with Static Bubble attached: network-level deadlocks
/// within a vnet (if any form) are recovered, and the closed loop again
/// never stalls.
#[test]
fn apps_with_recovery_make_monotone_progress() {
    let mesh = Mesh::new(8, 8);
    // A few faults to make minimal routing genuinely deadlock-prone.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let topo =
        sb_topology::FaultModel::new(sb_topology::FaultKind::Links, 12).inject(mesh, &mut rng);
    let Some(app) = AppTraffic::new(RodiniaApp::Hadoop.profile(), &topo) else {
        panic!("topology should be usable at 12 link faults");
    };
    let mut sim = Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        app,
        32,
    );
    let mut last_completed = 0;
    for window in 0..10 {
        sim.run(2_000);
        let completed = sim.traffic().completed();
        assert!(
            completed > last_completed,
            "window {window}: stalled at {completed}"
        );
        last_completed = completed;
    }
}
