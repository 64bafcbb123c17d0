//! FSM-legality auditing end to end: a legal recovery audits clean at
//! every cycle. (The seeded illegal transitions are unit tests in
//! `crates/core/src/plugin.rs`, next to the hook that seeds them.)

use rand::SeedableRng;
use sb_routing::MinimalRouting;
use sb_sim::{SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh};
use static_bubble::StaticBubblePlugin;

#[test]
fn organic_deadlock_recovery_audits_clean_every_cycle() {
    // The deadlock_recovery example regime: 8x8 with 15 dead links, driven
    // past saturation so organic deadlocks form and get healed — with the
    // auditor checking all four invariant classes every single cycle.
    let mesh = Mesh::new(8, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let topo = FaultModel::new(FaultKind::Links, 15).inject(mesh, &mut rng);
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        StaticBubblePlugin::new(&topo, 34),
        UniformTraffic::new(0.3).single_vnet(),
        42,
    );
    sim.set_audit(1);
    sim.run(3_000);
    assert!(
        sim.core().stats().deadlocks_recovered > 0,
        "run must contain a recovery for this test to mean anything"
    );
    assert!(sim.audit_now().is_none());
}
