//! `Simulator::restore` is all-or-nothing, and a snapshot written before
//! scheduler state left the format is refused by the name of a key it no
//! longer has.

use sb_routing::UpDownRouting;
use sb_sim::{json, EngineSnapshot, EscapeVcPlugin, SimConfig, Simulator, UniformTraffic};
use sb_topology::{Mesh, Topology};
use serde::Deserialize;

fn loaded_sim() -> Simulator<EscapeVcPlugin, UniformTraffic> {
    let topo = Topology::full(Mesh::new(4, 4));
    Simulator::new(
        &topo,
        SimConfig::default(),
        Box::new(UpDownRouting::new(&topo)),
        EscapeVcPlugin::new(&topo, 4),
        UniformTraffic::new(0.4).geometric(),
        11,
    )
}

#[test]
fn a_failed_restore_leaves_the_simulator_exactly_as_it_was() {
    let mut source = loaded_sim();
    source.run(150);
    let mut snap = source.snapshot().expect("snapshot");
    let (mut disturbed, mut twin) = (loaded_sim(), loaded_sim());
    disturbed.run(80);
    twin.run(80);
    let before = twin.snapshot().expect("snapshot");
    assert_ne!(before.plugin, snap.plugin, "the plugin blob must matter");

    // The plugin's blob restores, then the traffic source's does not.
    snap.traffic = "{\"sampler\": 7".to_string();
    let err = disturbed.restore(&snap).expect_err("a corrupt blob");
    assert!(err.starts_with("traffic restore: "), "{err}");
    snap.traffic = source.snapshot().expect("snapshot").traffic;
    snap.plugin = "[]".to_string();
    let err = disturbed.restore(&snap).expect_err("a corrupt blob");
    assert!(err.starts_with("plugin restore: "), "{err}");

    let as_it_was = disturbed.snapshot().expect("snapshot");
    assert_eq!(as_it_was.to_json(), before.to_json());
    disturbed.run(400);
    twin.run(400);
    assert_eq!(disturbed.core().stats(), twin.core().stats());
    assert!(disturbed.audit_now().is_none());
    let (end, want) = (disturbed.snapshot(), twin.snapshot());
    assert_eq!(
        end.expect("snapshot").to_json(),
        want.expect("snapshot").to_json()
    );
}

#[test]
fn a_snapshot_in_the_previous_format_is_refused_by_key() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot_pr20.json"
    );
    let err = EngineSnapshot::load(path).expect_err("scheduler state is not a field any more");
    let gone = ["clock", "full_scan", "active", "vcs"];
    assert!(
        gone.iter()
            .any(|key| err.0.contains(&format!("unknown field `{key}`"))),
        "{err}"
    );
    // The network half alone is refused the same way, by its first such key.
    let text = std::fs::read_to_string(path).expect("fixture");
    let sb_sim::value::Value::Map(top) = json::parse(&text).expect("well-formed") else {
        panic!("a snapshot is an object");
    };
    let (_, core) = top
        .into_iter()
        .find(|(key, _)| key == "core")
        .expect("core");
    let err = sb_sim::NetCore::from_value(core).expect_err("derived fields on the wire");
    assert!(err.0.contains("unknown field `vcs`"), "{err}");
}

#[test]
fn a_table_that_does_not_fit_the_mesh_is_an_error() {
    use sb_sim::value::{to_value, Value};
    let mut sim = loaded_sim();
    sim.run(20);
    let Value::Map(mut core) = to_value(sim.core()).expect("serializes") else {
        panic!("a network is an object");
    };
    sb_sim::NetCore::from_value(Value::Map(core.clone())).expect("round trip");
    let table = core.iter_mut().find(|(key, _)| key == "vc_ready");
    let Some((_, Value::Seq(ready))) = table else {
        panic!("vc_ready is a list");
    };
    ready.pop();
    let err = sb_sim::NetCore::from_value(Value::Map(core)).expect_err("one slot short");
    assert!(err.0.contains("do not fit a 16-router mesh"), "{err}");
}
