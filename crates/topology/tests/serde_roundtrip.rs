//! Serde round-trips for the data-structure types (C-SERDE): topologies
//! survive serialization, so experiment configurations can be
//! checked in and replayed.

use rand::SeedableRng;
use sb_topology::{FaultKind, FaultModel, Mesh, Topology};
use serde::{Deserialize, Serialize};

/// `x → Value → x`, through the same tree the JSON/TOML backends render.
fn round_trip<T: Serialize + Deserialize>(x: &T) -> T {
    T::from_value(x.to_value().expect("serializes")).expect("deserializes")
}

#[test]
fn topology_round_trips() {
    let mesh = Mesh::new(8, 8);
    for (kind, count) in [(FaultKind::Links, 10), (FaultKind::Routers, 6)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let topo = FaultModel::new(kind, count).inject(mesh, &mut rng);
        assert_ne!(
            topo,
            Topology::full(mesh),
            "the faults are part of the value"
        );
        assert_eq!(round_trip(&topo), topo);
    }
}
