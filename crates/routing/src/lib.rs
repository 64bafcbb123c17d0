#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Routing over irregular on-chip topologies (system **S2**, see `DESIGN.md`).
//!
//! The paper's designs all use *source routing*: a table at every network
//! interface populates each packet with a full route to its destination
//! (Section II-D). This crate provides the three route generators used across
//! the evaluation:
//!
//! * [`MinimalRouting`] — shortest paths over the surviving graph with random
//!   tie-breaking among minimal next hops. Deadlock-*prone*; used by Static
//!   Bubble and by the regular VCs of the escape-VC baseline.
//! * [`UpDownRouting`] — Autonet-style up*/down* routes over a BFS spanning
//!   tree, deadlock-free by construction. Used by the spanning-tree avoidance
//!   baseline and as the escape path of the escape-VC baseline.
//! * [`XyRouting`] — classic dimension-ordered routing, valid only on the
//!   fault-free mesh (kept as a reference and for sanity tests).
//!
//! The [`cdg`] module builds channel-dependency graphs so tests can *prove*
//! acyclicity of up-down/XY route sets and exhibit cycles under minimal
//! routing.

pub mod cdg;
pub mod minimal;
pub mod route;
pub mod tree;
pub mod updown;
pub mod xy;

pub use cdg::ChannelDependencyGraph;
pub use minimal::MinimalRouting;
pub use route::{Route, RouteSource};
pub use tree::TreeOnlyRouting;
pub use updown::UpDownRouting;
pub use xy::XyRouting;

#[cfg(test)]
mod testing {
    //! Strategies shared by the in-crate property tests.

    use proptest::prelude::*;
    use rand::SeedableRng;
    use sb_topology::{FaultKind, FaultModel, Mesh, Topology};

    /// Seeded link- or router-fault topologies, 4×4 to 16×16.
    pub(crate) fn arb_faulty_topology() -> impl Strategy<Value = Topology> {
        (
            4u16..=16,
            4u16..=16,
            any::<bool>(),
            0usize..40,
            any::<u64>(),
        )
            .prop_map(|(w, h, routers, faults, seed)| {
                let mesh = Mesh::new(w, h);
                let (kind, most) = if routers {
                    (FaultKind::Routers, mesh.node_count() / 4)
                } else {
                    (FaultKind::Links, mesh.link_count() / 2)
                };
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                FaultModel::new(kind, faults.min(most)).inject(mesh, &mut rng)
            })
    }
}
