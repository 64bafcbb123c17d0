#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Facade crate for the Static Bubble reproduction.
//!
//! Re-exports every workspace crate so examples and integration tests can
//! `use static_bubble_repro::...` without naming individual crates.

/// Everything a typical simulation needs, importable in one line.
///
/// ```
/// use static_bubble_repro::prelude::*;
///
/// let mesh = Mesh::new(4, 4);
/// let topo = Topology::full(mesh);
/// let mut sim = Simulator::new(
///     &topo,
///     SimConfig::single_vnet(),
///     Box::new(MinimalRouting::new(&topo)),
///     StaticBubblePlugin::new(&topo, 34),
///     UniformTraffic::new(0.05).single_vnet(),
///     1,
/// );
/// sim.run(500);
/// ```
pub mod prelude {
    pub use sb_routing::{MinimalRouting, Route, RouteSource, TreeOnlyRouting, UpDownRouting};
    pub use sb_sim::{
        EscapeVcPlugin, NewPacket, NoTraffic, NullPlugin, SimConfig, Simulator, Stats,
        TrafficSource, UniformTraffic,
    };
    pub use sb_topology::{Direction, FaultKind, FaultModel, Mesh, NodeId, Topology};
    pub use static_bubble::{placement, SbOptions, StaticBubblePlugin};
}

pub use sb_energy as energy;
pub use sb_fleet as fleet;
pub use sb_routing as routing;
pub use sb_scenario as scenario;
pub use sb_sim as sim;
pub use sb_topology as topology;
pub use sb_workloads as workloads;
pub use static_bubble as core;
