#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Mesh substrate, irregular topologies and fault models.
//!
//! This crate implements system **S1** of the reproduction (see `DESIGN.md`):
//! the `n×m` mesh that every topology in the paper is derived from, the
//! [`Topology`] type describing an irregular topology (a mesh with some links
//! and/or routers absent, faulty, or power-gated), seeded fault models
//! ([`FaultModel`]) used for the design-space sweeps of Figs. 2, 3, 8–12,
//! and graph helpers ([`connected_components`], [`distances_from`], cycle
//! detection on [`Topology`]) that the routing layer and the experiments
//! build on.
//!
//! # Example
//!
//! ```
//! use sb_topology::{Mesh, FaultKind, FaultModel};
//! use rand::SeedableRng;
//!
//! let mesh = Mesh::new(8, 8);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let topo = FaultModel::new(FaultKind::Links, 10).inject(mesh, &mut rng);
//! assert_eq!(topo.alive_links().count(), mesh.link_count() - 10);
//! assert!(topo.has_undirected_cycle());
//! ```

mod analysis;
mod bitset;
mod faults;
mod geom;
mod mesh;
mod topology;

pub use analysis::{connected_components, distances_from, ComponentMap};
pub use bitset::NodeSet;
pub use faults::{FaultKind, FaultModel};
pub use geom::{Coord, Direction, NodeId, Turn, DIRECTIONS};
pub use mesh::Mesh;
pub use topology::{Link, Topology};
