#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cycle-accurate NoC simulator (system **S3**, see `DESIGN.md`).
//!
//! This crate is the substrate the paper evaluates on (gem5 + Garnet in the
//! original; built from scratch here). It models:
//!
//! * virtual-cut-through routers with per-port virtual channels grouped into
//!   virtual networks (3 vnets × 4 VCs per port by default, Table II);
//! * 1-cycle routers + 1-cycle links; packet serialization holds output
//!   links for `len` cycles;
//! * separable round-robin switch allocation with one grant per output port
//!   and one per input port per cycle;
//! * source routing: each packet is stamped with a [`sb_routing::Route`] at
//!   injection by a pluggable [`sb_routing::RouteSource`];
//! * a [`Plugin`] hook interface through which deadlock-handling schemes are
//!   attached: the null plugin (spanning-tree avoidance needs no mechanism),
//!   the [`EscapeVcPlugin`] baseline, and the Static Bubble plugin from the
//!   `static-bubble` crate;
//! * a deadlock *oracle* (`deadlock`) used by experiments to classify
//!   network states — never by the recovery mechanisms themselves.
//!
//! # Quick start
//!
//! ```
//! use sb_sim::{NullPlugin, SimConfig, Simulator, UniformTraffic};
//! use sb_routing::XyRouting;
//! use sb_topology::{Mesh, Topology};
//!
//! let topo = Topology::full(Mesh::new(4, 4));
//! let mut sim = Simulator::new(
//!     &topo,
//!     SimConfig::default(),
//!     Box::new(XyRouting::new(&topo)),
//!     NullPlugin,
//!     UniformTraffic::new(0.05),
//!     42,
//! );
//! sim.run(1_000);
//! assert!(sim.core().stats().delivered_packets > 0);
//! ```

mod arena;
mod audit;
mod config;
mod deadlock;
mod engine;
mod escape;
mod inspect;
pub mod json;
mod netcore;
mod packet;
mod plugin;
mod snapshot;
mod stats;
pub mod toml;
mod trace;
mod traffic;
pub mod value;
mod vc;

pub use arena::PacketHandle;
pub use audit::{AuditClass, ForensicsReport, Violation};
pub use config::SimConfig;
pub use deadlock::{find_deadlock, find_dependency_cycle, WaitForEdge};
pub use engine::{KernelCounters, Simulator};
pub use escape::EscapeVcPlugin;
pub use inspect::Snapshot;
pub use netcore::NetCore;
pub use packet::{NewPacket, Packet, PacketId, PacketMode};
pub use plugin::{InputRef, NullPlugin, OutPort, Plugin, SlotRef};
pub use snapshot::EngineSnapshot;
pub use stats::{SpecialClass, Stats};
pub use trace::Traced;
pub use traffic::{
    check_injectable, BitComplement, BitComplementTraffic, NoTraffic, Pattern, ScriptedTraffic,
    Synthetic, TrafficSource, Uniform, UniformTraffic, CTRL_FLITS, DATA_FLITS,
};
pub use vc::VcRef;

/// Epoch of the engine's *result semantics*: the promise that a given
/// scenario spec still produces bit-identical [`Stats`].
///
/// Downstream result caches (the fleet's content-addressed store, the
/// future `sbsimd` daemon) fold this into every cache key, so bumping it
/// invalidates all previously memoized results at once. Bump it whenever a
/// change alters what a simulation *computes* for the same spec — RNG
/// stream layout, allocation order, measurement-window semantics, the
/// meaning of an existing [`Stats`] field — even if no type changes.
/// Pure speedups that the A/B equivalence suites prove bit-identical do
/// NOT need a bump. (Layout changes to `Stats` itself are caught
/// automatically: cache epochs also hash the serialized shape of
/// `Stats::default()`.)
///
/// History: 2 — the Static Bubble plugin accounts cycles the engine
/// skipped *before* a tick's special-message deliveries, so a counter a
/// delivery restarts no longer absorbs the gap; runs that leaped through a
/// recovery changed (to what executing every cycle always computed).
pub const RESULT_EPOCH: u32 = 2;
