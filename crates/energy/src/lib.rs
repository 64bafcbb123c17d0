#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! DSENT-like analytic energy / area model (system **S7**, `DESIGN.md`).
//!
//! The paper estimates network energy and area with DSENT at 32 nm / 2 GHz.
//! We replace the circuit-level tool with an analytic model whose constants
//! have the right *relative* magnitudes (buffers and crossbar dominate router
//! area; leakage scales with buffer count; link vs. router split as in
//! Fig. 10). Absolute picojoules are not meaningful; the ratios between the
//! three designs — spanning tree, escape VC, Static Bubble — are what the
//! experiments report, and those follow from the buffer/traffic accounting.
//!
//! The model consumes the generic [`sb_sim::Stats`] counters plus a
//! [`NetworkConfigCost`] describing the hardware (alive routers, buffers,
//! links), so any finished simulation can be priced after the fact:
//!
//! ```
//! use sb_energy::{EnergyModel, NetworkConfigCost};
//! use sb_sim::Stats;
//!
//! let model = EnergyModel::dsent_32nm();
//! let stats = Stats { cycles: 1_000, data_link_flits: 5_000,
//!                     data_router_flits: 5_000, ..Stats::default() };
//! let cfg = NetworkConfigCost { alive_routers: 64, total_buffers: 64 * 48 + 21,
//!                               alive_links: 224 };
//! assert!(model.price(&stats, cfg).total() > 0.0);
//! ```

mod area;
mod model;

pub use area::AreaModel;
pub use model::{EnergyBreakdown, EnergyModel, NetworkConfigCost};
