#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! **Static Bubble** — the paper's contribution (system **S4**, `DESIGN.md`).
//!
//! A plug-and-play framework for deadlock *recovery* on any topology derived
//! from a mesh (heterogeneous SoCs at design time; faults and power-gating at
//! runtime):
//!
//! 1. [`mod@placement`] — the design-time algorithm (Section III) that augments a
//!    subset of mesh routers (21 in an 8×8, 89 in a 16×16) with one extra
//!    packet-sized buffer — the *static bubble* — such that **every possible
//!    cycle in the mesh passes through at least one static-bubble router**.
//! 2. [`fsm`] + [`msg`] — the runtime microarchitecture (Section IV): a
//!    6-state counter FSM at each static-bubble router that detects deadlocks
//!    with **probe** messages, freezes the deadlocked ring with **disable**,
//!    opens the bubble to let the ring advance, re-checks with
//!    **check-probe**, and releases with **enable**. [`protocol`] decides
//!    (pure functions of one router's registers), [`plugin`] gathers each
//!    cycle's events and applies the decisions, [`trace`] records them.
//!
//! All flows use minimal routes all the time — no spanning trees, no escape
//! paths, no routing restrictions before a deadlock actually occurs.
//!
//! # Quick start
//!
//! ```
//! use static_bubble::{placement, StaticBubblePlugin};
//! use sb_sim::{SimConfig, Simulator, UniformTraffic};
//! use sb_routing::MinimalRouting;
//! use sb_topology::{Mesh, Topology};
//!
//! let mesh = Mesh::new(8, 8);
//! let topo = Topology::full(mesh);
//! let bubbles = placement::placement(mesh);
//! assert_eq!(bubbles.len(), 21);
//!
//! let mut sim = Simulator::with_bubbles(
//!     &topo,
//!     SimConfig::single_vnet(),
//!     Box::new(MinimalRouting::new(&topo)),
//!     StaticBubblePlugin::new(mesh, 34),
//!     UniformTraffic::new(0.05).single_vnet(),
//!     1,
//!     &bubbles,
//! );
//! sim.run(2_000);
//! assert!(sim.core().stats().delivered_packets > 0);
//! ```

pub mod fsm;
pub mod microarch;
pub mod msg;
pub mod placement;
pub mod plugin;
pub mod protocol;
pub mod trace;

pub use fsm::{FsmState, IllegalTransition, SbFsm};
pub use microarch::{MessageBudget, RouterStateBits};
pub use msg::{MsgKind, SpecialMsg, TURN_CAPACITY};
pub use placement::{
    bubble_count, coverage_holds, covers_all_cycles, greedy_placement, is_static_bubble_node,
    placement,
};
pub use plugin::StaticBubblePlugin;
pub use protocol::SbOptions;
