#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Application profiles (system **S8**).
//!
//! The paper evaluates with uniform-random and bit-complement synthetic
//! traffic (`sb_sim::Synthetic`), full-system PARSEC 2.0 runs on gem5, and
//! Rodinia GPU traces. The full-system stack is proprietary-scale
//! infrastructure, so this crate provides the documented substitution
//! (`DESIGN.md` §2): **closed-loop request/reply application profiles**.
//!
//! Cores issue 1-flit read requests (vnet 0) to memory controllers and peer
//! cores and receive 5-flit replies (vnet 2) after a fixed service delay,
//! with a bounded number of outstanding requests per core (an MLP window).
//! Per-application knobs — issue rate, window, peer-vs-memory mix,
//! burstiness — are chosen so each profile reproduces the qualitative
//! behaviour the paper reports for that benchmark (e.g. `hadoop`'s heavy
//! collective traffic saturating every design early, PARSEC's injection
//! rates an order of magnitude below saturation).
//!
//! Application throughput is measured in completed transactions per kilocycle
//! and runtime as cycles to finish a fixed transaction count, mirroring the
//! metrics of Figs. 12 and 13.

mod apps;
pub mod mc;

pub use apps::{AppProfile, AppTraffic, ParsecApp, RodiniaApp};
pub use mc::default_memory_controllers;
