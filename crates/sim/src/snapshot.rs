//! Engine snapshots for checkpoint / resume / deadlock bisection (system
//! **S13**, see `DESIGN.md` §12).
//!
//! An [`EngineSnapshot`] holds the **architectural** state that determines
//! the future of a simulation — what the network holds: the serialised half
//! of [`crate::NetCore`] (VC occupant / ready / drain tables, `out_busy`,
//! round-robin pointers, bubbles, arena, injection queues, stats, clock),
//! the shared engine RNG, the injection tap, and the plugin's and traffic
//! source's own state as opaque JSON blobs (via
//! [`crate::Plugin::snapshot_state`] /
//! [`crate::traffic::TrafficSource::snapshot_state`]). It does not hold
//! scheduler state (occupancy words, cached head bytes, worklist, time
//! wheel: [`crate::Simulator::restore`] re-derives them from the tables) or
//! how the run is driven (scan mode, audit cadence: the restoring simulator
//! keeps its own).
//!
//! The determinism contract: build a fresh simulator from the same
//! scenario, [`crate::Simulator::restore`] the snapshot into it, and
//! everything observable about every subsequent cycle — Stats,
//! ForensicsReports, RNG draws, the bytes of any later snapshot — is
//! identical to the run that never stopped. The topology travels inside
//! the serialized `NetCore`; the route *planner* is not captured and must
//! be reconstructed deterministically from the same scenario spec, so a
//! snapshot taken after a mid-run `reconfigure` must be restored into a
//! simulator built with the post-reconfiguration planner.

use crate::netcore::NetCore;
use crate::value::SpecError;
use serde::{Deserialize, Serialize};

/// A serializable engine checkpoint. See the module docs for what it holds
/// and for the resume contract.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Cycle the snapshot was taken at (redundant with `core`'s clock,
    /// kept explicit for humans reading the JSON).
    pub time: u64,
    /// The network state; its architectural half is what serialises.
    pub core: NetCore,
    /// Raw state of the shared engine RNG (xoshiro256**).
    pub rng: [u64; 4],
    /// Whether injection was halted.
    pub injection_halted: bool,
    /// The plugin's state blob ([`crate::Plugin::snapshot_state`]).
    pub plugin: String,
    /// The traffic source's state blob
    /// ([`crate::traffic::TrafficSource::snapshot_state`]).
    pub traffic: String,
}

impl EngineSnapshot {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> Result<String, SpecError> {
        crate::json::to_json_string(self)
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        crate::json::from_json_str(text)
    }

    /// Load from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("read {}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| SpecError(format!("parse {}: {e}", path.display())))
    }
}
