//! A write-only dump of an engine's state (`DESIGN.md` §12).
//!
//! An [`EngineSnapshot`] holds the **architectural** state that determines
//! the future of a simulation — what the network holds: the serialised half
//! of [`crate::NetCore`] (VC occupant / ready / drain tables, `out_busy`,
//! round-robin pointers, bubbles, arena, injection queues, stats, clock),
//! the shared engine RNG, the injection tap, and the plugin's and traffic
//! source's own state as opaque JSON blobs (via
//! [`crate::Plugin::snapshot_state`] /
//! [`crate::traffic::TrafficSource::snapshot_state`]). It holds no
//! scheduler state (occupancy words, cached head bytes, worklist, time
//! wheel) and nothing of how the run is driven (scan mode, audit cadence).
//!
//! Nothing reads a snapshot back into an engine: the one way to get state
//! into a simulator is to build it and run it. The dump exists so that two
//! runs can be compared by their end state: runs of one scenario that were
//! driven differently (scan mode, chunking, audit cadence, tracing) must
//! end in the same bytes (`tests/contracts.rs`).

use crate::netcore::NetCore;
use crate::value::SpecError;
use serde::Serialize;

/// A serializable dump of an engine's state. See the module docs for what
/// it holds.
#[derive(Debug, Clone, Serialize)]
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
}
