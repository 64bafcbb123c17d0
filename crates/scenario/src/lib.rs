#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Declarative experiment layer (system **S9.5**, see `DESIGN.md`): the seam
//! between *describing* an experiment and *running* it.
//!
//! The paper's evaluation is a large design-space sweep: topologies ×
//! designs × traffic patterns × loads. This crate turns each point of that
//! space into plain data — a [`Scenario`] — that serializes to TOML or JSON
//! and materializes into a running simulation behind the [`SimRunner`]
//! interface. The hot loop (`sb-sim`) stays generic and monomorphized; the
//! assembly layer is dynamic and serializable; the per-figure binaries and
//! the `sbsim` CLI sit on top of both.
//!
//! ```
//! use sb_scenario::{Design, Scenario};
//!
//! let scenario = Scenario::new("quick-look", Design::StaticBubble)
//!     .with_mesh(4, 4)
//!     .with_rate(0.05)
//!     .with_warmup(100)
//!     .with_cycles(500);
//!
//! // Lossless text round-trip:
//! let text = sb_scenario::toml::to_toml_string(&scenario).unwrap();
//! let back: Scenario = sb_scenario::toml::from_toml_str(&text).unwrap();
//! assert_eq!(back, scenario);
//!
//! // ...and a live simulation:
//! let out = scenario.run();
//! assert!(out.stats.delivered_packets > 0);
//! ```

pub mod design;
pub mod id;
pub mod runner;
pub mod spec;

// The codecs live in `sb-sim` (engine snapshots serialize through JSON, and
// the two text backends share one lexer); re-exported here so the
// `sb_scenario::{json, toml, value}` paths are unchanged.
pub use sb_sim::{json, toml, value};

pub use design::{Design, RunOutcome, T_DD};
pub use id::{fnv1a, ScenarioId};
pub use runner::SimRunner;
pub use spec::{BubbleSpec, ClockMode, FaultSpec, Scenario, TrafficSpec};
pub use value::{from_value, to_value, SpecError, Value};

impl Scenario {
    /// Serialize this scenario as pretty JSON.
    pub fn to_json(&self) -> Result<String, SpecError> {
        json::to_json_string(self)
    }

    /// Parse a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        json::from_json_str(text)
    }

    /// Serialize this scenario as TOML.
    pub fn to_toml(&self) -> Result<String, SpecError> {
        toml::to_toml_string(self)
    }

    /// Parse a scenario from TOML text.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        toml::from_toml_str(text)
    }

    /// Load a scenario from a `.toml` or `.json` file (decided by
    /// extension; anything that is not `.json` is treated as TOML).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("read {}: {e}", path.display())))?;
        let json = path.extension().is_some_and(|e| e == "json");
        if json {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        }
        .map_err(|e| SpecError(format!("parse {}: {e}", path.display())))
    }
}
