#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness (system **S9**, `DESIGN.md`): the front end every
//! experiment binary shares — the one argument parser ([`Args`]), the one
//! call that runs a figure's scenarios through the fleet ([`run_grid`]) and
//! the result table ([`Table`]) — plus the binaries themselves in
//! `src/bin/`: one per paper figure, and `sweep`, which runs a sweep-spec
//! file. (`sbsim` lives in the root package and parses with [`Args`] too.)
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run -p sb-bench --release --bin fig08 -- --topos 8 --cycles 6000
//! ```
//!
//! Every binary prints the paper's rows/series to stdout; `--help` lists the
//! knobs it accepts, and it accepts no others. Defaults are sized to finish
//! on a laptop; `EXPERIMENTS.md` records the settings used for the
//! committed results.

mod cli;
pub mod sweep;
mod table;

pub use cli::{ArgError, Args};
pub use sb_scenario::design;
pub use sb_scenario::{Design, Scenario};
pub use sweep::{cache_from_args, run_grid, sample_seeds, sample_topologies_filtered};
pub use table::Table;
