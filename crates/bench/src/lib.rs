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

pub mod cli;
pub mod sweep;
pub mod table;

pub use cli::{ArgError, Args};
pub use sb_scenario::design;
pub use sb_scenario::{Design, RunOutcome, Scenario};
pub use sweep::{cache_from_args, run_grid, sample_seeds, sample_topologies_filtered};
pub use table::Table;

/// The `saturated` regime of `tests/saturated.rs` and of the
/// `BENCH_kernel.json` ledger: up*/down* routing on a 16×16 mesh with 20
/// link faults at 0.08 flits/node/cycle. Up*/down* is deadlock-free, so the
/// network stays live however far past its knee it is pushed — every router
/// contends every cycle and source queues grow for the whole run — where
/// an unprotected mesh driven past saturation wedges within a few thousand
/// cycles and times the worklist skipping a dead network (the `blocked`
/// regime, pinned by count in the root package's `tests/work_counts.rs`).
///
/// Where a tree's knee lies depends on its root and its faults, so the
/// fault pattern is pinned: this is the tree the repo benchmark's
/// `saturated` workload runs, which accepts 0.35–0.41 of the offered load
/// on every simulation seed tried. Callers check [`is_live_saturated`].
pub fn saturated_scenario(name: &str) -> Scenario {
    use sb_scenario::{FaultSpec, TrafficSpec};
    Scenario::new(name, Design::SpanningTree)
        .with_mesh(16, 16)
        .with_faults(FaultSpec::Model {
            kind: sb_topology::FaultKind::Links,
            count: 20,
            seed: 2,
        })
        .with_traffic(TrafficSpec::Uniform {
            rate: 0.08,
            single_vnet: true,
        })
        .with_seed(5)
}

/// Did a [`saturated_scenario`] window stay in its regime — packets
/// delivered (live) and 0.2–0.6 of the offered flits accepted (past the
/// knee)?
pub fn is_live_saturated(stats: &sb_sim::Stats) -> bool {
    stats.delivered_packets > 0 && (0.2..=0.6).contains(&stats.acceptance())
}
