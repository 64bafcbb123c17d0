//! **Ablation** — the Static Bubble design choices called out in
//! `DESIGN.md`: probe forking and the check-probe fast path, measured by
//! recovery effectiveness on staged organic deadlocks.
//!
//! A fleet client: the sampled topologies × the four SB variants are one
//! list of scenarios, with the historical per-topology simulation seeds
//! (`700 + i`, paired with topology `i` as the pre-fleet version did), run
//! by [`run_grid`] over the pool.

use sb_bench::{run_grid, sample_seeds, Args, Design, Scenario, Table};
use sb_scenario::FaultSpec;
use sb_sim::SpecialClass;
use sb_topology::FaultKind;
use static_bubble::SbOptions;

/// The variants: name, probe forking, check-probe fast path.
const VARIANTS: [(&str, bool, bool); 4] = [
    ("full", true, true),
    ("no-forking", false, true),
    ("no-check-probe", true, false),
    ("neither", false, false),
];

fn main() {
    let args = Args::parse_spec(
        "ablation",
        "probe forking and check-probe fast path",
        &[
            ("topos", "6"),
            ("cycles", "8000"),
            ("rate", "0.30"),
            ("csv", "-"),
            ("jobs", "0"),
            ("cache-dir", "-"),
        ],
    );
    let topos: usize = args.get("topos", 6);
    let cycles: u64 = args.get("cycles", 8_000);
    let rate: f64 = args.get("rate", 0.30);

    // The same topology batch `FaultModel::sample_topologies(mesh,
    // 0x00AB_1A7E, topos)` drew before the fleet port: per-sample seeds are
    // derived the same way and fed through `FaultSpec::Model`.
    let (kind, count) = (FaultKind::Links, 15);
    let mut scenarios = Vec::new();
    for (t, seed) in sample_seeds(0x00AB_1A7E, topos).into_iter().enumerate() {
        for (name, forking, check_probe) in VARIANTS {
            let opts = SbOptions {
                forking,
                check_probe,
                ..SbOptions::default()
            };
            scenarios.push(
                Scenario::new(format!("ablation/{name}/t{t}"), Design::StaticBubble)
                    .with_faults(FaultSpec::Model { kind, count, seed })
                    .with_rate(rate)
                    .with_sb_options(opts)
                    .with_warmup(500)
                    .with_cycles(cycles)
                    .with_seed(700 + t as u64),
            );
        }
    }
    let results = run_grid(&scenarios, &args);

    let mut table = Table::new(
        "Ablation: SB variants under deadlock-prone load (UR, 15 link faults)",
        &[
            "variant",
            "delivered",
            "throughput",
            "probes",
            "recovered",
            "checkprobe_hops",
        ],
    );
    for (v, (name, ..)) in VARIANTS.into_iter().enumerate() {
        let mut delivered = 0u64;
        let mut thr = 0.0;
        let mut probes = 0u64;
        let mut recovered = 0u64;
        let mut cp_hops = 0u64;
        for res in results.iter().skip(v).step_by(VARIANTS.len()) {
            delivered += res.stats.delivered_packets;
            thr += res.stats.throughput(res.nodes);
            probes += res.stats.probes_sent;
            recovered += res.stats.deadlocks_recovered;
            cp_hops += res.stats.special_link_flits[SpecialClass::CheckProbe.index()];
        }
        table.row(&[
            name.to_string(),
            delivered.to_string(),
            format!("{:.3}", thr / topos as f64),
            probes.to_string(),
            recovered.to_string(),
            cp_hops.to_string(),
        ]);
    }
    table.finish(args.get_str("csv"));
}
