//! **Ablation** — the Static Bubble design choices called out in
//! `DESIGN.md`: probe forking and the check-probe fast path, measured by
//! recovery effectiveness on staged organic deadlocks.
//!
//! A fleet client at the `run_records` level: the grid is a [`SweepSpec`]
//! over the four SB variants × the sampled topologies, with the historical
//! per-topology simulation seeds (`700 + i`, paired with topology `i` as
//! the pre-fleet version did) patched onto the expanded runs before they
//! fan out over the pool.

use sb_bench::{cache_from_args, sample_seeds, sweep::jobs_from_args, Args, Design, Table};
use sb_fleet::{aggregate, run_records, ExecOptions, SweepSpec};
use sb_sim::SpecialClass;

fn main() {
    let args = Args::parse_spec(
        "ablation",
        "probe forking and check-probe fast path",
        &[
            ("topos", "6"),
            ("cycles", "8000"),
            ("rate", "0.30"),
            ("csv", "-"),
        ],
    );
    let topos = args.get_usize("topos", 6);
    let cycles = args.get_u64("cycles", 8_000);
    let rate = args.get_f64("rate", 0.30);
    let jobs = jobs_from_args(&args);

    let variants = ["full", "no-forking", "no-check-probe", "neither"];

    // The same topology batch `FaultModel::sample_topologies(mesh,
    // 0x00AB_1A7E, topos)` drew before the fleet port: per-sample seeds are
    // derived the same way and fed through `FaultSpec::Model`.
    let topo_seeds = sample_seeds(0x00AB_1A7E, topos);

    let mut spec = SweepSpec::new("ablation");
    spec.meshes = vec!["8x8".into()];
    spec.link_faults = vec![15];
    spec.topo_seeds = topo_seeds.clone();
    spec.designs = vec![Design::StaticBubble.label().to_string()];
    spec.sb_variants = variants.iter().map(|v| v.to_string()).collect();
    spec.rates = vec![rate];
    spec.warmup = 500;
    spec.cycles = cycles;
    spec.tdd = 34;

    // Expansion order is topo_seed (outer) → variant → rate → seed, so the
    // topology index of run `i` is `i / variants.len()`; restore the
    // historical pairing of simulation seed 700+topo onto each run.
    let mut runs = spec.expand().expect("ablation grid");
    for (i, run) in runs.iter_mut().enumerate() {
        run.scenario.seed = 700 + (i / variants.len()) as u64;
    }
    let cache = cache_from_args(&args);
    let (records, acct) = run_records(&spec.name, &runs, jobs, ExecOptions::default(), &cache);
    if cache.dir.is_some() {
        eprintln!("{}", acct.to_json_line());
    }
    let report = aggregate(&spec.name, spec.accept, &runs, records);
    assert!(
        report.failed.is_empty(),
        "ablation runs failed: {:?}",
        report.failed
    );

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
    for name in variants {
        let marker = format!("/{name}/");
        let mut delivered = 0u64;
        let mut thr = 0.0;
        let mut probes = 0u64;
        let mut recovered = 0u64;
        let mut cp_hops = 0u64;
        let mut n = 0usize;
        for row in report
            .scenarios
            .iter()
            .filter(|r| r.id.key.contains(&marker))
        {
            let stats = row.stats.as_ref().expect("no failures above");
            delivered += stats.delivered_packets;
            thr += stats.throughput(row.nodes);
            probes += stats.probes_sent;
            recovered += stats.deadlocks_recovered;
            cp_hops += stats.special_link_flits[SpecialClass::CheckProbe.index()];
            n += 1;
        }
        assert_eq!(n, topos, "variant {name} must cover every topology");
        table.row(&[
            name.to_string(),
            delivered.to_string(),
            format!("{:.3}", thr / n as f64),
            probes.to_string(),
            recovered.to_string(),
            cp_hops.to_string(),
        ]);
    }
    table.print();
    if let Some(path) = args.get_str("csv") {
        table
            .write_csv(std::path::Path::new(path))
            .expect("write csv");
    }
}
