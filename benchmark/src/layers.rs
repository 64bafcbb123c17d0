//! The traced pass: per-layer metrics from spans the benchmark records
//! around its own calls into each layer, plus timed probes of single
//! public functions. End-to-end metrics never come from here; untraced
//! rounds alternate with the traced ones only to measure what tracing
//! costs.
//!
//! A metric whose layer the workload does not exercise stays unset and is
//! reported as 0. README.md says which end-to-end metric each of these
//! should move, on which workload.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use sb_fleet::{cache, execute_one, schema_epoch, DiskCache, ExecOptions, RunResult, SweepSpec};
use sb_pool::{ordered_map, WorkerPool};
use sb_routing::{MinimalRouting, RouteSource, UpDownRouting};
use sb_scenario::{ClockMode, Scenario, TrafficSpec};
use sb_sim::{NullPlugin, OutPort, Simulator, TrafficSource, UniformTraffic};
use sb_topology::{Direction, Mesh, NodeId, Topology};

use crate::exec::{execute, Outcome, Slice};
use crate::fleet::{self, parse_and_expand, Grid};
use crate::measure::{ratio, run_rounds, Runner};
use crate::metrics::Values;
use crate::report::PassReport;
use crate::summary::{median, min_max, percentile, stats_digest, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workloads::{mix, Instance, Source, Workload};
use crate::Options;

/// Time `batch` repeatedly for about `budget_s` (at least five batches),
/// one span per batch; each call returns how many operations it did. The
/// result is the fastest batch's nanoseconds per operation (every batch
/// does the same work; see "Why minima" in README.md).
fn probe(
    tracer: &mut Tracer,
    name: &'static str,
    budget_s: f64,
    mut batch: impl FnMut() -> u64,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed().as_secs_f64() < budget_s {
        let t = tracer.begin(name);
        let ops = batch().max(1);
        samples.push(tracer.end_counted(t, ops) * 1e9 / ops as f64);
    }
    min_max(&samples).0
}

fn median_us(tracer: &Tracer, span: &str) -> f64 {
    median(&tracer.durations_s(span)) * 1e6
}

/// Fastest span named `span`, microseconds: for spans that all cover the
/// same work.
fn fastest_us(tracer: &Tracer, span: &str) -> f64 {
    min_max(&tracer.durations_s(span)).0 * 1e6
}

/// The instances whose spans stand for the workload's simulations: its
/// own, or for the fleet workload four runs spread over the grid.
fn traced_instances(runner: &Runner) -> Vec<Instance> {
    match runner {
        Runner::Single(_, insts) => insts.clone(),
        Runner::Fleet(grid) => {
            let (_, runs) = parse_and_expand(&grid.spec_toml).expect("parsed at construction");
            let step = (runs.len() / 4).max(1);
            runs.into_iter()
                .step_by(step)
                .take(4)
                .map(|run| Instance {
                    scenario: run.scenario,
                    source: Source::Spec,
                    drain_budget: None,
                    slice_cycles: 128,
                })
                .collect()
        }
    }
}

/// Per-layer metrics every workload's simulations yield: set-up layers,
/// window slices, drain, audit, recovery activity. `outcomes` holds whole
/// rounds of `round_len` executions each; as in `measure.rs`, every timed
/// piece is taken at its fastest repetition across rounds.
fn simulation_layers(values: &mut Values, outcomes: &[Outcome], round_len: usize) {
    let rounds: Vec<&[Outcome]> = outcomes.chunks_exact(round_len.max(1)).collect();
    let Some(first) = rounds.first() else {
        return;
    };
    // Fastest repetition of one timed piece of instance `i`.
    let fastest = |i: usize, piece: &dyn Fn(&Outcome) -> f64| {
        rounds
            .iter()
            .map(|round| piece(&round[i]))
            .fold(f64::INFINITY, f64::min)
    };
    let per_instance = |piece: &dyn Fn(&Outcome) -> f64| -> f64 {
        (0..first.len()).map(|i| fastest(i, piece)).sum::<f64>() / first.len() as f64
    };
    values.set(
        "topology.build_us",
        per_instance(&|o| o.layers.topology_s) * 1e6,
    );
    values.set(
        "routing.table_build_us",
        per_instance(&|o| o.layers.planner_s) * 1e6,
    );
    values.set(
        "core.placement_us",
        per_instance(&|o| o.layers.placement_s) * 1e6,
    );
    // Difference of fastest repetitions, not fastest difference: the
    // latter would pick the round whose isolated planner call ran slow.
    let placement_in_build = |o: &Outcome| {
        if o.layers.build_places {
            o.layers.placement_s
        } else {
            0.0
        }
    };
    let construct_s = per_instance(&|o| o.layers.build_s)
        - per_instance(&|o| o.layers.planner_s)
        - per_instance(&placement_in_build);
    // Where the route tables are nearly all of the build (3 ms of it on
    // a 16x16), what is left is below what two timings can resolve.
    values.set("sim.construct_us", construct_s.max(0.0) * 1e6);
    values.set("sim.audit_now_us", per_instance(&|o| o.phase_s[3]) * 1e6);

    let total = |piece: &dyn Fn(&Outcome) -> f64| per_instance(piece) * first.len() as f64;
    let count = |f: &dyn Fn(&Outcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
    values.set(
        "sim.warmup_ns_per_cycle",
        ratio(total(&|o| o.phase_s[0]) * 1e9, count(&|o| o.warmup_cycles)),
    );
    values.set(
        "sim.drain_ns_per_cycle",
        ratio(total(&|o| o.phase_s[2]) * 1e9, count(&|o| o.drain_cycles)),
    );
    values.set("sim.drain_cycles", count(&|o| o.drain_cycles));

    // One entry per distinct slice: what it covered (from the first
    // round; identical in every round) and its fastest repetition.
    let slices: Vec<(Slice, f64)> = (0..first.len())
        .flat_map(|i| {
            let fastest = &fastest;
            first[i].slices.iter().enumerate().map(move |(j, slice)| {
                let secs = fastest(i, &|o| o.slices.get(j).map_or(f64::INFINITY, |s| s.secs));
                (*slice, secs)
            })
        })
        .collect();
    let sum = |of: &dyn Fn(&Slice) -> bool| {
        let picked = slices.iter().filter(|(s, _)| of(s));
        picked.fold((0.0, 0u64, 0u64), |(secs, cycles, moves), (s, fast)| {
            (secs + fast, cycles + s.cycles, moves + s.movements)
        })
    };
    let (secs, cycles, movements) = sum(&|_| true);
    values.set("sim.measure_ns_per_cycle", ratio(secs * 1e9, cycles as f64));
    values.set("sim.ns_per_movement", ratio(secs * 1e9, movements as f64));
    let (secs, cycles, _) = sum(&|s| s.recovery);
    values.set(
        "core.recovery_slice_ns_per_cycle",
        ratio(secs * 1e9, cycles as f64),
    );
    let (secs, cycles, _) = sum(&|s| !s.recovery);
    values.set(
        "core.quiet_slice_ns_per_cycle",
        ratio(secs * 1e9, cycles as f64),
    );
    let per_cycle: Vec<f64> = slices
        .iter()
        .filter(|(s, _)| s.cycles > 0)
        .map(|(s, fast)| fast * 1e9 / s.cycles as f64)
        .collect();
    values.set("sim.slice_count", per_cycle.len() as f64);
    values.set(
        "sim.slice_ns_per_cycle_p50",
        percentile(&per_cycle, 50.0).unwrap_or(0.0),
    );
    values.set(
        "sim.slice_ns_per_cycle_p95",
        percentile(&per_cycle, 95.0).unwrap_or(0.0),
    );

    values.set(
        "core.recovery_slices",
        slices.iter().filter(|(s, _)| s.recovery).count() as f64,
    );
    values.set("core.probes_sent", count(&|o| o.stats.probes_sent));
    values.set(
        "core.deadlocks_recovered",
        count(&|o| o.stats.deadlocks_recovered),
    );
    values.set("core.probes_dropped", count(&|o| o.stats.probes_dropped));
    let wedged = first.iter().filter(|o| o.drained == Some(false)).count();
    values.set("core.wedged_instances", wedged as f64);
    let requests = count(&|o| o.requests.unwrap_or(0));
    values.set("workloads.requests_completed", requests);
    let serving = total(&|o| if o.requests.is_some() { o.wall_s } else { 0.0 });
    values.set("workloads.us_per_request", ratio(serving * 1e6, requests));
}

/// Probes of single public functions on the workload's first topology.
fn function_probes(
    values: &mut Values,
    tracer: &mut Tracer,
    inst: &Instance,
    seed: u64,
    budget_s: f64,
) {
    let scenario = &inst.scenario;
    let topo = scenario.topology();
    let alive: Vec<NodeId> = topo.alive_nodes().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, 0xB0, 0));
    let pairs: Vec<(NodeId, NodeId)> = (0..1024)
        .map(|_| {
            (
                alive[rng.gen_range(0..alive.len())],
                alive[rng.gen_range(0..alive.len())],
            )
        })
        .collect();
    let mut route_ns = |tracer: &mut Tracer, name, planner: &dyn RouteSource| {
        probe(tracer, name, budget_s, || {
            let routed = pairs
                .iter()
                .filter(|(src, dst)| planner.route(*src, *dst, &mut rng).is_some())
                .count();
            std::hint::black_box(routed);
            pairs.len() as u64
        })
    };
    let minimal = MinimalRouting::new(&topo);
    let ns = route_ns(tracer, "routing.route.minimal", &minimal);
    values.set("routing.route_ns_minimal", ns);
    let updown = UpDownRouting::new(&topo);
    let ns = route_ns(tracer, "routing.route.updown", &updown);
    values.set("routing.route_ns_updown", ns);

    // The ROADMAP item-1 suspect, in isolation: one `generate` call per
    // cycle over 256 alive nodes at the low-load rate.
    let full = Topology::full(Mesh::new(16, 16));
    for (name, span, mut source) in [
        (
            "sim.traffic_generate_ns_per_cycle_bernoulli",
            "sim.traffic_generate.bernoulli",
            UniformTraffic::new(0.02).single_vnet(),
        ),
        (
            "sim.traffic_generate_ns_per_cycle_geometric",
            "sim.traffic_generate.geometric",
            UniformTraffic::new(0.02).single_vnet().geometric(),
        ),
    ] {
        let mut time = 0u64;
        let ns = probe(tracer, span, budget_s, || {
            let mut packets = 0;
            for _ in 0..2_000 {
                packets += source.generate(time, &full, &mut rng).len();
                time += 1;
            }
            std::hint::black_box(packets);
            2_000
        });
        values.set(name, ns);
    }

    // The allocator's two halves, through the public probes the criterion
    // bench uses, on this workload's topology loaded at its own rate.
    let rate = match scenario.traffic {
        TrafficSpec::Uniform { rate, .. } | TrafficSpec::BitComplement { rate, .. } => rate,
        TrafficSpec::Idle => 0.05,
    };
    let traffic = UniformTraffic::new(rate);
    let traffic = if scenario.config.vnets == 1 {
        traffic.single_vnet()
    } else {
        traffic
    };
    let mut sim = Simulator::new(
        &topo,
        scenario.config,
        scenario.design.planner(&topo),
        NullPlugin,
        traffic,
        scenario.seed,
    );
    sim.run(1_000);
    let routers = topo.mesh().node_count();
    let ns = probe(tracer, "sim.candidate_masks", budget_s, || {
        let mut acc = 0u64;
        for r in 0..routers {
            let mut cand = [0u64; 5];
            sim.core()
                .candidate_masks(NodeId::from(std::hint::black_box(r)), &mut cand);
            acc ^= cand.iter().fold(0, |a, c| a ^ c);
        }
        std::hint::black_box(acc);
        routers as u64
    });
    values.set("sim.candidate_masks_ns", ns);
    let ns = probe(tracer, "sim.probe_winner", budget_s, || {
        let mut probes = 0u64;
        for r in 0..routers {
            let router = NodeId::from(r);
            let mut cand = [0u64; 5];
            sim.core().candidate_masks(router, &mut cand);
            for (out_idx, &mask) in cand.iter().enumerate().filter(|(_, &m)| m != 0) {
                let out = if out_idx == 4 {
                    OutPort::Eject
                } else {
                    OutPort::Dir(Direction::from_index(out_idx))
                };
                std::hint::black_box(sim.probe_winner(router, out, mask, 0));
                probes += 1;
            }
        }
        probes
    });
    values.set("sim.probe_winner_ns", ns);

    // Pool hand-off costs: what the fleet pays per run and the parallel
    // tick per cycle, with no work inside the jobs.
    let ns = probe(tracer, "pool.ordered_map", budget_s, || {
        let done = ordered_map((0..10_000u64).collect(), fleet::JOBS, |_, x| x);
        std::hint::black_box(done.len()) as u64
    });
    values.set("pool.ordered_map_ns_per_job", ns);
    let pool = WorkerPool::new(fleet::JOBS);
    let ns = probe(tracer, "pool.batch_roundtrip", budget_s, || {
        for _ in 0..200 {
            let jobs: Vec<fn() -> u64> = vec![|| 0, || 1];
            std::hint::black_box(pool.submit(jobs).collect());
        }
        200
    });
    values.set("pool.batch_roundtrip_ns", ns);
}

/// Spec codecs: TOML and JSON round trip of the generated spec, and the
/// content fingerprint the result cache keys on.
fn codec_probes(
    values: &mut Values,
    tracer: &mut Tracer,
    scenario: &Scenario,
    grid: Option<&Grid>,
    budget_s: f64,
) -> Result<(), String> {
    let err = |e: sb_scenario::SpecError| format!("codec: {e}");
    let (toml, json) = (
        scenario.to_toml().map_err(err)?,
        scenario.to_json().map_err(err)?,
    );
    // The generated spec is the scenario, or for the fleet workload the
    // grid; either way both codecs, both directions.
    type Codec<'a> = Box<dyn Fn() -> bool + 'a>;
    let grid_spec = match grid {
        Some(grid) => {
            let (spec, _) = parse_and_expand(&grid.spec_toml)?;
            let grid_json = spec.to_json().map_err(err)?;
            Some((spec, &grid.spec_toml, grid_json))
        }
        None => None,
    };
    let (decode, encode): (Codec, Codec) = match &grid_spec {
        Some((spec, grid_toml, grid_json)) => (
            Box::new(|| {
                SweepSpec::from_toml(grid_toml).is_ok() & SweepSpec::from_json(grid_json).is_ok()
            }),
            Box::new(|| spec.to_toml().is_ok() & spec.to_json().is_ok()),
        ),
        None => (
            Box::new(|| Scenario::from_toml(&toml).is_ok() & Scenario::from_json(&json).is_ok()),
            Box::new(|| scenario.to_toml().is_ok() & scenario.to_json().is_ok()),
        ),
    };
    for (name, span, codec) in [
        ("scenario.decode_us", "scenario.decode", decode),
        ("scenario.encode_us", "scenario.encode", encode),
    ] {
        let ns = probe(tracer, span, budget_s, || {
            std::hint::black_box(codec());
            1
        });
        values.set(name, ns / 1e3);
    }
    let ns = probe(tracer, "scenario.fingerprint", budget_s, || {
        std::hint::black_box(scenario.content_fingerprint().is_ok());
        1
    });
    values.set("scenario.fingerprint_us", ns / 1e3);
    if Scenario::from_toml(&toml).as_ref() != Ok(scenario)
        || Scenario::from_json(&json).as_ref() != Ok(scenario)
    {
        return Err("spec does not survive its own codecs".to_string());
    }
    Ok(())
}

/// One short untraced execution of `inst` with `edit` applied; returns
/// host seconds per simulated cycle of the window and the `Stats` digest.
fn variant(w: Workload, inst: &Instance, edit: impl FnOnce(&mut Instance)) -> (f64, u64) {
    let mut inst = inst.clone();
    edit(&mut inst);
    let out = execute(w, &inst, &mut Tracer::off());
    (
        ratio(out.phase_s[1], inst.scenario.cycles as f64),
        stats_digest(FNV_OFFSET, &out.stats),
    )
}

/// `sparse_leap`: what the leap clock buys over stepping the same spec
/// (1/20 of the window is enough to time the stepped kernel).
fn leap_speedup(values: &mut Values, inst: &Instance, leap_ns_per_cycle: f64) {
    let (step_s, _) = variant(Workload::SparseLeap, inst, |i| {
        i.scenario.clock = ClockMode::Step;
        i.scenario.cycles = (i.scenario.cycles / 20).max(1);
        i.drain_budget = None;
    });
    values.set("sim.leap_speedup", ratio(step_s * 1e9, leap_ns_per_cycle));
}

/// `saturated`: the parallel tick at two threads against one over a
/// quarter of the window, alternating so host drift hits both; `Stats`
/// must not depend on the thread count.
fn par_tick_speedup(values: &mut Values, inst: &Instance) -> Result<(), String> {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    for _ in 0..2 {
        for (threads, into) in [(1, &mut one), (2, &mut two)] {
            let (secs, digest) = variant(Workload::Saturated, inst, |i| {
                i.scenario.threads = threads;
                i.scenario.cycles = (i.scenario.cycles / 4).max(1);
            });
            into.push(secs);
            digests.push(digest);
        }
    }
    values.set("sim.par_tick_speedup_t2", ratio(median(&one), median(&two)));
    if digests.windows(2).any(|d| d[0] != d[1]) {
        return Err("Stats depend on the thread count".to_string());
    }
    Ok(())
}

/// `low_load`: what a user of the CLI pays on top of the simulation —
/// process start, spec file parse, report printing. Spawns the repo's own
/// `sbsim` (`$BENCH_SBSIM`; `run.sh` builds it from the root manifest) on the
/// dumped spec at 1/10 length.
fn cli_overhead(values: &mut Values, inst: &Instance, options: &Options) -> Result<(), String> {
    let mut scenario = inst.scenario.clone();
    scenario.cycles = (scenario.cycles / 10).max(1);
    let path = options.out_dir.join("low_load_spec.json");
    let text = scenario.to_json().map_err(|e| format!("dump spec: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let sbsim = &options.sbsim;
    let (mut spawned, mut inline) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let started = Instant::now();
        let output = std::process::Command::new(sbsim)
            .arg("--scenario")
            .arg(&path)
            .output()
            .map_err(|e| format!("spawn {}: {e}", sbsim.display()))?;
        spawned.push(started.elapsed().as_secs_f64());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("delivered packets :"))
            .ok_or(format!("sbsim exited with {} and no report", output.status))?;
        let started = Instant::now();
        let out = scenario.run();
        inline.push(started.elapsed().as_secs_f64());
        let delivered = out.stats.delivered_packets;
        if line.trim().parse() != Ok(delivered) {
            return Err(format!(
                "sbsim delivered{line} packets, in-process {delivered}"
            ));
        }
    }
    // Fastest against fastest: the difference is a few milliseconds, less
    // than what a busy neighbour adds to either side.
    values.set(
        "cli.sbsim_overhead_ms",
        (min_max(&spawned).0 - min_max(&inline).0) * 1e3,
    );
    Ok(())
}

/// The fleet's layers on the grid: per-run execution, both job counts,
/// aggregation, report serialization, cache stores and loads.
fn fleet_layers(values: &mut Values, tracer: &mut Tracer, grid: &mut Grid) -> Result<(), String> {
    let (spec, runs) = parse_and_expand(&grid.spec_toml)?;
    let expand = probe(tracer, "fleet.expand", 0.05, || {
        std::hint::black_box(spec.expand().map(|r| r.len()).unwrap_or(0));
        1
    });
    values.set("fleet.expand_us", expand / 1e3);

    // Sequential `execute_one` over the expanded runs, three times over:
    // the slow tail of this distribution sets the grid's tail at jobs > 1.
    let opts = ExecOptions::default();
    let mut per_run = Vec::new();
    let mut results: Vec<RunResult> = Vec::new();
    for pass in 0..3 {
        for run in &runs {
            let t = tracer.begin("fleet.execute_one");
            let result = execute_one(&run.scenario, opts);
            per_run.push(tracer.end(t) * 1e6);
            if pass == 0 {
                results.push(result);
            }
        }
    }
    values.set("fleet.execute_one_samples", per_run.len() as f64);
    values.set(
        "fleet.execute_one_us_p50",
        percentile(&per_run, 50.0).unwrap_or(0.0),
    );
    values.set(
        "fleet.execute_one_us_p95",
        percentile(&per_run, 95.0).unwrap_or(0.0),
    );

    let mut failed = 0;
    let timed_pass = |grid: &mut Grid, tracer: &mut Tracer, jobs| {
        let (cache, dir) = grid.fresh_cache();
        let done = fleet::pass(&spec, &runs, jobs, &cache, tracer);
        let _ = std::fs::remove_dir_all(dir);
        done
    };
    let jobs1 = timed_pass(grid, tracer, 1)?;
    let jobs2 = timed_pass(grid, tracer, fleet::JOBS)?;
    failed += u64::from(jobs1.json != grid.reference) + u64::from(jobs2.json != grid.reference);
    values.set("fleet.cold_jobs1_s", jobs1.wall_s());
    values.set("fleet.jobs2_speedup", ratio(jobs1.wall_s(), jobs2.wall_s()));
    values.set("fleet.aggregate_us", fastest_us(tracer, "fleet.aggregate"));
    values.set(
        "fleet.report_json_us",
        fastest_us(tracer, "fleet.report_json"),
    );
    values.set("fleet.report_bytes", jobs2.json.len() as f64);
    values.set("fleet.simulated", jobs2.acct.simulated as f64);
    values.set("fleet.unique_scenarios", jobs2.acct.unique_scenarios as f64);

    // Stores and loads one entry at a time, then whole warm passes.
    let (cache, dir) = grid.fresh_cache();
    let disk = cache
        .dir
        .as_ref()
        .and_then(DiskCache::open)
        .ok_or("cannot open a cache directory")?;
    let epoch = schema_epoch();
    let mut entry_bytes = Vec::new();
    for (run, result) in runs.iter().zip(&results) {
        let key = cache::content_key(&run.scenario, opts, epoch)
            .map_err(|e| format!("content key: {e}"))?;
        let t = tracer.begin("fleet.cache_store");
        let stored = disk.store(&key, &run.id.key, result);
        tracer.end(t);
        let t = tracer.begin("fleet.cache_load");
        let loaded = disk.load(&key);
        tracer.end(t);
        failed += u64::from(!stored || loaded.as_ref() != Some(result));
        let size = std::fs::metadata(disk.entry_path(&key)).map_or(0, |m| m.len());
        entry_bytes.push(size as f64);
    }
    values.set(
        "fleet.cache_store_us_p50",
        median_us(tracer, "fleet.cache_store"),
    );
    values.set(
        "fleet.cache_load_us_p50",
        median_us(tracer, "fleet.cache_load"),
    );
    values.set("fleet.cache_entry_bytes", median(&entry_bytes));
    let mut warm = Vec::new();
    let mut hits = 0;
    for _ in 0..30 {
        let done = fleet::pass(&spec, &runs, fleet::JOBS, &cache, tracer)?;
        failed += u64::from(done.json != grid.reference || done.acct.simulated != 0);
        hits = done.acct.disk_hits;
        warm.push(done.wall_s());
    }
    let _ = std::fs::remove_dir_all(dir);
    values.set("fleet.warm_pass_s", median(&warm));
    values.set("fleet.disk_hits", hits as f64);
    if failed > 0 {
        return Err(format!("{failed} fleet layer check(s) failed"));
    }
    Ok(())
}

/// The traced pass over `w`.
pub fn traced_pass(w: Workload, options: &Options) -> Result<PassReport, String> {
    let seconds = options.seconds;
    let rounds = options.min_rounds.min(2);
    let mut runner = Runner::new(w, options.seed, options.len_div, &options.out_dir)?;
    let mut values = Values::default();
    let mut failures = Vec::new();

    // What tracing costs: the same rounds with it off and on, in turn.
    let mut tracer = Tracer::on();
    let mut outcomes = Vec::new();
    let [plain, traced] = run_rounds(
        &mut runner,
        [&mut Tracer::off(), &mut tracer],
        0.5 * seconds,
        rounds,
        &mut outcomes,
    );
    values.set(
        "trace_overhead_share",
        ratio(traced.wall_s(), plain.wall_s()) - 1.0,
    );
    let mut attempted = plain.attempted + traced.attempted;
    failures.extend(plain.failures);
    failures.extend(traced.failures);

    let insts = traced_instances(&runner);
    let round_len = insts.len();
    if matches!(runner, Runner::Fleet(_)) {
        // The fleet builds its simulators out of reach; run a sample of
        // the grid's scenarios here so their layers have spans too.
        for inst in &insts {
            let out = execute(w, inst, &mut tracer);
            attempted += 1;
            failures.extend(out.failure.iter().cloned());
            outcomes.push(out);
        }
    }
    simulation_layers(&mut values, &outcomes, round_len);

    // Probes of single functions, on the workload's first instance.
    let mut checks = Vec::new();
    if let Some(first) = insts.first() {
        let budget_s = 0.02 * seconds;
        function_probes(&mut values, &mut tracer, first, options.seed, budget_s);
        let grid = match &runner {
            Runner::Fleet(grid) => Some(&**grid),
            Runner::Single(..) => None,
        };
        checks.push(codec_probes(
            &mut values,
            &mut tracer,
            &first.scenario,
            grid,
            budget_s,
        ));
        match w {
            Workload::SparseLeap => {
                let leap_ns = values.get("sim.measure_ns_per_cycle").unwrap_or(0.0);
                leap_speedup(&mut values, first, leap_ns);
            }
            Workload::Saturated => checks.push(par_tick_speedup(&mut values, first)),
            Workload::LowLoad => checks.push(cli_overhead(&mut values, first, options)),
            _ => {}
        }
    }
    if let Runner::Fleet(grid) = &mut runner {
        checks.push(fleet_layers(&mut values, &mut tracer, grid));
    }
    attempted += checks.len() as u64;
    failures.extend(checks.into_iter().filter_map(Result::err));

    let path = options.out_dir.join(format!("trace.{}.json", w.name()));
    std::fs::write(&path, tracer.to_json(w.name()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let mut report = PassReport::new(w.name(), options.seed, true, &values, |_| (0.0, Vec::new()));
    report.stats_digest = plain.digest;
    report.attempted = attempted;
    report.failures = failures;
    Ok(report)
}
