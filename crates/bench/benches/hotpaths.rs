//! Criterion micro-benchmarks of the hot paths: placement + coverage,
//! routing-table construction, simulator cycle rate, and the deadlock
//! oracle.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use sb_routing::{MinimalRouting, UpDownRouting};
use sb_sim::{NullPlugin, SimConfig, Simulator, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, Topology};
use static_bubble::{placement, StaticBubblePlugin};

fn faulty(mesh: Mesh, faults: usize, seed: u64) -> Topology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng)
}

fn bench_placement(c: &mut Criterion) {
    c.bench_function("placement/8x8", |b| {
        b.iter(|| placement::placement(std::hint::black_box(Mesh::new(8, 8))))
    });
    c.bench_function("placement/coverage_16x16", |b| {
        b.iter(|| placement::coverage_holds(std::hint::black_box(Mesh::new(16, 16))))
    });
    c.bench_function("placement/closed_form_64x64", |b| {
        b.iter(|| placement::bubble_count(std::hint::black_box(64), std::hint::black_box(64)))
    });
}

fn bench_routing(c: &mut Criterion) {
    let topo = faulty(Mesh::new(8, 8), 15, 3);
    c.bench_function("routing/minimal_tables_8x8", |b| {
        b.iter(|| MinimalRouting::new(std::hint::black_box(&topo)))
    });
    c.bench_function("routing/updown_tree_8x8", |b| {
        b.iter(|| UpDownRouting::new(std::hint::black_box(&topo)))
    });
    let minimal = MinimalRouting::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    c.bench_function("routing/minimal_route_query", |b| {
        use sb_routing::RouteSource;
        b.iter(|| {
            minimal.route(
                std::hint::black_box(sb_topology::NodeId(0)),
                std::hint::black_box(sb_topology::NodeId(63)),
                &mut rng,
            )
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let topo = Topology::full(Mesh::new(8, 8));
    c.bench_function("sim/1k_cycles_null_ur0.15", |b| {
        b.iter_batched(
            || {
                Simulator::new(
                    &topo,
                    SimConfig::single_vnet(),
                    Box::new(MinimalRouting::new(&topo)),
                    NullPlugin,
                    UniformTraffic::new(0.15).single_vnet(),
                    1,
                )
            },
            |mut sim| sim.run(1_000),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("sim/1k_cycles_staticbubble_ur0.15", |b| {
        let bubbles = placement::placement(topo.mesh());
        b.iter_batched(
            || {
                Simulator::with_bubbles(
                    &topo,
                    SimConfig::single_vnet(),
                    Box::new(MinimalRouting::new(&topo)),
                    StaticBubblePlugin::new(topo.mesh(), 34),
                    UniformTraffic::new(0.15).single_vnet(),
                    1,
                    &bubbles,
                )
            },
            |mut sim| sim.run(1_000),
            BatchSize::SmallInput,
        )
    });
}

fn bench_tree_and_diversity(c: &mut Criterion) {
    let topo = faulty(Mesh::new(8, 8), 15, 3);
    c.bench_function("routing/tree_only_8x8", |b| {
        b.iter(|| sb_routing::TreeOnlyRouting::new(std::hint::black_box(&topo)))
    });
    let minimal = MinimalRouting::new(&topo);
    c.bench_function("routing/minimal_path_count_corner", |b| {
        b.iter(|| {
            minimal.minimal_path_count(
                std::hint::black_box(sb_topology::NodeId(0)),
                std::hint::black_box(sb_topology::NodeId(63)),
            )
        })
    });
}

fn bench_bfc(c: &mut Criterion) {
    c.bench_function("bfc/ring16_1k_cycles", |b| {
        b.iter_batched(
            || {
                (
                    sb_bfc::Ring::new(16, sb_bfc::InjectionPolicy::Bubble),
                    rand::rngs::StdRng::seed_from_u64(1),
                )
            },
            |(mut ring, mut rng)| ring.run(1_000, 0.5, &mut rng),
            BatchSize::SmallInput,
        )
    });
}

/// Measure the active-router kernel's cycle rate on a 16×16 mesh at the
/// four occupancy regimes the worklist is built for, and persist the
/// numbers as `BENCH_kernel.json` at the repo root.
fn bench_kernel(c: &mut Criterion) {
    use sb_scenario::{ClockMode, Design, Scenario, TrafficSpec};

    const LOW_LOAD: TrafficSpec = TrafficSpec::Uniform {
        rate: 0.02,
        single_vnet: true,
    };
    let unprotected = |name: &str, traffic: TrafficSpec, clock: ClockMode| {
        Scenario::new(name, Design::Unprotected)
            .with_mesh(16, 16)
            .with_traffic(traffic)
            .with_seed(5)
            .with_clock(clock)
    };
    // `saturated` is the live, past-the-knee up*/down* network of
    // `sb_bench::saturated_scenario`: an unprotected mesh pushed past
    // saturation wedges, which is the `blocked` row below.
    let cases: [(Scenario, u64); 5] = [
        (
            unprotected("idle", TrafficSpec::Idle, ClockMode::Step),
            2_000_000,
        ),
        (
            unprotected("idle_leap", TrafficSpec::Idle, ClockMode::Leap),
            2_000_000,
        ),
        (unprotected("low_load", LOW_LOAD, ClockMode::Step), 200_000),
        (
            unprotected("low_load_leap", LOW_LOAD, ClockMode::Leap),
            200_000,
        ),
        (sb_bench::saturated_scenario("saturated"), 20_000),
    ];

    // The blocked regime: drive the unprotected mesh into a deadlock, cut
    // injection, and let the unaffected residue deliver. Every surviving
    // packet is permanently blocked, so after the settle window the
    // worklist is empty and each cycle should cost next to nothing — the
    // regime the wake-on-event kernel exists for.
    let topo = Topology::full(Mesh::new(16, 16));
    let make_blocked = || {
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(MinimalRouting::new(&topo)),
            NullPlugin,
            UniformTraffic::new(0.6).single_vnet(),
            9,
        );
        sim.run_until_deadlock(100_000, 64)
            .expect("16x16 unprotected mesh at 0.6 must deadlock");
        let mut sim = sim.replace_traffic(sb_sim::NoTraffic);
        sim.run(5_000);
        sim
    };

    // One long steady-state run per regime for the committed artifact.
    // Runs before the criterion loops so heap churn from earlier
    // iterations (saturated runs queue >10^6 packets) cannot skew it.
    // A `saturated` row that left its regime is not worth committing.
    let steady_row = |scenario: &Scenario, cycles: u64| {
        let mut sim = scenario.build();
        sim.warmup(1_000);
        let start = std::time::Instant::now();
        sim.run(cycles);
        let secs = start.elapsed().as_secs_f64();
        assert!(
            scenario.name != "saturated" || sb_bench::is_live_saturated(sim.stats()),
            "`saturated` left its regime: acceptance {:.3}",
            sim.stats().acceptance()
        );
        (scenario.name.clone(), cycles, secs)
    };
    let mut rows: Vec<(String, u64, f64)> = cases
        .iter()
        .map(|(scenario, cycles)| steady_row(scenario, *cycles))
        .collect();
    {
        let mut sim = make_blocked();
        let cycles = 2_000_000u64;
        let start = std::time::Instant::now();
        sim.run(cycles);
        rows.push(("blocked".to_string(), cycles, start.elapsed().as_secs_f64()));
    }
    // The 256-core scale point: Static Bubble on 16×16 at deadlock-prone
    // load, recovery active.
    let scale256 = Scenario::new("scale256", Design::StaticBubble)
        .with_mesh(16, 16)
        .with_traffic(TrafficSpec::Uniform {
            rate: 0.3,
            single_vnet: true,
        })
        .with_seed(5);
    rows.push(steady_row(&scale256, 20_000));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"active_router_kernel\",\n  \"mesh\": \"16x16\",\n  \"cores\": {cores},\n  \"cases\": [\n"
    );
    let n = rows.len();
    for (i, (name, cycles, secs)) in rows.into_iter().enumerate() {
        let rate = cycles as f64 / secs;
        println!("kernel/{name:<30} {rate:>14.0} cycles/sec ({cycles} cycles)");
        json.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"cycles\": {cycles}, \"seconds\": {secs:.6}, \"cycles_per_sec\": {rate:.0} }}{}\n",
            if i + 1 < n { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json");
    std::fs::write(&path, json).expect("write BENCH_kernel.json");

    for (scenario, _) in &cases {
        let name = &scenario.name;
        c.bench_function(&format!("kernel/{name}_16x16_1k_cycles"), |b| {
            b.iter_batched(
                || {
                    let mut sim = scenario.build();
                    sim.warmup(1_000);
                    sim
                },
                |mut sim| sim.run(1_000),
                BatchSize::SmallInput,
            )
        });
    }
    {
        let mut sim = make_blocked();
        c.bench_function("kernel/blocked_16x16_1k_cycles", |b| {
            // Blocked is a fixed point: more cycles leave the state
            // unchanged, so one simulator can be reused across iterations.
            b.iter(|| sim.run(1_000))
        });
    }
}

/// The two halves of the separable allocator: `candidate_masks` (the
/// read-only collection of switchable heads per output) and the
/// round-robin winner probe. Measured over a saturated 16×16 mesh — the
/// regime where nearly every router holds switchable heads.
fn bench_alloc_probes(c: &mut Criterion) {
    use sb_sim::OutPort;
    use sb_topology::{Direction, NodeId};

    let topo = Topology::full(Mesh::new(16, 16));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.6).single_vnet(),
        5,
    );
    sim.run(3_000);
    c.bench_function("alloc/candidate_masks_16x16_saturated", |b| {
        let core = sim.core();
        b.iter(|| {
            let mut acc = 0u64;
            for r in 0..256usize {
                let mut cand = [0u64; 5];
                core.candidate_masks(NodeId::from(std::hint::black_box(r)), &mut cand);
                acc ^= cand[0] ^ cand[1] ^ cand[2] ^ cand[3] ^ cand[4];
            }
            acc
        })
    });
    c.bench_function("alloc/find_winner_16x16_saturated", |b| {
        b.iter(|| {
            let mut wins = 0usize;
            for r in 0..256usize {
                let router = NodeId::from(std::hint::black_box(r));
                let mut cand = [0u64; 5];
                sim.core().candidate_masks(router, &mut cand);
                for (out_idx, &mask) in cand.iter().enumerate() {
                    if mask == 0 {
                        continue;
                    }
                    let out = if out_idx == 4 {
                        OutPort::Eject
                    } else {
                        OutPort::Dir(Direction::from_index(out_idx))
                    };
                    if sim.probe_winner(router, out, mask, 0).is_some() {
                        wins += 1;
                    }
                }
            }
            wins
        })
    });
}

fn bench_oracle(c: &mut Criterion) {
    let topo = Topology::full(Mesh::new(8, 8));
    let mut sim = Simulator::new(
        &topo,
        SimConfig::single_vnet(),
        Box::new(MinimalRouting::new(&topo)),
        NullPlugin,
        UniformTraffic::new(0.3).single_vnet(),
        2,
    );
    sim.run(3_000);
    c.bench_function("oracle/find_deadlock_loaded_8x8", |b| {
        b.iter(|| sb_sim::find_deadlock(std::hint::black_box(sim.core())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_placement, bench_routing, bench_simulator, bench_kernel,
        bench_oracle, bench_tree_and_diversity, bench_bfc, bench_alloc_probes
}
criterion_main!(benches);
