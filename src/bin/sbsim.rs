//! `sbsim` — drive one simulation from the command line.
//!
//! ```text
//! cargo run --release --bin sbsim -- \
//!     --design static-bubble --width 8 --height 8 \
//!     --link-faults 12 --rate 0.15 --cycles 10000 --seed 42 --heatmap
//! ```
//!
//! Designs: `static-bubble` (default), `escape-vc`, `sp-tree` (up-down),
//! `tree-only`, `none` (no deadlock handling at all — expect a wedge at
//! high load). Prints the standard stats block and, with `--heatmap`, the
//! final buffer-occupancy picture.
//!
//! The CLI is a thin skin over the scenario layer: flags assemble an
//! `sb_scenario::Scenario`, `--scenario FILE` loads one from TOML/JSON
//! instead, and `--dump-scenario` prints the assembled spec as JSON without
//! running it — so every run is reproducible from a text file. Options
//! parse with `sb_bench::Args`, the one parser of the experiment binaries.

use sb_bench::Args;
use static_bubble_repro::scenario::{
    ClockMode, Design, FaultSpec, Scenario, SimRunner, TrafficSpec,
};
use static_bubble_repro::sim::{EngineSnapshot, Stats};

/// Every option. The defaults are the built-in scenario's; under
/// `--scenario FILE` an absent flag keeps the file's value.
const KNOBS: &[(&str, &str)] = &[
    ("design", "static-bubble"),
    ("width", "8"),
    ("height", "8"),
    ("link-faults", "0"),
    ("router-faults", "0"),
    ("rate", "0.1"),
    ("cycles", "10000"),
    ("warmup", "1000"),
    ("tdd", "34"),
    ("seed", "1"),
    ("clock", "step"),
    ("scenario", "none"),
    ("dump-scenario", "off"),
    ("drain", "none"),
    ("bisect", "off"),
    ("heatmap", "off"),
];

const WHAT: &str = "drive one simulation and print its stats block
  designs: static-bubble | escape-vc | sp-tree | tree-only | none
  --clock step|leap: arrival sampler of the synthetic traffic. step flips a
    Bernoulli coin per node per cycle; leap draws geometric gaps, and the
    engine skips the cycles between arrivals. Same mean load, different
    packets.
  --drain BUDGET: after the measured window, halt injection and run until
    the network empties (or BUDGET cycles pass) — the paper pipeline's
    wedge probe.
  --bisect: run the scenario (and drain, default budget 200000) at most
    1000 cycles at a time, keeping a snapshot of where the latest stretch
    began; if the network ends wedged, rewind to it and replay with
    audit_every=1 and protocol tracing, then print the forensics report
    (FSM states, proto counters, probe trajectory).";

fn report(stats: &Stats, nodes: usize) {
    println!("delivered packets : {}", stats.delivered_packets);
    println!("offered packets   : {}", stats.offered_packets);
    println!("dropped (unreach) : {}", stats.dropped_packets);
    println!(
        "throughput        : {:.4} flits/node/cycle",
        stats.throughput(nodes)
    );
    println!("acceptance        : {:.3}", stats.acceptance());
    match stats.avg_latency() {
        Some(l) => println!(
            "avg latency       : {l:.1} cycles (max {})",
            stats.latency_max
        ),
        None => println!("avg latency       : n/a"),
    }
    println!("probes sent       : {}", stats.probes_sent);
    println!("deadlocks healed  : {}", stats.deadlocks_recovered);
}

/// Layer the command-line flags over a base scenario (the built-in defaults,
/// or a spec loaded with `--scenario`). Flags always win.
fn apply_flags(args: &Args, mut s: Scenario) -> Scenario {
    if let Some(label) = args.get_str("design") {
        let Some(design) = Design::from_label(label) else {
            eprintln!("unknown --design {label}; try --help");
            std::process::exit(2);
        };
        s = s.with_design(design);
    }
    let width = args.get("width", s.width);
    let height = args.get("height", s.height);
    let seed = args.get("seed", s.seed);
    let warmup = args.get("warmup", s.warmup);
    let cycles = args.get("cycles", s.cycles);
    let tdd = args.get("tdd", s.tdd);
    s = s.with_mesh(width, height);
    if args.get_str("link-faults").is_some() || args.get_str("router-faults").is_some() {
        let links: usize = args.get("link-faults", 0);
        let routers: usize = args.get("router-faults", 0);
        s = s.with_faults(if links == 0 && routers == 0 {
            FaultSpec::Pristine
        } else {
            FaultSpec::Mixed {
                links,
                routers,
                seed,
            }
        });
    }
    if args.get_str("rate").is_some() {
        s = s.with_rate(args.get("rate", 0.1));
    }
    if let Some(mode) = args.get_str("clock") {
        s = s.with_clock(match mode {
            "step" => ClockMode::Step,
            "leap" => ClockMode::Leap,
            other => {
                eprintln!("unknown --clock {other}; expected step or leap");
                std::process::exit(2);
            }
        });
    }
    s.with_warmup(warmup)
        .with_cycles(cycles)
        .with_tdd(tdd)
        .with_seed(seed)
}

/// Longest stretch `--bisect` runs between replay points: close enough to
/// the wedge to keep the audited replay short, while the replay tail stays
/// long enough to cover several backed-off probe rounds.
const BISECT_CHUNK: u64 = 1_000;

/// Run one phase: `step(sim, cycles)`, which says whether it finished
/// early. A plain run makes that one call. Bisect mode (`replay` is `Some`)
/// hands `step` at most [`BISECT_CHUNK`] cycles a call, with `replay` the
/// state the latest call started from; a run loop's deadline is a clock
/// event and only a warm-up's last window reset stands, so the calls add up
/// to the single one bit for bit.
fn drive(
    sim: &mut dyn SimRunner,
    cycles: u64,
    replay: &mut Option<EngineSnapshot>,
    step: fn(&mut dyn SimRunner, u64) -> bool,
) -> bool {
    let Some(replay) = replay else {
        return step(sim, cycles);
    };
    let mut left = cycles;
    loop {
        let chunk = left.min(BISECT_CHUNK);
        *replay = sim.snapshot().expect("engine state serialises");
        left -= chunk;
        let done = step(sim, chunk);
        if done || left == 0 {
            return done;
        }
    }
}

/// Rewind a wedged run to `snap` and replay the tail with
/// the auditor on every cycle and protocol tracing enabled, then print the
/// forensics report. Replay is deterministic (the snapshot carries the RNG
/// and plugin state), so the wedge reproduces exactly — but this time
/// every probe hop, latch and drop is on the record.
fn bisect(sim: &mut dyn SimRunner, snap: &EngineSnapshot) {
    let wedge_time = sim.time();
    if !sim.deadlocked_now() {
        println!("bisect: oracle sees no deadlock at t={wedge_time}; nothing to replay");
        return;
    }
    println!(
        "bisect: wedged at t={wedge_time}; replaying t={}..{wedge_time} \
         with audit_every=1 and tracing",
        snap.time
    );
    if let Err(e) = sim.restore(snap) {
        println!("bisect: restore failed: {e}");
        return;
    }
    sim.set_tracing(true);
    sim.set_audit(1);
    // Replay to the original wedge time, plus a window long enough to cover
    // several probe rounds even at maximum detection backoff — the wedge is
    // a *recovery* failure, so the evidence is in what the probes do while
    // the network stays stuck.
    sim.run(wedge_time - sim.time() + 3_000);
    // One more cycle so the oracle check lands after the replay and the
    // capture drains the accumulated trace ring into the report.
    match sim.run_until_deadlock(1, 1) {
        Some(t) => println!("bisect: oracle re-fired at t={t}"),
        None => println!(
            "bisect: replay reached t={} without the oracle firing",
            sim.time()
        ),
    }
    match sim.take_forensics() {
        Some(report) => println!("{report}"),
        None => println!("bisect: no forensics report captured"),
    }
}

fn main() {
    let args = Args::parse_spec("sbsim", WHAT, KNOBS);
    let base = match args.get_str("scenario") {
        Some(path) => match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        None => Scenario::new("sbsim", Design::StaticBubble),
    };
    let scenario = apply_flags(&args, base);
    if let Err(e) = scenario.validate() {
        eprintln!("sbsim: {e}");
        std::process::exit(2);
    }

    if args.flag("dump-scenario") {
        print!("{}", scenario.to_json().expect("scenario serializes"));
        return;
    }

    let mesh = scenario.mesh();
    let topo = scenario.topology();
    let nodes = topo.alive_node_count();
    let design = scenario.design;

    println!(
        "== sbsim: {} on {}x{} mesh, {} alive routers, rate {}, {} cycles",
        design.label(),
        mesh.width(),
        mesh.height(),
        nodes,
        match scenario.traffic {
            TrafficSpec::Uniform { rate, .. } | TrafficSpec::BitComplement { rate, .. } => rate,
            TrafficSpec::Idle => 0.0,
        },
        scenario.cycles,
    );
    if design == Design::StaticBubble {
        println!(
            "static bubbles: {} routers",
            scenario.bubble_routers(&topo).len()
        );
    }

    let mut sim: Box<dyn SimRunner> = scenario.build_on(&topo);
    // Bisect mode holds its own replay point, starting with t = 0.
    let mut replay = args
        .flag("bisect")
        .then(|| sim.snapshot().expect("engine state serialises"));
    drive(sim.as_mut(), scenario.warmup, &mut replay, |sim, cycles| {
        sim.warmup(cycles);
        false
    });
    drive(sim.as_mut(), scenario.cycles, &mut replay, |sim, cycles| {
        sim.run(cycles);
        false
    });
    report(sim.stats(), nodes);
    if args.get_str("drain").is_some() || replay.is_some() {
        let budget: u64 = args.get("drain", 200_000);
        sim.halt_injection();
        let drained = drive(sim.as_mut(), budget, &mut replay, |sim, cycles| {
            sim.run_until_drained(cycles)
        });
        println!(
            "drain             : {} (t={}, {} packets in flight)",
            if drained { "complete" } else { "STUCK" },
            sim.time(),
            sim.core().in_flight(),
        );
    }
    if let Some(replay) = &replay {
        bisect(sim.as_mut(), replay);
        return;
    }
    if let Some(escapes) = sim.escapes() {
        println!("packets escaped   : {escapes}");
    }
    if design == Design::Unprotected && sim.deadlocked_now() {
        println!("NOTE: the network is deadlocked (no recovery mechanism attached)");
    }
    if args.flag("heatmap") {
        println!("final buffer occupancy:\n{}", sim.core().occupancy_art());
    }
}
