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
//! running it — so every run is reproducible from a text file.

use std::collections::HashMap;

use static_bubble_repro::scenario::{
    ClockMode, Design, FaultSpec, Scenario, SimRunner, TrafficSpec,
};
use static_bubble_repro::sim::{EngineSnapshot, Stats};

struct Cli(HashMap<String, String>);

const KNOWN_KEYS: &[&str] = &[
    "help",
    "design",
    "width",
    "height",
    "link-faults",
    "router-faults",
    "rate",
    "cycles",
    "warmup",
    "tdd",
    "seed",
    "heatmap",
    "scenario",
    "dump-scenario",
    "clock",
    "bisect",
    "drain",
];

impl Cli {
    fn parse() -> Self {
        let mut map = HashMap::new();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            if let Some(k) = a.strip_prefix("--") {
                if !KNOWN_KEYS.contains(&k) {
                    eprintln!("unknown option --{k}; try --help");
                    std::process::exit(2);
                }
                let v = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                map.insert(k.to_string(), v);
            } else {
                eprintln!("stray argument {a:?}; options are --key value pairs");
                std::process::exit(2);
            }
        }
        Cli(map)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.0.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} got {v:?}; expected a value like {key}'s default");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

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
fn apply_flags(cli: &Cli, mut s: Scenario) -> Scenario {
    if let Some(label) = cli.0.get("design") {
        let Some(design) = Design::from_label(label) else {
            eprintln!("unknown --design {label}; try --help");
            std::process::exit(2);
        };
        s = s.with_design(design);
    }
    let width = cli.get("width", s.width);
    let height = cli.get("height", s.height);
    let seed = cli.get("seed", s.seed);
    let warmup = cli.get("warmup", s.warmup);
    let cycles = cli.get("cycles", s.cycles);
    let tdd = cli.get("tdd", s.tdd);
    s = s.with_mesh(width, height);
    if cli.flag("link-faults") || cli.flag("router-faults") {
        let links: usize = cli.get("link-faults", 0usize);
        let routers: usize = cli.get("router-faults", 0usize);
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
    if cli.flag("rate") {
        s = s.with_rate(cli.get("rate", 0.1f64));
    }
    if let Some(mode) = cli.0.get("clock") {
        s = s.with_clock(match mode.as_str() {
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
    let cli = Cli::parse();
    if cli.flag("help") {
        println!(
            "usage: sbsim [--design static-bubble|escape-vc|sp-tree|tree-only|none]\n\
             \x20            [--width 8] [--height 8] [--link-faults 0] [--router-faults 0]\n\
             \x20            [--rate 0.1] [--cycles 10000] [--warmup 1000] [--tdd 34]\n\
             \x20            [--seed 1] [--heatmap] [--clock step|leap]\n\
             \x20            [--scenario FILE.toml|FILE.json] [--dump-scenario]\n\
             \x20            [--drain BUDGET] [--bisect]\n\
             \n\
             --clock: arrival sampler of the synthetic traffic. step (default)\n\
             flips a Bernoulli coin per node per cycle; leap draws geometric\n\
             gaps, and the engine skips the cycles between arrivals. Same mean\n\
             load, different packets.\n\
             --drain: after the measured window, halt injection and run until\n\
             the network empties (or BUDGET cycles pass) — the paper pipeline's\n\
             wedge probe.\n\
             --bisect: run the scenario (and drain, default budget 200000) at\n\
             most 1000 cycles at a time, keeping a snapshot of where the latest\n\
             stretch began; if the network ends wedged, rewind to it and replay\n\
             with audit_every=1 and protocol tracing, then print the forensics\n\
             report (FSM states, proto counters, probe trajectory)."
        );
        return;
    }

    let base = match cli.0.get("scenario") {
        Some(path) => match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        None => Scenario::new("sbsim", Design::StaticBubble),
    };
    let scenario = apply_flags(&cli, base);
    if let Err(e) = scenario.validate() {
        eprintln!("sbsim: {e}");
        std::process::exit(2);
    }

    if cli.flag("dump-scenario") {
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
    let mut replay = (cli.flag("bisect")).then(|| sim.snapshot().expect("engine state serialises"));
    drive(sim.as_mut(), scenario.warmup, &mut replay, |sim, cycles| {
        sim.warmup(cycles);
        false
    });
    drive(sim.as_mut(), scenario.cycles, &mut replay, |sim, cycles| {
        sim.run(cycles);
        false
    });
    report(sim.stats(), nodes);
    if cli.flag("drain") || replay.is_some() {
        // `--drain` works both bare (default budget) and with a value.
        let budget: u64 = match cli.0.get("drain").map(String::as_str) {
            None | Some("true") => 200_000,
            _ => cli.get("drain", 200_000u64),
        };
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
    if cli.flag("heatmap") {
        println!("final buffer occupancy:\n{}", sim.core().occupancy_art());
    }
}
