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
use static_bubble_repro::core::StaticBubblePlugin;
use static_bubble_repro::scenario::{
    ClockMode, Design, FaultSpec, Scenario, SimRunner, TrafficSpec,
};
use static_bubble_repro::sim::Stats;

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
  --bisect: run the scenario and drain (default budget 200000), the
    drain's last stretch of at most 1000 cycles with audit_every=1 and
    protocol tracing; if the network ends wedged, run 3000 cycles more and
    print the forensics report (FSM states, proto counters, probe
    trajectory).";

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

/// `--bisect` traces the drain's last stretch of at most this many cycles:
/// close enough to the wedge to keep the audited stretch short, long enough
/// to cover several backed-off probe rounds.
const BISECT_CHUNK: u64 = 1_000;

/// Drain for at most `budget` cycles; `true` if the network emptied. From
/// cycle `traced_from` on (bisect mode), the auditor runs every cycle and
/// protocol tracing is on. Turning either on moves nothing, so the drain is
/// the untraced one bit for bit, and what its last stretch did is on the
/// record.
fn drain(sim: &mut dyn SimRunner, budget: u64, traced_from: Option<u64>) -> bool {
    let end = sim.time() + budget;
    let Some(from) = traced_from else {
        return sim.run_until_drained(budget);
    };
    if from > sim.time() && sim.run_until_drained(from - sim.time()) {
        return true;
    }
    sim.set_tracing(true);
    sim.set_audit(1);
    sim.run_until_drained(end - sim.time())
}

/// After a drain whose last chunk was traced from `traced_from`: if the
/// network is wedged, run on while it stays stuck and print the forensics
/// report. The wedge is a *recovery* failure, so the evidence is in what the
/// probes do while the network stays stuck.
fn report_wedge(sim: &mut dyn SimRunner, traced_from: u64) {
    let wedge_time = sim.time();
    if !sim.deadlocked_now() {
        println!("bisect: oracle sees no deadlock at t={wedge_time}; nothing to replay");
        return;
    }
    println!(
        "bisect: wedged at t={wedge_time}; replaying t={traced_from}..{wedge_time} \
         with audit_every=1 and tracing"
    );
    // A window long enough to cover several probe rounds even at maximum
    // detection backoff.
    sim.run(3_000);
    // One more cycle so the oracle check lands after it and the capture
    // drains the accumulated trace ring into the report.
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
    sim.warmup(scenario.warmup);
    sim.run(scenario.cycles);
    report(sim.stats(), nodes);
    let bisect = args.flag("bisect");
    let mut traced_from = None;
    if args.get_str("drain").is_some() || bisect {
        let budget: u64 = args.get("drain", 200_000);
        sim.halt_injection();
        if bisect {
            // The start of the drain's last chunk.
            let chunks = budget.saturating_sub(1) / BISECT_CHUNK;
            traced_from = Some(sim.time() + chunks * BISECT_CHUNK);
        }
        let drained = drain(sim.as_mut(), budget, traced_from);
        println!(
            "drain             : {} (t={}, {} packets in flight)",
            if drained { "complete" } else { "STUCK" },
            sim.time(),
            sim.core().in_flight(),
        );
    }
    // The protocol's own counters: what separates a livelock that drops
    // its disables (`d_frozen` tracking `latches`) from one whose owner
    // fails its disables (`disfail`). Printed here, never part of `Stats`.
    if let Some(plugin) = sim.plugin_any().downcast_ref::<StaticBubblePlugin>() {
        println!("proto counters    : {}", plugin.counters().summary());
    }
    if let Some(traced_from) = traced_from {
        report_wedge(sim.as_mut(), traced_from);
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
