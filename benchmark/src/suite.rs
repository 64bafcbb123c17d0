//! The untraced pass over one workload, and the all-workloads mode that
//! runs every workload in a child process of its own (so `peak_rss_mb` is
//! per workload), untraced then traced, and writes `report.json`.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{quote, Json};
use crate::measure::{end_to_end, ratio, run_rounds, Runner, Samples};
use crate::report::PassReport;
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::Options;

/// Repetition spread and whole-round samples behind end-to-end metric
/// `name`. The three metrics derived from the timed section share one
/// spread: they are one measurement divided by constants. `peak_rss_mb` is
/// one reading per process and has neither.
pub fn repeats_of(samples: &Samples, name: &str) -> (f64, Vec<f64>) {
    let spread = samples.split_half_spread(false);
    let walls = &samples.round_wall_s;
    match name {
        "setup_s" => (
            samples.split_half_spread(true),
            samples.round_setup_s.clone(),
        ),
        "wall_s" => (spread, walls.clone()),
        "cycles_per_s" => {
            let cycles = samples.cycles as f64;
            (spread, walls.iter().map(|w| ratio(cycles, *w)).collect())
        }
        "us_per_packet" => {
            let packets = samples.packets as f64;
            let per_packet = walls.iter().map(|w| ratio(w * 1e6, packets));
            (spread, per_packet.collect())
        }
        _ => (0.0, Vec::new()),
    }
}

/// Measure `w` with tracing off: the end-to-end metrics.
pub fn untraced_pass(w: Workload, options: &Options) -> Result<PassReport, String> {
    let mut runner = Runner::new(w, options.seed, options.len_div, &options.out_dir)?;
    let [samples] = run_rounds(
        &mut runner,
        [&mut Tracer::off()],
        options.seconds,
        options.min_rounds,
        &mut Vec::new(),
    );
    let values = end_to_end(&samples);
    let mut report = PassReport::new(w.name(), options.seed, false, &values, |name| {
        repeats_of(&samples, name)
    });
    report.stats_digest = samples.digest;
    report.attempted = samples.attempted;
    report.failures = samples.failures;
    Ok(report)
}

/// Run one pass in a child process and read its `detail` line back.
fn child_pass(w: Workload, traced: bool, options: &Options) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out_dir);
    if options.len_div != 1 {
        command.arg("--smoke");
    }
    // The child's stderr (panics) goes straight to ours.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    PassReport::from_json(&crate::json::parse(detail)?)
}

/// All workloads: print every metric, write `report.json`, and fail if
/// any execution did.
pub fn main(options: &Options) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "static-bubble benchmark: seed {}, {} s per pass, {} core(s), at most {} threads.\n\
         All times are host time; the model is unvalidated against gem5 or hardware, so no\n\
         accuracy figure is given. Compare stats_digest to check two commits simulate the same.\n",
        options.seed,
        options.seconds,
        cores,
        crate::fleet::JOBS
    );
    let mut passes = Vec::new();
    let mut broken = 0u64;
    for w in Workload::ALL {
        for traced in [false, true] {
            match child_pass(w, traced, options) {
                Ok(report) => {
                    println!("{}", report.render());
                    broken += report.failed();
                    passes.push(report);
                }
                Err(why) => {
                    println!("{} (traced: {traced}): NO RESULT: {why}\n", w.name());
                    broken += 1;
                }
            }
        }
    }
    let body: Vec<String> = passes.iter().map(PassReport::to_json).collect();
    let text = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"cores\": {cores}, \"time_base\": {}, \"passes\": [\n{}\n]}}\n",
        options.seed,
        crate::json::number(options.seconds),
        quote("host"),
        body.join(",\n")
    );
    let path = options.out_dir.join("report.json");
    match std::fs::create_dir_all(&options.out_dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("report written to {}", path.display()),
        Err(e) => {
            println!("cannot write {}: {e}", path.display());
            broken += 1;
        }
    }
    if broken == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{broken} failed execution(s) or missing result(s)");
        ExitCode::FAILURE
    }
}

/// Read the passes of a `report.json`.
pub fn load_report(path: &str) -> Result<Vec<PassReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = crate::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("passes")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no `passes` array"))?
        .iter()
        .map(PassReport::from_json)
        .collect()
}
