//! The LENS benchmark: both halves of the system, timed end to end and
//! traced layer by layer, through the library's public API only.
//!
//! ```sh
//! cargo run --release --offline --manifest-path lensbench/Cargo.toml -- \
//!     --workload search_paper --seed 2021 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` runs one workload with tracing off, checks every output and
//! prints the end-to-end metrics. `--trace 1` makes a separate traced run
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, and the exit code is non-zero if any check failed.
//! `README.md` lists the workloads, the metrics and what each layer metric
//! is predicted to move.

mod fleet;
mod search;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Search,
    Fleet(fleet::FleetWorkload),
}

/// Every workload: name, what it runs, default seed, held-out seed. The
/// defaults are the paper's year and `million_fleet`'s seed; the held-out
/// seeds were kept out of tuning, for confirming a claimed gain on unseen
/// inputs.
const WORKLOADS: [(&str, Workload, u64, u64); 4] = [
    ("search_paper", Workload::Search, 2021, 2022),
    (
        "fleet_day_fluid",
        Workload::Fleet(fleet::FleetWorkload::DayFluid),
        11,
        12,
    ),
    (
        "fleet_day_request",
        Workload::Fleet(fleet::FleetWorkload::DayRequest),
        11,
        13,
    ),
    (
        "fleet_crowd_pipeline",
        Workload::Fleet(fleet::FleetWorkload::CrowdPipeline),
        11,
        14,
    ),
];

/// Fewest timed repetitions per run, so that every run compares at least
/// two outputs of the same seed.
const MIN_REPS: usize = 2;

/// Every per-layer metric, with its unit, in the order `--trace 1` prints
/// them. A workload that does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 34] = [
    ("gp.suggest_ms", "ms"),
    ("gp.suggest_p50_ms", "ms"),
    ("gp.suggest_p95_ms", "ms"),
    ("gp.suggest_first100_ms", "ms"),
    ("gp.suggest_last100_ms", "ms"),
    ("gp.tell_ms", "ms"),
    ("space.pool_ms", "ms"),
    ("space.pool_draws", "count"),
    ("space.pool_accept_ratio", "ratio"),
    ("core.evaluate_ms", "ms"),
    ("core.evaluate_p50_us", "us"),
    ("core.evaluations", "count"),
    ("pareto.insert_ms", "ms"),
    ("pareto.front_size", "count"),
    ("fleet.shard_step.events_popped", "count"),
    ("fleet.shard_step.heap_ops", "count"),
    ("fleet.drain.events_popped", "count"),
    ("fleet.drain.heap_ops", "count"),
    ("fleet.drain.records_merged", "count"),
    ("fleet.drain.batches_closed", "count"),
    ("fleet.batch_fill", "records/batch"),
    ("fleet.scale.heap_ops", "count"),
    ("fleet.publish.heap_ops", "count"),
    ("fleet.scaling_events", "count"),
    ("fleet.stage_completions", "count"),
    ("fleet.retreat_ratio", "ratio"),
    ("fleet.failover_ratio", "ratio"),
    ("fleet.shed_ratio", "ratio"),
    ("fleet.epochs", "count"),
    ("fleet.heap_ops_per_event", "ops/event"),
    ("fleet.offload_ratio", "ratio"),
    ("fleet.ns_per_event", "ns/event"),
    ("fleet.rss_per_device_kb", "KB/device"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Per-layer values a traced run measured, keyed by [`PER_LAYER`] name.
type LayerValues = BTreeMap<&'static str, f64>;

/// Counts the timed calls of a run and the ones that failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Makes one call. An `Err`, a panic or a failed output check (which
    /// the call reports as an `Err`) counts as failed.
    fn attempt<T>(&mut self, call: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let reason = match catch_unwind(AssertUnwindSafe(call)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(reason)) => reason,
            Err(_) => "the call panicked".to_string(),
        };
        self.failed += 1;
        eprintln!("FAILED: {reason}");
        None
    }
}

/// The end-to-end samples of one untraced run.
#[derive(Debug, Default)]
struct EndToEnd {
    /// One duration per set-up repetition.
    setup: Vec<Duration>,
    /// One duration per timed repetition of the workload.
    wall: Vec<Duration>,
    /// Share of the reference box dominated by the result (see README).
    front_hv: Option<f64>,
}

/// Times `reps` set-ups, appending to `samples`; returns the last one built.
fn time_setup<T>(
    reps: usize,
    tally: &mut Tally,
    samples: &mut Vec<Duration>,
    build: &mut impl FnMut() -> Result<T, String>,
) -> Option<T> {
    let mut built = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = tally.attempt(&mut *build);
        samples.push(start.elapsed());
        built = outcome.or(built);
    }
    built
}

/// One untraced run: a batch of `setup_reps` set-ups, then timed
/// repetitions of `rep` on the first batch's result while one more still
/// fits in `seconds` (and at least [`MIN_REPS`]). `rep` returns the time of
/// its measured part; its output check runs outside that time.
///
/// A further set-up batch follows every repetition. This host's speed
/// drifts over seconds, so set-up batches spread over the run sample the
/// same conditions the repetitions do, where a single batch of
/// microsecond set-ups would sample one instant.
fn measure<T>(
    seconds: f64,
    setup_reps: usize,
    tally: &mut Tally,
    mut setup: impl FnMut() -> Result<T, String>,
    mut rep: impl FnMut(&T) -> Result<Duration, String>,
) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let Some(built) = time_setup(setup_reps, tally, &mut e2e.setup, &mut setup) else {
        return e2e;
    };
    let start = Instant::now();
    for count in 1.. {
        let Some(wall) = tally.attempt(|| rep(&built)) else {
            // A failed repetition has no meaningful time; stop here.
            break;
        };
        e2e.wall.push(wall);
        time_setup(setup_reps, tally, &mut e2e.setup, &mut setup);
        if count >= MIN_REPS && (start.elapsed() + wall).as_secs_f64() > seconds {
            break;
        }
    }
    e2e
}

/// The median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation (0 for none).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

/// Peak resident set size of this process in kB (`VmHWM`), if the
/// platform reports it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct Args {
    name: &'static str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let mut text =
        "usage: lensbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
                    workloads (default seed, held-out seed):"
            .to_string();
    for (name, _, default_seed, held_out_seed) in WORKLOADS {
        text += &format!("\n  {name} ({default_seed}, {held_out_seed})");
    }
    text
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|(name, ..)| *name == value);
                workload = Some(known.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let &(name, workload, default_seed, _) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.unwrap_or(default_seed),
        seconds,
        trace,
    })
}

/// One metric of the result line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn print_result(tally: &Tally, metrics: &[Metric]) -> ExitCode {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(args: &Args) -> ExitCode {
    let mut tally = Tally::default();
    let e2e = match args.workload {
        Workload::Search => search::measure(args.seed, args.seconds, &mut tally),
        Workload::Fleet(fleet) => fleet::measure(fleet, args.seed, args.seconds, &mut tally),
    };
    let setup = secs(&e2e.setup);
    let wall = secs(&e2e.wall);
    let rss_mb = peak_rss_kb().map(|kb| kb as f64 / 1024.0);
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("workload {} seed {}", args.name, args.seed);
    println!(
        "setup_s     {:.6} s (median of {})",
        median(&setup),
        setup.len()
    );
    println!(
        "wall_s      {:.6} s (median of {}; samples {:.3?})",
        median(&wall),
        wall.len(),
        wall
    );
    match e2e.front_hv {
        Some(hv) => println!("front_hv    {hv:.6} ratio (deterministic, 1 value per seed)"),
        None => println!("front_hv    n/a"),
    }
    match rss_mb {
        Some(mb) => println!("peak_rss_mb {mb:.3} MB (VmHWM of this process)"),
        None => println!("peak_rss_mb n/a (no /proc/self/status)"),
    }
    println!(
        "error_rate  {error_rate} ratio ({} failed of {} attempted)",
        tally.failed, tally.attempted
    );
    let mut metrics: Vec<Metric> = vec![
        ("setup_s", median(&setup), "s"),
        ("wall_s", median(&wall), "s"),
    ];
    if let Some(hv) = e2e.front_hv {
        metrics.push(("front_hv", hv, "ratio"));
    }
    if let Some(mb) = rss_mb {
        metrics.push(("peak_rss_mb", mb, "MB"));
    }
    print_result(&tally, &metrics)
}

fn traced(args: &Args) -> ExitCode {
    let mut tally = Tally::default();
    let mut values = match args.workload {
        Workload::Search => search::trace(args.seed, &mut tally),
        Workload::Fleet(fleet) => fleet::trace(fleet, args.seed, &mut tally),
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.remove(name).unwrap_or(0.0), unit))
        .collect();
    assert!(
        values.is_empty(),
        "traced run reported metrics missing from PER_LAYER: {:?}",
        values.keys()
    );
    println!("workload {} seed {} (traced)", args.name, args.seed);
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value} {unit}");
    }
    print_result(&tally, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("{reason}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    }
}
