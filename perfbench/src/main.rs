//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload, checks every output, prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) by name with
//! their units, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! See `perfbench/README.md` for the workloads and how to read a trace.

mod daemon;
mod engine;
mod layers;
mod measure;
mod storm;
mod stream;

use measure::{Report, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    /// Measurement time for the whole run (both load levels).
    pub seconds: f64,
    pub tracer: Tracer,
    pub report: Report,
    /// Scratch directory under the working directory, removed at exit.
    pub tmp: PathBuf,
}

/// Blocks per load level. The two levels alternate block by block, so
/// each one samples the whole run, not one half of it, and a slow spell
/// of a shared host lands on both.
pub const BLOCKS: u32 = 4;

impl Ctx {
    /// The measurement window of one block: the run is split evenly
    /// between the two load levels.
    pub fn block(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / (2 * BLOCKS) as f64)
    }
}

const WORKLOADS: [&str; 4] = ["engine_steady", "serve_cold", "serve_hot", "stream_durable"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} ({})", WORKLOADS.join("|")));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
        tmp: tmp.clone(),
    };
    let outcome = match args.workload.as_str() {
        "engine_steady" => engine::run(&mut ctx),
        "serve_cold" => daemon::run(&mut ctx, daemon::Mode::Cold),
        "serve_hot" => daemon::run(&mut ctx, daemon::Mode::Hot),
        _ => stream::run(&mut ctx),
    };
    if let Err(e) = outcome {
        // The harness itself could not run: no result line.
        let _ = std::fs::remove_dir_all(&tmp);
        eprintln!("perfbench: {} failed to run: {e}", args.workload);
        return ExitCode::from(1);
    }
    ctx.report.metric("process.peak_rss_mb", measure::peak_rss_mb(), "MB");
    if args.trace {
        let path = PathBuf::from(".bench_tmp")
            .join(format!("trace_{}_seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => ctx.report.note(format!(
                "{} spans written to {}",
                ctx.tracer.spans().len(),
                path.display()
            )),
            Err(e) => ctx.report.note(format!("span file not written: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    print_report(&args, &ctx.report)
}

/// The metric names one mode must print, in order.
fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        layers::NAMES.iter().map(|(n, _)| *n).collect()
    } else {
        E2E.iter().map(|(n, _)| *n).collect()
    }
}

/// End-to-end metrics: name and unit.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("drain_s", "s"),
    ("ops_per_s_c1", "1/s"),
    ("ops_per_s_c2", "1/s"),
    ("latency_p50_ms", "ms"),
    ("makespan_ratio", "ratio"),
];

fn print_report(args: &Args, report: &Report) -> ExitCode {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("  note     {note}");
    }
    for (name, value) in &report.counters {
        println!("  counter  {name:<28} {value}");
    }
    let wanted = expected_names(args.trace);
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for name in &wanted {
        match report.metrics.iter().rev().find(|(n, _, _)| n == name) {
            Some((_, value, unit)) => {
                println!("  metric   {name:<28} {value:>16.6} {unit}");
                let v = if value.is_finite() { format!("{value}") } else { "null".into() };
                fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
                if !value.is_finite() {
                    missing.push(name.to_string());
                }
            }
            None => missing.push(name.to_string()),
        }
    }
    let mut failed = report.failed;
    let mut attempted = report.attempted;
    if !missing.is_empty() {
        // A metric the run could not measure fails the run.
        attempted += 1;
        failed += 1;
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
    }
    for why in &report.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    for (name, value, unit) in &report.metrics {
        if !wanted.contains(&name.as_str()) {
            println!("  info     {name:<28} {value:>16.6} {unit}");
        }
    }
    println!("  ops      attempted={attempted} failed={failed}");
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
