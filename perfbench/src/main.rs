//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|scale_stream|pods_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a fingerprint line, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`
//! (whose spans are also written under `.bench_spans/`). Exits non-zero when
//! any output check fails. See `perfbench/README.md`.

mod harness;
mod paper;
mod pods;
mod scale;
mod trace;

use harness::Outcome;
use serde_json::Value;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper_sweep", "scale_stream", "pods_chaos"];

/// Where a traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_spans";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

/// World set-ups before each timed pass, per workload: enough that
/// the median of a cheap set-up rests on hundreds of samples and an
/// expensive one on about ten, few enough that set-up stays a small
/// part of the run.
const SETUPS_PER_PASS_PAPER: usize = 50;
const SETUPS_PER_PASS_SCALE: usize = 2;
const SETUPS_PER_PASS_PODS_CHAOS: usize = 4;

fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let (seed, secs, traced) = (args.seed, args.seconds, args.traced);
    match args.workload.as_str() {
        "paper_sweep" => harness::run(
            || paper::PaperSweep::setup(seed),
            SETUPS_PER_PASS_PAPER,
            secs,
            traced,
        ),
        "scale_stream" => harness::run(
            || scale::ScaleStream::setup(seed),
            SETUPS_PER_PASS_SCALE,
            secs,
            traced,
        ),
        "pods_chaos" => harness::run(
            || pods::Pods::setup(seed),
            SETUPS_PER_PASS_PODS_CHAOS,
            secs,
            traced,
        ),
        other => Err(format!("unknown workload {other}").into()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree has none and reports `unknown`).
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON object with its keys in the given order.
fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn fingerprint(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object([
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("rustc", Value::Str(env!("PERFBENCH_RUSTC_VERSION").into())),
        ("commit", Value::Str(git_commit())),
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.traced)),
    ])
}

fn write_spans(args: &Args, fingerprint: &Value, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let dir = Path::new(SPANS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let spans = outcome
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            object([
                ("id", Value::UInt(i as u64)),
                ("name", Value::Str(s.name.into())),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
            ])
        })
        .collect();
    let doc = object([
        ("fingerprint", fingerprint.clone()),
        ("spans", Value::Array(spans)),
    ]);
    std::fs::write(&path, to_json(&doc) + "\n")?;
    Ok(path)
}

/// Compact JSON text of a value tree (printing one cannot fail).
fn to_json(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = fingerprint(&args);
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.traced {
        match write_spans(&args, &fingerprint, &outcome) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for f in outcome.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    for m in &outcome.metrics {
        eprintln!("perfbench: {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = outcome.failures.len() as u64;
    let metrics = outcome.metrics.iter().map(|m| {
        // A non-finite value (never expected) prints as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let entry = object([
            ("value", Value::Float(value)),
            ("unit", Value::Str(m.unit.into())),
        ]);
        (m.name, entry)
    });
    println!("{}", to_json(&object([("fingerprint", fingerprint)])));
    println!(
        "{}",
        to_json(&object([
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::UInt(outcome.attempted.max(1))),
            ("failed", Value::UInt(failed)),
            ("metrics", object(metrics)),
        ]))
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
