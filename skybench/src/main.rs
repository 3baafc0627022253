//! skybench: the real-clock load-and-serve benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path skybench/Cargo.toml -- \
//!     --workload night-fleet --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path skybench/Cargo.toml -- \
//!     compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! A run prints the operations it attempted and failed by kind, then, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It also writes that object (and, traced, the
//! spans) under `skybench/results/`. It exits 1 when a check fails.

mod checks;
mod compare;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use workloads::{Round, Shape, WORKLOADS};

/// Where result files go, relative to the directory the benchmark runs
/// from (the repository root).
const RESULTS_DIR: &str = "skybench/results";

/// The end-to-end metrics, with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ingest.krows_per_s", "krows/s"),
    ("ingest.cpu_us_per_row", "us/row"),
    ("serve.pk.p50_us", "us"),
    ("serve.pk.p99_us", "us"),
    ("serve.cone.p50_us", "us"),
    ("serve.cone.p99_us", "us"),
    ("serve.scan.p50_us", "us"),
    ("mem.peak_rss_mb", "MB"),
    ("store.bytes_per_row", "B/row"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: skybench --workload <{}> --seed N --seconds S --trace 0|1\n       \
         skybench compare PARENT_DIR CHANGE_DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// A metric value and its unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measure {
    pub value: f64,
    pub unit: String,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Measure>;

/// The result a run prints as its last line.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A traced run's result file: the result line and the trace.
#[derive(Serialize)]
struct TracedFile {
    result: RunResult,
    trace: replay::TraceDoc,
}

fn put(m: &mut Metrics, name: &str, value: f64, unit: &str) {
    m.insert(
        name.to_string(),
        Measure {
            value,
            unit: unit.to_string(),
        },
    );
}

/// The end-to-end metrics over a run's rounds. Set-up time is the median
/// of every set-up the run made; latency medians pool every round's
/// samples, tail percentiles are the median over rounds of each round's,
/// and storage is the median over rounds; ingest rate and CPU per row are
/// totals over the rounds' ingests, except that where the ingest was
/// timed file by file (serve-archive) the rate is the median file's; peak
/// memory is the first round's.
pub fn end_to_end(rounds: &[Round]) -> Result<Metrics, String> {
    let per = |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let samples = |r: &Round, kind: &str| r.latency_us.get(kind).cloned().unwrap_or_default();
    let percentile = |kind: &str, q: f64| -> Result<f64, String> {
        if q <= 0.5 {
            let pooled: Vec<f64> = rounds.iter().flat_map(|r| samples(r, kind)).collect();
            if pooled.is_empty() {
                return Err(format!("no {kind} samples"));
            }
            return Ok(stats::quantile(&pooled, q));
        }
        // A tail rests on the slowest 1% of samples, which one round in a
        // slow mode of the host fills when rounds are pooled (on
        // night-fleet the point-lookup p99 of single rounds ranges over 2×
        // within a run). Every round holds enough samples for its own.
        let mut per_round = Vec::with_capacity(rounds.len());
        for (i, r) in rounds.iter().enumerate() {
            let v = samples(r, kind);
            if v.len() < stats::samples_for_tail(q) {
                return Err(format!(
                    "round {i}: {} {kind} samples, too few for a p{:.0} with ten beyond it",
                    v.len(),
                    q * 100.0
                ));
            }
            per_round.push(stats::quantile(&v, q));
        }
        Ok(stats::median(&per_round))
    };
    let mut m = Metrics::new();
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    put(&mut m, "setup_s", stats::median(&setups), "s");
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let rows = sum(&|r| r.ingest_rows as f64);
    let file_rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.file_krows_per_s.iter().copied())
        .collect();
    let krows_per_s = if file_rates.is_empty() {
        rows / sum(&|r| r.ingest_wall_s) / 1e3
    } else {
        stats::median(&file_rates)
    };
    put(&mut m, "ingest.krows_per_s", krows_per_s, "krows/s");
    put(
        &mut m,
        "ingest.cpu_us_per_row",
        sum(&|r| r.ingest_cpu_s) * 1e6 / rows,
        "us/row",
    );
    for kind in ["pk", "cone", "scan"] {
        put(
            &mut m,
            &format!("serve.{kind}.p50_us"),
            percentile(kind, 0.5)?,
            "us",
        );
        if kind != "scan" {
            put(
                &mut m,
                &format!("serve.{kind}.p99_us"),
                percentile(kind, 0.99)?,
                "us",
            );
        }
    }
    // The first round's reading: it is taken when that round's timed
    // phase ends, before any later round's check has raised the mark.
    put(&mut m, "mem.peak_rss_mb", rounds[0].peak_rss_mb, "MB");
    put(
        &mut m,
        "store.bytes_per_row",
        per(&|r| r.store_bytes_per_row),
        "B/row",
    );
    Ok(m)
}

fn write_result(name: &str, body: &str) {
    let dir = Path::new(RESULTS_DIR);
    let path: PathBuf = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> i32 {
    let shape = Shape::full();
    let (rounds, metrics, trace) = if args.trace {
        let (rounds, metrics, trace) = replay::traced_run(&args.workload, &shape, args.seed);
        (rounds, Ok(metrics), Some(trace))
    } else {
        let rounds = workloads::run_rounds(&args.workload, &shape, args.seed, args.seconds);
        let m = end_to_end(&rounds);
        (rounds, m, None)
    };

    let mut ops = workloads::Ops::default();
    let mut errors: Vec<String> = Vec::new();
    for r in &rounds {
        for (k, (a, f)) in &r.ops.0 {
            let e = ops.0.entry(k).or_default();
            e.0 += a;
            e.1 += f;
        }
        errors.extend(r.errors.iter().cloned());
    }
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            errors.push(e);
            Metrics::new()
        }
    };
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let by_kind: Vec<String> = ops
        .0
        .iter()
        .map(|(k, (a, f))| format!("{k} {a} attempted {f} failed"))
        .collect();
    println!(
        "{} seed {} rounds {}: {}",
        args.workload,
        args.seed,
        rounds.len(),
        by_kind.join(", ")
    );
    let correct = errors.is_empty();
    let result = RunResult {
        correct,
        attempted: ops.attempted().max(1),
        failed: ops.failed(),
        metrics,
    };
    let line = serde_json::to_string(&result).expect("result serializes");
    let tag = if args.trace { "-trace" } else { "" };
    let body = match trace {
        Some(trace) => {
            serde_json::to_string(&TracedFile { result, trace }).expect("trace serializes")
        }
        None => line.clone(),
    };
    write_result(
        &format!("{}-seed{}{tag}.json", args.workload, args.seed),
        &format!("{body}\n"),
    );
    println!("{line}");
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = argv.as_slice() else {
            usage();
        };
        std::process::exit(compare::run(Path::new(parent), Path::new(change)));
    }
    let args = parse_args(&argv);
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-size pass of every workload runs to completion with
    /// every check passing and no failed operation.
    #[test]
    fn reduced_pass_of_every_workload() {
        let shape = Shape::reduced();
        for w in WORKLOADS {
            let round = workloads::run_round(w, &shape, 7, 0, None);
            assert!(round.errors.is_empty(), "{w}: {:?}", round.errors);
            assert_eq!(round.ops.failed(), 0, "{w}");
            assert!(round.ingest_rows > 0, "{w}");
            for kind in ["pk", "cone", "scan"] {
                assert!(!round.latency_us[kind].is_empty(), "{w}: no {kind} samples");
            }
        }
    }
}
