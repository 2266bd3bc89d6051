//! # perfbench
//!
//! The repository benchmark: seeded, closed-loop workloads driven through
//! the workspace crates' public functions, each reporting a few
//! end-to-end metrics, plus a traced run that attributes their time to
//! the layers it passes through: `cad-paper` and `serve-scenarios`, the
//! workloads `BENCHMARK.json` lists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cad-paper|serve-scenarios \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the root `.cargo/config.toml` sets the
//! target CPU). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it repeats the run's metrics under their per-workload names
//! (`pass_s`, `request_p50_ms`, `error_ratio`, ...) with sample counts
//! and provenance. The full result, and with `--trace 1`
//! every span, is written under `perfbench/results/`.
//!
//! Threads are pinned to two: a 2-thread solver pool, 2 server workers,
//! and at most 2 client connections, all in this one process.

mod cad_paper;
mod decks;
mod edit_probe;
mod serve_scenarios;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use layerbem_core::formulation::SolveOptions;
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_serve::Json;

use trace::Tracer;

/// Solver pool threads, server workers and the most client connections.
pub const THREADS: usize = 2;

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Span names: one per layer the benchmark times calls into.
pub const LAYERS: [&str; 16] = [
    "cad.pipeline",
    "cad.input",
    "geometry.mesh",
    "core.assembly",
    "parfor",
    "core.kernel",
    "numeric.cholesky",
    "core.study",
    "numeric.pcg",
    "core.incremental",
    "numeric.update",
    "serve.server",
    "serve.service",
    "serve.json",
    "serve.key",
    "serve.cache",
];

/// Per-layer metrics of the traced run, in output order. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("kernel.terms", "count"),
    ("kernel.terms_per_cpu_s", "1/s"),
    ("kernel.lane_occupancy", "ratio"),
    ("assembly.s", "s"),
    ("assembly.imbalance", "ratio"),
    ("assembly.speedup_2t", "ratio"),
    ("assembly.sim_speedup_2t", "ratio"),
    ("phase.input_share", "ratio"),
    ("phase.preprocessing_share", "ratio"),
    ("phase.generation_share", "ratio"),
    ("phase.solving_share", "ratio"),
    ("phase.storage_share", "ratio"),
    ("factor.s", "s"),
    ("factor.gflops", "GFLOP/s"),
    ("solve.ms_per_scenario", "ms"),
    ("solve.gbytes_per_s", "GB/s"),
    ("pcg.iterations", "count"),
    ("pcg.ms_per_solve", "ms"),
    ("parse.us_per_deck", "us"),
    ("mesh.us_per_deck", "us"),
    ("key.us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("publish.ms", "ms"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("json.bytes_out", "B"),
    ("service.ms", "ms"),
    ("socket.ms", "ms"),
    ("socket.ms_over_8k", "ms"),
    ("socket.ms_under_8k", "ms"),
    ("socket.ping_us", "us"),
    ("request.over_8k_share", "ratio"),
    ("update.ms", "ms"),
    ("update.rank", "count"),
    ("update.gflops", "GFLOP/s"),
    ("reintegrate.ms", "ms"),
    ("reintegrate.pairs", "count"),
    ("edit.incremental_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans_per_op", "count"),
    ("attribution.coverage", "ratio"),
];

/// The solve options every workload uses: the 2-thread pool under the
/// CLI's default schedule.
pub fn solve_options() -> SolveOptions {
    SolveOptions::default().with_parallelism(ThreadPool::new(THREADS), Schedule::dynamic(1))
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted (passes, requests, edits) plus end-of-run
    /// oracle checks.
    pub attempted: u64,
    /// Attempted operations that failed or answered wrongly.
    pub failed: u64,
    /// The first failure messages, for standard error.
    pub errors: Vec<String>,
    /// Seconds of each setup repetition.
    pub setup_s: Vec<f64>,
    /// Client-observed seconds of each timed operation.
    pub op_s: Vec<f64>,
    /// Wall seconds of the timed loop.
    pub loop_s: f64,
    /// Peak resident memory in MB when the timed loop ended, before the
    /// end-of-run oracles and the traced run's extra measurements.
    pub peak_rss_mb: f64,
    /// Further figures for the line before the result: name, value, unit.
    pub notes: Vec<(String, f64, &'static str)>,
    /// What one operation is called in the per-workload metric names,
    /// singular and plural.
    pub op: &'static str,
    pub ops: &'static str,
    /// Client connections the workload holds open.
    pub connections: usize,
    /// Traced operations behind the per-layer metrics.
    pub traced: usize,
    /// Per-layer metric values (traced runs), by name.
    pub per_layer: BTreeMap<String, f64>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// An empty outcome for operations called `op`.
    pub fn new(op: &'static str, ops: &'static str, connections: usize) -> Self {
        Outcome {
            ops,
            connections,
            traced: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            setup_s: Vec::new(),
            op_s: Vec::new(),
            loop_s: 0.0,
            peak_rss_mb: 0.0,
            notes: Vec::new(),
            op,
            per_layer: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Counts one attempted operation and its verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Sets a per-layer metric named in [`PER_LAYER`]. A rate over no
    /// work (0/0) reads 0, like a layer the workload does not exercise.
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        let value = if value.is_nan() { 0.0 } else { value };
        self.per_layer.insert(name.to_string(), value);
    }

    /// Sets every `self_ms.<layer>` metric from the traced run's spans:
    /// the layer's self time per operation.
    pub fn self_times(&mut self, tracer: &Tracer, ops: usize) {
        self.traced = ops;
        let by_layer = tracer.self_seconds_by_layer();
        for layer in LAYERS {
            let total = by_layer.get(layer).copied().unwrap_or(0.0);
            self.per_layer
                .insert(format!("self_ms.{layer}"), 1e3 * total / ops.max(1) as f64);
        }
        self.per_layer.insert(
            "trace.spans_per_op".into(),
            tracer.spans().len() as f64 / ops.max(1) as f64,
        );
    }
}

/// Quantile `q` of `values` (linear interpolation between order
/// statistics); 0 for an empty list.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory of this process so far in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The instruction set the binary was compiled for.
fn isa() -> &'static str {
    if cfg!(all(
        target_feature = "avx2",
        target_feature = "fma",
        target_feature = "bmi2"
    )) {
        "x86-64-v3"
    } else if cfg!(target_arch = "x86_64") {
        "x86-64"
    } else {
        std::env::consts::ARCH
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "cad-paper" => cad_paper::run(&args),
        "serve-scenarios" => serve_scenarios::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (cad-paper|serve-scenarios)");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }

    let ms = |s: f64| s * 1e3;
    let p50 = quantile(&outcome.op_s, 0.5);
    let p90 = quantile(&outcome.op_s, 0.9);
    let rate = outcome.op_s.len() as f64 / outcome.loop_s.max(f64::MIN_POSITIVE);
    let setup = median(&outcome.setup_s);
    let rss = outcome.peak_rss_mb;
    let error_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let end_to_end = [
        ("setup_s", setup, "s"),
        ("latency_p50_ms", ms(p50), "ms"),
        ("latency_p90_ms", ms(p90), "ms"),
        ("peak_rss_mb", rss, "MB"),
    ];
    // The same figures under the names the workload's users know them by.
    let op = outcome.op;
    // The first setup repetition is the process's cold one.
    let first_setup = outcome.setup_s.first().copied().unwrap_or(0.0);
    let mut named: Vec<(String, f64, &str)> = vec![
        ("setup_s".into(), setup, "s"),
        ("setup_first_s".into(), first_setup, "s"),
    ];
    if op == "pass" {
        named.push(("pass_s".into(), p50, "s"));
    } else {
        named.push((format!("{op}_p50_ms"), ms(p50), "ms"));
        named.push((format!("{op}_p90_ms"), ms(p90), "ms"));
    }
    named.push((format!("{}_per_s", outcome.ops), rate, "1/s"));
    named.push(("error_ratio".into(), error_ratio, "ratio"));
    named.push(("peak_rss_mb".into(), rss, "MB"));
    named.extend(outcome.notes.iter().cloned());

    let shown: Vec<(String, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(LAYERS.iter().map(|l| (format!("self_ms.{l}"), "ms")))
            .map(|(n, u)| {
                let v = outcome.per_layer.get(&n).copied().unwrap_or(0.0);
                (n, v, u)
            })
            .collect()
    } else {
        end_to_end
            .iter()
            .map(|(n, v, u)| (n.to_string(), *v, *u))
            .collect()
    };
    let finite = shown.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not finite: {shown:?}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;

    let to_obj = |list: &[(String, f64, &str)]| {
        Json::Obj(
            list.iter()
                .map(|(n, v, u)| (n.clone(), metric(if v.is_finite() { *v } else { 0.0 }, u)))
                .collect(),
        )
    };
    let provenance = Json::obj(vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("isa", Json::str(isa())),
        ("solver_threads", Json::Num(THREADS as f64)),
        ("server_workers", Json::Num(THREADS as f64)),
        ("client_connections", Json::Num(outcome.connections as f64)),
        ("setup_reps", Json::Num(outcome.setup_s.len() as f64)),
        (
            "samples",
            Json::obj(vec![
                (op, Json::Num(outcome.op_s.len() as f64)),
                ("traced", Json::Num(outcome.traced as f64)),
            ]),
        ),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let detail = Json::obj(vec![
        ("provenance", provenance),
        ("metrics", to_obj(&named)),
    ]);
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", to_obj(&shown)),
    ]);

    write_results(&args, &detail, &result, outcome.tracer.as_ref());
    println!("{}", detail.to_line());
    println!("{}", result.to_line());
    ExitCode::SUCCESS
}

/// Writes the run's documents under `perfbench/results/` (relative to
/// the working directory, the repository root). A failed write is
/// reported and does not fail the run.
fn write_results(args: &Args, detail: &Json, result: &Json, tracer: Option<&Tracer>) {
    let dir = std::path::Path::new("perfbench").join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut pairs = vec![("detail", detail.clone()), ("result", result.clone())];
    if let Some(t) = tracer {
        pairs.push(("trace", t.to_json()));
    }
    let doc = Json::obj(pairs).to_line() + "\n";
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), doc));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", dir.display());
    }
}
