//! `perfbench`: the end-to-end and per-layer benchmark of the Cologne stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload acloud|wireless|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics for
//! `--seconds`; the traced run (`--trace 1`) runs a fixed number of
//! operations untraced and then traced, and reports the per-layer metrics.
//! Both check the workload's outputs. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 0 only when every check passed. See `README.md` beside
//! this crate for the metrics, workloads and layers.

mod acloud;
mod calib;
mod env;
mod json;
mod layers;
mod metrics;
mod serve;
mod stats;
mod trace;
mod wireless;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{Metric, Outcome, END_TO_END, PER_LAYER};

/// Options of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One latency series, each sample both raw (wall time) and calibrated
/// (`ref_ms` or `ref_s`, see `calib.rs`).
#[derive(Debug, Default)]
pub struct Series {
    pub raw: Vec<f64>,
    pub cal: Vec<f64>,
}

impl Series {
    /// Record a wall time measured while the host's scale was `scale`.
    pub fn push(&mut self, raw: f64, scale: f64) {
        self.raw.push(raw);
        self.cal.push(raw * scale);
    }

    pub fn extend(&mut self, other: &Series) {
        self.raw.extend(&other.raw);
        self.cal.extend(&other.cal);
    }
}

/// Samples of the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up wall times (s); `setup_s` is the one end-to-end metric kept
    /// raw.
    pub setup_s: Vec<f64>,
    pub op_ms: Series,
    pub ingest_ms: Series,
    pub reopen_ms: Series,
    pub converge_s: Series,
    /// Per-interval solution quality (the acloud CPU stdev).
    pub quality: Vec<f64>,
    pub ops: u64,
    /// Wall time of the measuring window, set-up sampling and calibration
    /// slices left out.
    pub window_s: f64,
    /// The same window on the calibrated clock (`Calib::ref_elapsed_s`).
    pub window_ref_s: f64,
    /// The timed thread's calibrator.
    pub calib: calib::Calib,
}

impl Samples {
    /// Every end-to-end metric, with the workload's fixed tail percentile.
    /// The raw wall-time figures go to the report.
    pub fn finish(&self, out: &mut Outcome, tail_pct: f64) {
        let calib = &self.calib;
        if self.setup_s.is_empty() {
            out.problem("no setup_s samples".into());
        } else {
            out.metrics.insert("setup_s", stats::median(&self.setup_s));
        }
        let mut raw = Vec::new();
        for (name, series) in [
            ("reopen_p50_ms", &self.reopen_ms),
            ("converge_s", &self.converge_s),
        ] {
            if series.raw.is_empty() {
                out.problem(format!("no {name} samples"));
            } else {
                out.metrics.insert(name, stats::median(&series.cal));
                raw.push(format!("{name} {:.6}", stats::median(&series.raw)));
            }
        }
        for (p50, tail, series) in [
            ("op_p50_ms", "op_tail_ms", &self.op_ms),
            ("ingest_p50_ms", "ingest_tail_ms", &self.ingest_ms),
        ] {
            match (
                stats::summarize(&series.cal, tail_pct),
                stats::summarize(&series.raw, tail_pct),
            ) {
                (Ok(c), Ok(r)) => {
                    out.metrics.insert(p50, c.p50);
                    out.metrics.insert(tail, c.tail);
                    raw.push(format!("{p50} {:.6} {tail} {:.6}", r.p50, r.tail));
                }
                (Err(e), _) | (_, Err(e)) => out.problem(format!("{p50}: {e}")),
            }
        }
        let per_s = |window: f64| self.ops as f64 / window.max(f64::MIN_POSITIVE);
        out.metrics.insert("ops_per_s", per_s(self.window_ref_s));
        raw.push(format!("ops_per_s {:.6}", per_s(self.window_s)));
        out.report
            .push(format!("raw wall times (ms, s): {}", raw.join(", ")));
        out.report.push(format!(
            "calibration: {} slices, median {:.6} ms, window {:.6} s = {:.6} ref_s",
            calib.slices(),
            calib.median_ms(),
            self.window_s,
            self.window_ref_s
        ));
        out.report.push(format!(
            "samples: {} ops in {:.3} s, {} ingests, {} set-ups, {} reopens, {} convergences; tail = p{tail_pct}",
            self.op_ms.raw.len(),
            self.window_s,
            self.ingest_ms.raw.len(),
            self.setup_s.len(),
            self.reopen_ms.raw.len(),
            self.converge_s.raw.len(),
        ));
    }
}

/// A stable digest of a sequence of rendered outputs.
pub fn digest(items: impl Iterator<Item = String>) -> u64 {
    let mut h = DefaultHasher::new();
    for item in items {
        item.hash(&mut h);
    }
    h.finish()
}

/// Derive an independent stream seed from a run seed (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

const WORKLOADS: [&str; 3] = ["acloud", "wireless", "serve"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (acloud, wireless, serve, all)"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
        },
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match (name, ctx.trace) {
        ("acloud", false) => acloud::run(ctx),
        ("acloud", true) => acloud::run_traced(ctx),
        ("wireless", false) => wireless::run(ctx),
        ("wireless", true) => wireless::run_traced(ctx),
        ("serve", false) => serve::run(ctx),
        ("serve", true) => serve::run_traced(ctx),
        _ => unreachable!("workload names are validated"),
    }
}

/// Where results and spans are written: `out/` beside this crate.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload, print its report and write its result file. Returns
/// the result object, or `None` when a metric could not be measured.
fn measure(name: &str, ctx: &Ctx) -> Option<Json> {
    let started = std::time::Instant::now();
    let mut outcome = run_workload(name, ctx);
    let params = Json::obj(std::mem::take(&mut outcome.params));
    let header = env::header(name, ctx.seed, ctx.seconds, ctx.trace, params);
    println!("# env {}", header.render());
    for line in &outcome.report {
        println!("# {line}");
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let registry: &[Metric] = if ctx.trace { PER_LAYER } else { END_TO_END };
    for metric in registry {
        if let Some(v) = outcome.metrics.get(metric.name) {
            println!("# {:<30} {:>16.6} {}", metric.name, v, metric.unit);
        }
    }
    println!(
        "# {name}: {} attempted, {} failed, correct {}, {:.1} s",
        outcome.attempted,
        outcome.failed,
        outcome.correct(),
        started.elapsed().as_secs_f64()
    );
    let result = match outcome.result_json(registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            return None;
        }
    };
    let dir = out_dir();
    let stem = format!("{name}-seed{}-trace{}", ctx.seed, u8::from(ctx.trace));
    let file = Json::obj([
        ("env", header),
        ("result", result.clone()),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(Json::str).collect()),
        ),
    ]);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), file.render()))
        .and_then(|()| {
            if outcome.spans.is_empty() {
                Ok(())
            } else {
                let spans = trace::spans_json(&outcome.spans).render();
                std::fs::write(dir.join(format!("{stem}.spans.json")), spans)
            }
        });
    if let Err(e) = written {
        eprintln!("{name}: cannot write results under {}: {e}", dir.display());
        return None;
    }
    Some(result)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in &names {
        match measure(name, &args.ctx) {
            Some(result) => results.push((*name, result)),
            None => return ExitCode::FAILURE,
        }
    }
    let result = if let [(_, only)] = results.as_slice() {
        only.clone()
    } else {
        combine(&results)
    };
    let correct = result.get("correct") == Some(&Json::Bool(true));
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One result for `--workload all`: counts summed, metrics prefixed with
/// their workload.
fn combine(results: &[(&str, Json)]) -> Json {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for (name, r) in results {
        correct &= r.get("correct") == Some(&Json::Bool(true));
        attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(pairs)) = r.get("metrics") {
            for (k, v) in pairs {
                metrics.push((format!("{name}.{k}"), v.clone()));
            }
        }
    }
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "serve");
        assert_eq!((a.ctx.seed, a.ctx.seconds, a.ctx.trace), (7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload acloud --trace 2").is_err());
        assert!(args("--workload acloud --seconds 0").is_err());
    }

    #[test]
    fn seeds_mix_into_distinct_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
