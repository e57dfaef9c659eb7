//! The environment header written into every result, so numbers taken on
//! different machines or builds are never compared by accident.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `MemTotal` of `/proc/meminfo` in KiB (0 where unavailable).
fn mem_total_kib() -> f64 {
    read("/proc/meminfo")
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark was built from, as `git
/// describe --always --dirty` names it, or "unknown" outside a git
/// checkout. Looked up at run time, so a build reused across checkouts
/// never reports a stale commit. Git runs only when the checkout root
/// holds `.git`, and may not search above that root.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let Ok(root) = root.canonicalize() else {
        return "unknown".into();
    };
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    let ceiling = root.parent().unwrap_or(&root);
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Machine, build and run parameters of one benchmark run.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, params: Json) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("mem_total_kib", Json::Num(mem_total_kib())),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("commit", Json::str(commit())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("params", params),
    ])
}
