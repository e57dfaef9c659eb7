//! The metric registry (names and units, mirrored in `BENCHMARK.json`), the
//! per-layer counters a workload accumulates, and the result object.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::trace::{layer_totals, Span};

/// One metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by the untraced run of every workload.
/// Every time but `setup_s` is calibrated against the host's speed
/// (`calib.rs`): `ref_ms` and `ref_s` are milliseconds and seconds of a
/// host on which a calibration slice takes `calib::REF_MS` ms.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "ops/ref_s"),
    m("op_p50_ms", "ref_ms"),
    m("op_tail_ms", "ref_ms"),
    m("ingest_p50_ms", "ref_ms"),
    m("ingest_tail_ms", "ref_ms"),
    m("reopen_p50_ms", "ref_ms"),
    m("converge_s", "ref_s"),
];

/// Per-layer metrics, reported by the traced run of every workload (zero
/// where a workload does not use the layer). Times are totals over the
/// traced run's fixed operation count (`trace.ops`).
pub const PER_LAYER: &[Metric] = &[
    m("colog.compile_ms", "ms"),
    m("colog.calls", "count"),
    m("datalog.self_ms", "ms"),
    m("datalog.calls", "count"),
    m("datalog.derivations", "count"),
    m("datalog.updates", "count"),
    m("ground.self_ms", "ms"),
    m("ground.calls", "count"),
    m("ground.full", "count"),
    m("ground.incremental", "count"),
    m("ground.reuse_ratio", "fraction"),
    m("invoke.other_ms", "ms"),
    m("invoke.calls", "count"),
    m("search.self_ms", "ms"),
    m("search.calls", "count"),
    m("search.nodes", "count"),
    m("search.fails", "count"),
    m("search.propagations", "count"),
    m("search.us_per_node", "us"),
    m("bound.self_ms", "ms"),
    m("bound.calls", "count"),
    m("bound.wins.linear_relaxation", "count"),
    m("bound.wins.relaxed_merge", "count"),
    m("bound.wins.semantic_floor", "count"),
    m("net.self_ms", "ms"),
    m("net.calls", "count"),
    m("net.messages", "count"),
    m("net.bytes", "B"),
    m("net.retransmits", "count"),
    m("net.useful_ratio", "fraction"),
    m("net.overhead_kbps", "KB/s"),
    m("serve.self_ms", "ms"),
    m("serve.calls", "count"),
    m("serve.codec_us", "us"),
    m("serve.overhead_ms", "ms"),
    m("serve.refused", "count"),
    m("trace.overhead_pct", "%"),
    m("trace.ops", "count"),
    m("quality.cpu_stdev_pct", "%"),
    m("quality.throughput_mbps", "Mbps"),
    m("failed_ratio", "fraction"),
];

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Work counters of the layers, summed over the traced operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub derivations: u64,
    pub updates: u64,
    pub ground_full: u64,
    pub ground_incremental: u64,
    pub nodes: u64,
    pub fails: u64,
    pub propagations: u64,
    /// Certificates per winning bound component.
    pub bound_wins: BTreeMap<String, u64>,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub net_retransmits: u64,
    /// Data tuples put on the network for the first time.
    pub net_first_sends: u64,
    pub net_overhead_kbps: f64,
    pub codec_ns: u64,
    pub serve_overhead_ns: f64,
    pub refused: u64,
}

impl Counters {
    /// Fold another thread's or phase's counters into these.
    pub fn add(&mut self, o: &Counters) {
        self.derivations += o.derivations;
        self.updates += o.updates;
        self.ground_full += o.ground_full;
        self.ground_incremental += o.ground_incremental;
        self.nodes += o.nodes;
        self.fails += o.fails;
        self.propagations += o.propagations;
        for (k, v) in &o.bound_wins {
            *self.bound_wins.entry(k.clone()).or_default() += v;
        }
        self.net_messages += o.net_messages;
        self.net_bytes += o.net_bytes;
        self.net_retransmits += o.net_retransmits;
        self.net_first_sends += o.net_first_sends;
        self.net_overhead_kbps += o.net_overhead_kbps;
        self.codec_ns += o.codec_ns;
        self.serve_overhead_ns += o.serve_overhead_ns;
        self.refused += o.refused;
    }

    /// Count the certificate of one solve under its winning component: the
    /// semantic floor when it clamped the bound, the engine otherwise.
    pub fn bound_win(&mut self, cert: Option<&cologne::BoundCertificate>) {
        if let Some(cert) = cert {
            let winner = if cert.binding.iter().any(|b| b.starts_with("semantic floor")) {
                "semantic_floor".to_string()
            } else {
                cert.engine.clone()
            };
            *self.bound_wins.entry(winner).or_default() += 1;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Inputs of the per-layer metrics besides spans and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceSummary {
    pub ops: u64,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    pub cpu_stdev_pct: f64,
    pub throughput_mbps: f64,
    pub failed_ratio: f64,
}

/// Every [`PER_LAYER`] metric from the traced run's spans and counters.
pub fn per_layer(spans: &[Span], c: &Counters, s: &TraceSummary) -> BTreeMap<&'static str, f64> {
    let totals = layer_totals(spans);
    let ms = |layer: &str| totals.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let calls = |layer: &str| totals.get(layer).map_or(0.0, |t| t.calls as f64);
    let win = |engine: &str| c.bound_wins.get(engine).copied().unwrap_or(0) as f64;
    let grounds = (c.ground_full + c.ground_incremental) as f64;
    let out = BTreeMap::from([
        ("colog.compile_ms", ms("colog")),
        ("colog.calls", calls("colog")),
        ("datalog.self_ms", ms("datalog")),
        ("datalog.calls", calls("datalog")),
        ("datalog.derivations", c.derivations as f64),
        ("datalog.updates", c.updates as f64),
        ("ground.self_ms", ms("ground")),
        ("ground.calls", calls("ground")),
        ("ground.full", c.ground_full as f64),
        ("ground.incremental", c.ground_incremental as f64),
        (
            "ground.reuse_ratio",
            ratio(c.ground_incremental as f64, grounds),
        ),
        ("invoke.other_ms", ms("invoke")),
        ("invoke.calls", calls("invoke")),
        ("search.self_ms", ms("search")),
        ("search.calls", calls("search")),
        ("search.nodes", c.nodes as f64),
        ("search.fails", c.fails as f64),
        ("search.propagations", c.propagations as f64),
        (
            "search.us_per_node",
            ratio(ms("search") * 1e3, c.nodes as f64),
        ),
        ("bound.self_ms", ms("bound")),
        ("bound.calls", calls("bound")),
        ("bound.wins.linear_relaxation", win("linear_relaxation")),
        ("bound.wins.relaxed_merge", win("relaxed_merge")),
        ("bound.wins.semantic_floor", win("semantic_floor")),
        ("net.self_ms", ms("net")),
        ("net.calls", calls("net")),
        ("net.messages", c.net_messages as f64),
        ("net.bytes", c.net_bytes as f64),
        ("net.retransmits", c.net_retransmits as f64),
        (
            "net.useful_ratio",
            ratio(c.net_first_sends as f64, c.net_messages as f64),
        ),
        ("net.overhead_kbps", c.net_overhead_kbps),
        ("serve.self_ms", ms("serve")),
        ("serve.calls", calls("serve")),
        ("serve.codec_us", c.codec_ns as f64 / 1e3),
        ("serve.overhead_ms", c.serve_overhead_ns / 1e6),
        ("serve.refused", c.refused as f64),
        (
            "trace.overhead_pct",
            ratio(s.traced_wall_s - s.untraced_wall_s, s.untraced_wall_s) * 100.0,
        ),
        ("trace.ops", s.ops as f64),
        ("quality.cpu_stdev_pct", s.cpu_stdev_pct),
        ("quality.throughput_mbps", s.throughput_mbps),
        ("failed_ratio", s.failed_ratio),
    ]);
    debug_assert_eq!(out.len(), PER_LAYER.len());
    out
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check (empty when all passed).
    pub problems: Vec<String>,
    /// Metric values by name ([`END_TO_END`] or [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines printed before the result.
    pub report: Vec<String>,
    /// The traced run's spans (empty untraced).
    pub spans: Vec<Span>,
    /// Workload parameters for the environment header.
    pub params: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Record a failed output check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// The result object: `correct`, `attempted`, `failed` and every metric
    /// of `registry` with its unit.
    pub fn result_json(&self, registry: &[Metric]) -> Result<Json, String> {
        let mut metrics = Vec::with_capacity(registry.len());
        for metric in registry {
            if !valid_name(metric.name) || !valid_unit(metric.unit) {
                return Err(format!("invalid metric {} [{}]", metric.name, metric.unit));
            }
            let value = *self
                .metrics
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            metrics.push((
                metric.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(metric.unit)),
                ]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
        assert!(END_TO_END.contains(&m("setup_s", "s")));
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("bound.wins.relaxed_merge"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("KB/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_self_ms_has_a_calls_count() {
        for metric in PER_LAYER {
            if let Some(layer) = metric.name.strip_suffix(".self_ms") {
                let calls = format!("{layer}.calls");
                assert!(PER_LAYER.iter().any(|m| m.name == calls), "{calls} missing");
            }
        }
    }

    #[test]
    fn per_layer_covers_the_registry() {
        let out = per_layer(&[], &Counters::default(), &TraceSummary::default());
        for metric in PER_LAYER {
            assert!(
                out.contains_key(metric.name),
                "{} not computed",
                metric.name
            );
        }
        assert_eq!(out.len(), PER_LAYER.len());
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = crate::json::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|e| {
                    let name = e.get("name").and_then(Json::as_str).expect("name");
                    let unit = e.get("unit").and_then(Json::as_str).expect("unit");
                    (name.to_string(), unit.to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = registry
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(
                listed, ours,
                "{key} in BENCHMARK.json differs from the registry"
            );
        }
    }

    #[test]
    fn result_file_round_trip() {
        let mut outcome = Outcome {
            attempted: 12,
            ..Default::default()
        };
        for (i, metric) in END_TO_END.iter().enumerate() {
            outcome.metrics.insert(metric.name, 0.1 + i as f64 / 7.0);
        }
        let json = outcome.result_json(END_TO_END).unwrap();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("round-trip-{}.json", std::process::id()));
        std::fs::write(&path, json.render()).unwrap();
        let back = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, json);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.1));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        outcome.metrics.remove("converge_s");
        assert!(
            outcome.result_json(END_TO_END).is_err(),
            "missing metric refused"
        );
    }
}
