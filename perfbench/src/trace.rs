//! Spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records `(name, start, end, parent, op)` spans in memory.
//! The name of a span is the layer it charges (`datalog`, `ground`,
//! `invoke`, `search`, `net`, `serve`, ...). Spans nest through an explicit
//! begin/end stack, so a layer's *self time* is its duration minus the part
//! of it covered by its child spans. A disabled tracer records nothing and
//! costs one branch per call, so the untraced run executes the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// The passes of a traced run: untraced and traced alternate twice, so the
/// tracing overhead is not one machine phase measured against another.
pub const PASSES: [bool; 4] = [false, true, false, true];

/// Index of an open span (or a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NONE: SpanId = SpanId(u32::MAX);

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with operation id `op` (0 = set-up).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span charged to `name`, nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Run `f` inside a span charged to `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record a child of the closed span `parent` covering its first
    /// `duration_ns` (clamped to the parent): used for time a layer reports
    /// about itself, such as the search time inside one `invoke_solver`.
    pub fn child(&mut self, parent: SpanId, name: &'static str, duration_ns: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let p = &self.spans[parent.0 as usize];
        let start_ns = p.start_ns;
        let end_ns = p.start_ns.saturating_add(duration_ns).min(p.end_ns);
        let op = p.op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent.0),
            op,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// The recorded spans (all closed once the run is over).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed spans at the end of a run");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals: calls and self time in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
}

/// Aggregate spans into per-layer totals, keyed by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    out
}

/// Concatenate span lists recorded by separate tracers (threads, phases),
/// re-basing each list's parent indices.
pub fn concat(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        let base = out.len() as u32;
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// The per-workload self-time table: calls, self time and its share of the
/// traced operations' wall time, one line per layer.
pub fn self_time_table(spans: &[Span], wall_s: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<8} {:>9} {:>12} {:>7}",
        "layer", "calls", "self_ms", "share"
    )];
    for (name, t) in layer_totals(spans) {
        let ms = t.self_ns as f64 / 1e6;
        let share = if wall_s > 0.0 {
            ms / (wall_s * 1e3) * 100.0
        } else {
            0.0
        };
        lines.push(format!("{name:<8} {:>9} {ms:>12.3} {share:>6.1}%", t.calls));
    }
    lines
}

/// Spans as compact JSON rows `[name, start_ns, end_ns, parent, op]`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(s.name),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    Json::Num(s.op as f64),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("invoke", 0, 100, None),
            span("search", 10, 40, Some(0)),
            // overlaps the first child: only 40..60 is newly covered
            span("bound", 30, 60, Some(0)),
            // grandchild: charged to its parent, not to the root
            span("datalog", 12, 20, Some(1)),
            // reaches past the parent's end: clipped
            span("net", 90, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 8, 60]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["invoke"].self_ns, 40);
        assert_eq!(totals["search"].calls, 1);
    }

    #[test]
    fn tracer_nests_and_synthesizes_children() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.begin("invoke");
        t.span("ground", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        t.child(outer, "search", u64::MAX);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].end_ns, spans[0].end_ns, "child clamped to parent");
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(
            self_times(&spans)[0],
            0,
            "fully covered by the search child"
        );
    }

    #[test]
    fn concat_rebases_parents() {
        let a = vec![span("invoke", 0, 10, None), span("search", 0, 5, Some(0))];
        let b = vec![span("serve", 0, 10, None), span("datalog", 2, 3, Some(0))];
        let all = concat(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(self_times(&all), vec![5, 5, 9, 1]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("datalog");
        t.end(id);
        t.child(id, "search", 5);
        assert!(t.into_spans().is_empty());
    }
}
