//! The benchmark's instrumented calls into the core layers, shared by the
//! workloads. Each helper makes the same calls with tracing on or off; only
//! the spans differ.
//!
//! Untraced, a solve is one `invoke_solver` (or `Deployment::invoke_at`),
//! the call the use cases make, so the end-to-end metrics time the path the
//! program runs, memoized re-solves included. Traced, it is driven as
//! `ground_only` → `recycle` → `invoke_solver`: the explicit grounding gives
//! the `ground` layer its own span, and the following `invoke_solver` reuses
//! the recycled COP (`ground_only` drops the memoized report, so a traced
//! solve always searches; the replies are equal either way, and
//! `trace.overhead_pct` includes the cost of the split). The invoke span's
//! search part comes from the solver's own `elapsed_micros`; the remainder
//! (warm start, materialization, rule re-run) is `invoke` self time. When
//! the program asks for dual bounds, the solver computes its root bound
//! inside search without timing it, so the benchmark times one
//! `compute_root_bound` on the same grounded model beside the solve and
//! charges that long to a `bound` child of the search span.

use std::hint::black_box;
use std::time::Instant;

use cologne::datalog::NodeId;
use cologne::solver::{compute_root_bound, BoundMode, Objective};
use cologne::{CologneInstance, Deployment, GoalKind, SolveReport, SolverBoundMode};

use crate::metrics::Counters;
use crate::trace::{SpanId, Tracer};

fn bound_mode(mode: SolverBoundMode) -> BoundMode {
    match mode {
        SolverBoundMode::Off => BoundMode::Off,
        SolverBoundMode::Linear => BoundMode::Linear,
        SolverBoundMode::Relaxed => BoundMode::Relaxed,
        SolverBoundMode::Auto => BoundMode::Auto,
    }
}

/// Ground `inst`'s COP under a `ground` span, time one root-bound
/// certification of it when the program asks for bounds, and hand the COP
/// back for the next `invoke_solver`. Returns the bound call's nanoseconds
/// (0 without bounds), for [`solved`].
pub fn ground(inst: &mut CologneInstance, tr: &mut Tracer, c: &mut Counters) -> u64 {
    let before = inst.pipeline_stats();
    let span = tr.begin("ground");
    let cop = inst.ground_only();
    tr.end(span);
    let after = inst.pipeline_stats();
    c.ground_full += after.full_rebuilds - before.full_rebuilds;
    c.ground_incremental += after.incremental_builds - before.incremental_builds;
    let Ok(cop) = cop else {
        // invoke_solver re-grounds and reports the error itself
        return 0;
    };
    let mode = bound_mode(inst.params().solver_bound_mode);
    let objective = match cop.objective {
        Some((GoalKind::Minimize, v)) => Some(Objective::Minimize(v)),
        Some((GoalKind::Maximize, v)) => Some(Objective::Maximize(v)),
        _ => None,
    };
    let mut bound_ns = 0;
    if let (Some(objective), true) = (objective, mode != BoundMode::Off) {
        let mut config = inst.search_config().clone();
        config.bound_mode = mode;
        let start = Instant::now();
        black_box(compute_root_bound(
            &cop.model,
            objective,
            &config,
            cop.model.domains(),
        ));
        bound_ns = start.elapsed().as_nanos() as u64;
    }
    inst.recycle(cop);
    bound_ns
}

/// Close the bookkeeping of one solve whose `invoke` span is `span`: the
/// solver-reported search time becomes its `search` child, `bound_ns` (from
/// [`ground`]) a `bound` child of that, and the search counters and bound
/// certificate are counted.
pub fn solved(
    tr: &mut Tracer,
    span: SpanId,
    report: &SolveReport,
    bound_ns: u64,
    c: &mut Counters,
) {
    let search = tr.child(
        span,
        "search",
        report.stats.elapsed_micros.saturating_mul(1000),
    );
    if bound_ns > 0 {
        tr.child(search, "bound", bound_ns);
    }
    c.nodes += report.stats.nodes;
    c.fails += report.stats.fails;
    c.propagations += report.stats.propagations;
    c.bound_win(report.certificate.as_ref());
}

/// One `invoke_solver`: with tracing on, [`ground`] first and the solve
/// under an `invoke` span closed by [`solved`]; with tracing off, the plain
/// call.
pub fn ground_and_invoke(
    inst: &mut CologneInstance,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<SolveReport, cologne::CologneError> {
    if !tr.enabled() {
        return inst.invoke_solver();
    }
    let bound_ns = ground(inst, tr, c);
    let span = tr.begin("invoke");
    let report = inst.invoke_solver();
    tr.end(span);
    if let Ok(report) = &report {
        solved(tr, span, report, bound_ns, c);
    }
    report
}

/// `Deployment::sync` split by layer: the node's rules run to a fixpoint
/// under a `datalog` span, and the tuples they address to other nodes are
/// shipped under a `net` span.
pub fn sync(dep: &mut Deployment, node: NodeId, tr: &mut Tracer) {
    let outgoing = tr.span("datalog", || {
        dep.instance_mut(node)
            .expect("the node is deployed")
            .run_rules()
    });
    if !outgoing.is_empty() {
        tr.span("net", || dep.ship(node, outgoing));
    }
}

/// Derivations and updates of one instance's Datalog engine so far.
pub fn engine_counts(inst: &CologneInstance) -> (u64, u64) {
    let s = inst.engine_stats();
    (s.derivations, s.updates)
}
