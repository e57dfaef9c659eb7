//! `wireless`: the distributed per-link channel negotiation
//! (`WIRELESS_DISTRIBUTED`, Figs 6–7) on a 10×10 mesh, over the simulated
//! network under a seeded lossy plan (5% loss, 5% duplication, 5 ms
//! jitter, no crashes).
//!
//! Each full negotiation builds a fresh deployment and negotiates every
//! link, pass after pass, until no link changes its channel — the protocol
//! of `networked_distributed_assignment`, driven here call by call so each
//! layer gets its own spans. Many small COPs: `datalog`, `core` grounding
//! and invoke, and `net` carry the time; search carries little.
//!
//! Check: every negotiation must reach the assignment of the quiet-plan
//! `networked_distributed_assignment`.

use std::time::{Duration, Instant};

use cologne::datalog::{NodeId, Value};
use cologne::net::{FaultPlan, LinkFaults};
use cologne::{Deployment, DeploymentBuilder, ProgramParams, SolverBranching, VarDomain};
use cologne_usecases::programs::WIRELESS_DISTRIBUTED;
use cologne_usecases::wireless::{
    aggregate_throughput, networked_distributed_assignment, ChannelAssignment, MeshNetwork,
    WirelessConfig,
};

use crate::json::Json;
use crate::layers;
use crate::metrics::{Counters, Outcome, TraceSummary};
use crate::trace::Tracer;
use crate::{ms, Ctx, Samples};

/// The fixed tail percentile of this workload's latencies.
pub const TAIL_PCT: f64 = 95.0;
const ROWS: u32 = 10;
const COLS: u32 = 10;
const LOSS: f64 = 0.05;
const DUPLICATE: f64 = 0.05;
const JITTER_US: u64 = 5_000;
/// Virtual time per quiescence barrier (as in the use case).
const STEP_US: u64 = 500_000;
/// Safety cap on negotiation passes (as in the use case).
const MAX_PASSES: usize = 8;
/// Barrier extensions before a barrier counts as unsettled.
const MAX_EXTENSIONS: usize = 16;
/// Set-ups measured per run before timing (the median is `setup_s`).
const SETUPS: usize = 5;
/// Full negotiations of the traced run (and of its untraced twin).
const TRACE_NEGOTIATIONS: u64 = 8;
/// Offered rate per flow for the throughput of the final assignment.
const DATA_RATE_MBPS: f64 = 4.0;

fn config() -> WirelessConfig {
    WirelessConfig {
        rows: ROWS,
        cols: COLS,
        ..WirelessConfig::default()
    }
}

/// The parameters `networked_distributed_assignment` solves with.
fn params(cfg: &WirelessConfig) -> ProgramParams {
    let lo = cfg.channels.iter().copied().min().unwrap_or(1);
    let hi = cfg.channels.iter().copied().max().unwrap_or(1);
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::new(lo, hi))
        .with_constant("F_mindiff", cfg.f_mindiff)
        .with_solver_branching(SolverBranching::InputOrder)
        .with_solver_node_limit(Some(cfg.solver_node_limit))
        .with_solver_max_time(None)
        .with_warm_start(false)
}

/// The lossy plan of negotiation `rep` of a run seeded with `seed`.
fn plan(seed: u64, rep: u64) -> FaultPlan {
    FaultPlan::seeded(crate::mix(seed, rep)).link_faults(LinkFaults {
        loss: LOSS,
        duplicate: DUPLICATE,
        jitter_us: JITTER_US,
    })
}

fn addr(n: u32) -> Value {
    Value::Addr(NodeId(n))
}

fn link_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Quiescence barrier: advance the simulation until every shipped tuple is
/// delivered and acked, extending the deadline one step at a time.
fn barrier(dep: &mut Deployment, tr: &mut Tracer) -> bool {
    tr.span("net", || {
        let mut deadline = dep.now().plus_us(STEP_US);
        for _ in 0..MAX_EXTENSIONS {
            if dep.settle(deadline) {
                return true;
            }
            deadline = deadline.plus_us(STEP_US);
        }
        false
    })
}

/// Replace one relation of `node` and sync it.
fn set_and_sync(
    dep: &mut Deployment,
    node: u32,
    rel: &str,
    rows: Vec<Vec<Value>>,
    tr: &mut Tracer,
) {
    tr.span("datalog", || {
        dep.handle(NodeId(node), rel)
            .expect("relation is in the wireless schema")
            .set(rows)
            .expect("rows match the wireless schema");
    });
    layers::sync(dep, NodeId(node), tr);
}

/// Refresh `node`'s `chosen` table from the assignment in progress.
fn refresh_chosen(
    dep: &mut Deployment,
    assignment: &ChannelAssignment,
    node: u32,
    tr: &mut Tracer,
) {
    let rows = assignment
        .iter()
        .filter(|((a, b), _)| *a == node || *b == node)
        .map(|((a, b), &ch)| {
            let other = if *a == node { *b } else { *a };
            vec![addr(node), addr(other), Value::Int(ch)]
        })
        .collect();
    set_and_sync(dep, node, "chosen", rows, tr);
}

/// Compile and deploy the program on every node, load the base facts and
/// let them settle.
fn open(mesh: &MeshNetwork, cfg: &WirelessConfig, plan: FaultPlan, tr: &mut Tracer) -> Deployment {
    let mut dep = tr.span("colog", || {
        DeploymentBuilder::new(WIRELESS_DISTRIBUTED)
            .params(params(cfg))
            .topology(mesh.topology.clone())
            .faults(plan)
            .build()
            .expect("wireless program compiles")
    });
    let channels = &cfg.channels;
    for n in mesh.topology.nodes() {
        for m in mesh.topology.neighbors(n) {
            dep.insert(NodeId(n), "link", vec![addr(n), addr(m)])
                .expect("link rows match the schema");
        }
        for banned in mesh.primary_users.get(&n).cloned().unwrap_or_default() {
            if channels.contains(&banned) && channels.len() > 1 {
                dep.insert(NodeId(n), "primaryUser", vec![addr(n), Value::Int(banned)])
                    .expect("primaryUser rows match the schema");
            }
        }
    }
    barrier(&mut dep, tr);
    dep
}

/// Outcome of one full negotiation.
struct Negotiated {
    assignment: ChannelAssignment,
    passes: usize,
    ops: u64,
    unsettled: u64,
}

/// Negotiate every link, pass after pass, until a pass changes nothing.
fn negotiate(
    dep: &mut Deployment,
    mesh: &MeshNetwork,
    channels: &[i64],
    tr: &mut Tracer,
    c: &mut Counters,
    s: &mut Samples,
    op: &mut u64,
) -> Negotiated {
    let mut assignment = ChannelAssignment::new();
    let mut passes = 0;
    let mut ops = 0;
    let mut unsettled = 0;
    for pass in 0..MAX_PASSES {
        passes = pass + 1;
        let mut changed = false;
        for (a, b) in mesh.links() {
            let (initiator, peer) = (a.max(b), a.min(b));
            *op += 1;
            tr.set_op(*op);
            s.calib.tick();
            let scale = s.calib.scale();
            let start = Instant::now();
            unsettled += u64::from(!barrier(dep, tr));
            let previous = assignment.remove(&link_key(initiator, peer));
            let ingest = Instant::now();
            refresh_chosen(dep, &assignment, initiator, tr);
            refresh_chosen(dep, &assignment, peer, tr);
            set_and_sync(
                dep,
                initiator,
                "setLink",
                vec![vec![addr(initiator), addr(peer)]],
                tr,
            );
            s.ingest_ms.push(ms(ingest.elapsed()), scale);
            unsettled += u64::from(!barrier(dep, tr));

            let report = if tr.enabled() {
                let inst = dep
                    .instance_mut(NodeId(initiator))
                    .expect("initiator is deployed");
                let bound_ns = layers::ground(inst, tr, c);
                let span = tr.begin("invoke");
                let report = dep.invoke_at(NodeId(initiator));
                tr.end(span);
                if let Ok(report) = &report {
                    layers::solved(tr, span, report, bound_ns, c);
                }
                report
            } else {
                dep.invoke_at(NodeId(initiator))
            };
            let channel = report
                .ok()
                .filter(|r| r.feasible && !r.trivial)
                .and_then(|r| {
                    r.table("assign")
                        .iter()
                        .find(|row| row[1].as_addr() == Some(NodeId(peer)))
                        .and_then(|row| row[2].as_int())
                })
                .unwrap_or(channels[0]);
            changed |= previous != Some(channel);
            assignment.insert(link_key(initiator, peer), channel);

            refresh_chosen(dep, &assignment, initiator, tr);
            refresh_chosen(dep, &assignment, peer, tr);
            set_and_sync(dep, initiator, "setLink", vec![], tr);
            unsettled += u64::from(!barrier(dep, tr));
            s.op_ms.push(ms(start.elapsed()), scale);
            ops += 1;
        }
        if pass > 0 && !changed {
            break;
        }
    }
    Negotiated {
        assignment,
        passes,
        ops,
        unsettled,
    }
}

/// Network and engine counters of a finished negotiation.
fn count(dep: &Deployment, c: &mut Counters) {
    let stats = dep.stats();
    for node in &stats.nodes {
        c.derivations += node.engine.derivations;
        c.updates += node.engine.updates;
    }
    for n in dep.nodes() {
        let t = dep.traffic(n);
        c.net_messages += t.messages_sent;
        c.net_bytes += t.bytes_sent;
    }
    c.net_retransmits += stats.delivery.retransmits;
    c.net_first_sends += stats.delivery.data_packets_sent;
    c.net_overhead_kbps += dep.per_node_overhead_kbps();
}

/// Shared state of a run.
struct Run {
    cfg: WirelessConfig,
    mesh: MeshNetwork,
    seed: u64,
    rep: u64,
    op: u64,
    assignments: Vec<ChannelAssignment>,
    passes: Vec<usize>,
    overhead_kbps: Vec<f64>,
    unsettled: u64,
}

impl Run {
    fn new(seed: u64) -> Run {
        let cfg = config();
        let mesh = MeshNetwork::generate(&cfg);
        Run {
            cfg,
            mesh,
            seed,
            rep: 0,
            op: 0,
            assignments: Vec::new(),
            passes: Vec::new(),
            overhead_kbps: Vec::new(),
            unsettled: 0,
        }
    }

    /// Open a deployment for the next negotiation; returns it and the time
    /// the opening took.
    fn open(&mut self, tr: &mut Tracer) -> (Deployment, Duration) {
        let start = Instant::now();
        let dep = open(&self.mesh, &self.cfg, plan(self.seed, self.rep), tr);
        self.rep += 1;
        (dep, start.elapsed())
    }

    /// One full negotiation on `dep`; returns its wall time.
    fn negotiate(
        &mut self,
        mut dep: Deployment,
        tr: &mut Tracer,
        c: &mut Counters,
        s: &mut Samples,
    ) -> Duration {
        let start = Instant::now();
        let calibrating = s.calib.spent();
        let channels = self.cfg.channels.clone();
        let done = negotiate(&mut dep, &self.mesh, &channels, tr, c, s, &mut self.op);
        let wall = start.elapsed() - (s.calib.spent() - calibrating);
        s.converge_s.push(wall.as_secs_f64(), s.calib.scale());
        s.ops += done.ops;
        count(&dep, c);
        self.overhead_kbps.push(dep.per_node_overhead_kbps());
        self.assignments.push(done.assignment);
        self.passes.push(done.passes);
        self.unsettled += done.unsettled;
        wall
    }

    /// Compare every negotiated assignment with the quiet-plan reference.
    fn verify(&self, out: &mut Outcome, ops_per_negotiation: &[u64]) {
        let reference =
            networked_distributed_assignment(&self.mesh, &self.cfg.channels, FaultPlan::default())
                .assignment;
        for (i, (a, ops)) in self.assignments.iter().zip(ops_per_negotiation).enumerate() {
            out.attempted += ops;
            if *a != reference {
                let differing = a
                    .iter()
                    .filter(|(link, ch)| reference.get(link) != Some(ch))
                    .count() as u64;
                out.failed += differing.max(1);
                out.problem(format!(
                    "negotiation {i}: {differing} links differ from the quiet-plan assignment"
                ));
            }
        }
        if self.unsettled > 0 {
            out.problem(format!("{} barriers did not settle", self.unsettled));
        }
    }

    fn throughput(&self) -> f64 {
        self.assignments.last().map_or(0.0, |a| {
            aggregate_throughput(&self.mesh, a, DATA_RATE_MBPS, false)
        })
    }

    fn describe(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("rows", Json::Num(f64::from(ROWS))),
            ("cols", Json::Num(f64::from(COLS))),
            ("links", Json::Num(self.mesh.links().len() as f64)),
            ("channels", Json::Num(self.cfg.channels.len() as f64)),
            ("mesh_seed", Json::Num(self.cfg.seed as f64)),
            ("node_limit", Json::Num(self.cfg.solver_node_limit as f64)),
            ("loss", Json::Num(LOSS)),
            ("duplicate", Json::Num(DUPLICATE)),
            ("jitter_us", Json::Num(JITTER_US as f64)),
            ("data_rate_mbps", Json::Num(DATA_RATE_MBPS)),
            ("tail_pct", Json::Num(TAIL_PCT)),
            ("setups", Json::Num(SETUPS as f64)),
            ("trace_negotiations", Json::Num(TRACE_NEGOTIATIONS as f64)),
        ]
    }
}

/// Ops of each negotiation, from the running op counts.
fn ops_of(samples: &[u64]) -> Vec<u64> {
    samples.windows(2).map(|w| w[1] - w[0]).collect()
}

/// The untraced run: `SETUPS` timed set-ups, then full negotiations (each
/// on a freshly opened deployment) for `--seconds`, then the check.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut run = Run::new(ctx.seed);
    let mut out = Outcome {
        params: run.describe(),
        ..Outcome::default()
    };
    let mut tr = Tracer::new(false);
    let mut c = Counters::default();
    let mut s = Samples::default();
    let mut dep = None;
    s.calib.tick();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (d, took) = run.open(&mut tr);
        s.reopen_ms.push(ms(took), s.calib.scale());
        dep = Some(d);
        s.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut dep = dep.expect("at least one set-up");
    let mut op_marks = vec![0];
    let start = Instant::now();
    let calibrating = s.calib.spent();
    let ref_start = s.calib.ref_elapsed_s();
    loop {
        run.negotiate(dep, &mut tr, &mut c, &mut s);
        op_marks.push(s.ops);
        if start.elapsed() >= Duration::from_secs(ctx.seconds) {
            break;
        }
        let (d, took) = run.open(&mut tr);
        s.reopen_ms.push(ms(took), s.calib.scale());
        s.setup_s.push(took.as_secs_f64());
        dep = d;
    }
    s.window_s = (start.elapsed() - (s.calib.spent() - calibrating)).as_secs_f64();
    s.window_ref_s = s.calib.ref_elapsed_s() - ref_start;
    run.verify(&mut out, &ops_of(&op_marks));
    s.finish(&mut out, TAIL_PCT);
    out.report.push(format!(
        "wireless: {} negotiations of {} ops, passes {:?}, {} retransmits, overhead {:.3} KB/s/node, throughput {:.3} Mbps",
        run.assignments.len(),
        op_marks.last().copied().unwrap_or(0),
        run.passes,
        c.net_retransmits,
        crate::mean(&run.overhead_kbps),
        run.throughput()
    ));
    out
}

/// The traced run: `TRACE_NEGOTIATIONS` negotiations (same fault plans) in
/// untraced and traced passes; the assignments must be identical.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut walls = [0.0; 2];
    let mut last_wall = 0.0;
    let mut traced_run = None;
    let mut assignments = Vec::new();
    let mut out = Outcome::default();
    for traced in crate::trace::PASSES {
        let mut run = Run::new(ctx.seed);
        let mut tr = Tracer::new(traced);
        let mut c = Counters::default();
        let mut s = Samples::default();
        let mut op_marks = vec![0];
        last_wall = 0.0;
        for _ in 0..TRACE_NEGOTIATIONS {
            let (dep, _) = run.open(&mut tr);
            last_wall += run.negotiate(dep, &mut tr, &mut c, &mut s).as_secs_f64();
            op_marks.push(s.ops);
        }
        walls[usize::from(traced)] += last_wall;
        assignments.push(run.assignments.clone());
        out.params = run.describe();
        traced_run = Some((run, tr.into_spans(), c, s, op_marks));
    }
    let (run, spans, mut c, s, op_marks) = traced_run.expect("traced pass");
    if assignments.iter().any(|a| *a != run.assignments) {
        out.problem("traced assignments differ from the untraced run's".into());
    }
    run.verify(&mut out, &ops_of(&op_marks));
    c.net_overhead_kbps /= TRACE_NEGOTIATIONS as f64;
    let summary = TraceSummary {
        ops: s.ops,
        untraced_wall_s: walls[0],
        traced_wall_s: walls[1],
        cpu_stdev_pct: 0.0,
        throughput_mbps: run.throughput(),
        failed_ratio: out.failed as f64 / out.attempted.max(1) as f64,
    };
    out.metrics = crate::metrics::per_layer(&spans, &c, &summary);
    out.report
        .extend(crate::trace::self_time_table(&spans, last_wall));
    out.spans = spans;
    out
}
