//! `acloud`: the ACloud load-balancing policy of the paper's Figs 2–3 on the
//! `AcloudConfig::default()` shape (3 data centers × 4 hosts × 80 VMs),
//! with the synthetic trace seeded by `--seed`.
//!
//! One thread drives one per-data-center COP round at a time, interval
//! after interval, with a node-budgeted exact branch-and-bound so every
//! round is deterministic. A trace population (customers, VMs, placement,
//! DC instances) runs for the experiment's `AcloudConfig::intervals()` (the
//! paper's 4 hours of 10-minute intervals, so about 1 round in 24 is the
//! first, cold one of its instance), then a fresh population drawn from the
//! seed takes over; a run covers several populations. Search does most of the
//! work here; `datalog`, `net` and `serve` do almost none.
//!
//! Checks: every round's placement must equal what
//! `AcloudController::optimize` computes for the same inputs, every hot VM
//! must be placed exactly once (c1), and no host may exceed its memory
//! threshold (c2).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cologne::datalog::{NodeId, Value};
use cologne::{CologneInstance, ProgramParams, SolverBranching, VarDomain};
use cologne_usecases::acloud::{
    average_cpu_stdev, dc_hosts, AcloudConfig, AcloudController, Placement, TraceGenerator, Vm,
};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;

use crate::json::Json;
use crate::layers;
use crate::metrics::{Counters, Outcome, TraceSummary};
use crate::trace::Tracer;
use crate::{digest, ms, Ctx, Samples};

/// The fixed tail percentile of this workload's latencies.
pub const TAIL_PCT: f64 = 80.0;
/// Branch-and-bound node budget per COP.
const NODE_LIMIT: u64 = 20_000;
/// Set-ups measured before the window; one more is sampled after every
/// interval in it (the median of all is `setup_s`).
const SETUPS: usize = 10;
/// Intervals of the traced run (and of its untraced twin).
const TRACE_INTERVALS: usize = 16;

/// Trace population `k` of a run seeded with `seed`, on the default shape.
fn config(seed: u64, k: u64) -> AcloudConfig {
    AcloudConfig {
        seed: crate::mix(seed, k),
        solver_node_limit: NODE_LIMIT,
        ..AcloudConfig::default()
    }
}

/// The parameters `AcloudController::new` uses for the ACloud policy.
fn params(config: &AcloudConfig) -> ProgramParams {
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(SolverBranching::FirstFail)
        .with_solver_node_limit(Some(config.solver_node_limit))
        .with_solver_max_time(Some(Duration::from_secs(10)))
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// One per-DC COP round: its inputs and the placement it chose.
struct Round {
    dc: usize,
    hot: Vec<Vm>,
    background: BTreeMap<i64, f64>,
    chosen: BTreeMap<i64, i64>,
    ok: bool,
    /// The first round of a freshly compiled instance: full grounding, no
    /// warm-start memory.
    cold: bool,
    op_ms: f64,
}

/// The simulated deployment: trace, VMs, current placement and one Cologne
/// instance per data center.
struct Sim {
    config: AcloudConfig,
    tracegen: TraceGenerator,
    vms: Vec<Vm>,
    placement: Placement,
    interval: usize,
    dcs: Vec<CologneInstance>,
    /// Per data center: whether its instance has solved a round yet.
    solved: Vec<bool>,
}

impl Sim {
    fn new(config: &AcloudConfig, tr: &mut Tracer, s: &mut Samples) -> Sim {
        let mut tracegen = TraceGenerator::new(config);
        let vms = tracegen.initial_vms();
        let placement = Placement::initial(config, &vms, config.seed + 1);
        let params = params(config);
        let dcs = (0..config.data_centers)
            .map(|dc| {
                let start = Instant::now();
                let inst = tr.span("colog", || {
                    CologneInstance::new(NodeId(dc as u32), ACLOUD_CENTRALIZED, params.clone())
                        .expect("ACloud program compiles")
                });
                s.reopen_ms.push(ms(start.elapsed()), s.calib.scale());
                inst
            })
            .collect();
        Sim {
            config: config.clone(),
            tracegen,
            vms,
            placement,
            interval: 0,
            solved: vec![false; config.data_centers],
            dcs,
        }
    }

    /// Advance the trace one interval and return the COP inputs (hot VMs
    /// and background load per host) of every data center with hot VMs.
    fn step(&mut self) -> Vec<(usize, Vec<Vm>, BTreeMap<i64, f64>)> {
        self.tracegen.step(&mut self.vms, self.interval);
        self.interval += 1;
        let cfg = &self.config;
        let mut inputs = Vec::new();
        for dc in 0..cfg.data_centers {
            let hot: Vec<Vm> = self
                .vms
                .iter()
                .filter(|vm| vm.dc == dc && vm.powered_on && vm.cpu > cfg.cpu_threshold)
                .cloned()
                .collect();
            if hot.is_empty() {
                continue;
            }
            let mut background: BTreeMap<i64, f64> =
                dc_hosts(cfg, dc).into_iter().map(|h| (h, 0.0)).collect();
            for vm in self
                .vms
                .iter()
                .filter(|vm| vm.dc == dc && vm.powered_on && vm.cpu <= cfg.cpu_threshold)
            {
                *background
                    .entry(self.placement.host_of(vm.id))
                    .or_insert(0.0) += vm.cpu;
            }
            inputs.push((dc, hot, background));
        }
        inputs
    }

    /// One COP round for data center `dc`, made exactly like
    /// `AcloudController::optimize`: refresh the monitored tables, solve,
    /// read back the `assign` rows set to 1.
    fn round(
        &mut self,
        dc: usize,
        hot: &[Vm],
        background: &BTreeMap<i64, f64>,
        tr: &mut Tracer,
        c: &mut Counters,
        s: &mut Samples,
    ) -> (BTreeMap<i64, i64>, Result<(), String>) {
        let cfg = &self.config;
        let hosts = dc_hosts(cfg, dc);
        let vm_rows: Vec<Vec<Value>> = hot
            .iter()
            .map(|vm| vec![int(vm.id), int(vm.cpu.round() as i64), int(vm.mem_gb)])
            .collect();
        let host_rows: Vec<Vec<Value>> = hosts
            .iter()
            .map(|h| {
                let load = background.get(h).copied().unwrap_or(0.0).round() as i64;
                vec![int(*h), int(load), int(0)]
            })
            .collect();
        let mem_rows: Vec<Vec<Value>> = hosts
            .iter()
            .map(|h| vec![int(*h), int(cfg.host_mem_gb)])
            .collect();

        let inst = &mut self.dcs[dc];
        s.calib.tick();
        let scale = s.calib.scale();
        let start = Instant::now();
        let (d0, u0) = layers::engine_counts(inst);
        tr.span("datalog", || {
            for (relation, rows) in [
                ("vm", vm_rows),
                ("host", host_rows),
                ("hostMemThres", mem_rows),
            ] {
                inst.relation(relation)
                    .expect("relation is in the ACloud schema")
                    .set(rows)
                    .expect("rows match the ACloud schema");
            }
        });
        let outgoing = tr.span("datalog", || inst.run_rules());
        s.ingest_ms.push(ms(start.elapsed()), scale);
        let report = layers::ground_and_invoke(inst, tr, c);
        s.op_ms.push(ms(start.elapsed()), scale);
        let (d1, u1) = layers::engine_counts(inst);
        c.derivations += d1 - d0;
        c.updates += u1 - u0;

        let mut chosen = BTreeMap::new();
        let mut placed: BTreeMap<i64, u32> = BTreeMap::new();
        if let Some(report) = report.as_ref().ok().filter(|r| r.feasible && !r.trivial) {
            for row in report.table("assign") {
                let (Some(vid), Some(hid), Some(v)) =
                    (row[0].as_int(), row[1].as_int(), row[2].as_int())
                else {
                    continue;
                };
                if v == 1 {
                    chosen.insert(vid, hid);
                    *placed.entry(vid).or_default() += 1;
                }
            }
        }
        let check = if !outgoing.is_empty() {
            Err(format!("dc {dc}: a centralized program shipped tuples"))
        } else if let Err(e) = &report {
            Err(format!("dc {dc}: solve failed: {e}"))
        } else {
            check_constraints(cfg, dc, hot, &placed, &chosen)
        };
        (chosen, check)
    }

    /// One interval: every data center's round, then the migrations.
    /// Returns the wall time of the interval's rounds.
    fn interval(
        &mut self,
        op: &mut u64,
        tr: &mut Tracer,
        c: &mut Counters,
        s: &mut Samples,
        out: &mut Outcome,
    ) -> Vec<Round> {
        let inputs = self.step();
        let start = Instant::now();
        let calibrating = s.calib.spent();
        let mut results = Vec::with_capacity(inputs.len());
        for (dc, hot, background) in inputs {
            *op += 1;
            tr.set_op(*op);
            let cold = !std::mem::replace(&mut self.solved[dc], true);
            let (chosen, check) = self.round(dc, &hot, &background, tr, c, s);
            if let Err(problem) = &check {
                out.problem(format!("interval {}: {problem}", self.interval));
            }
            results.push(Round {
                dc,
                hot,
                background,
                chosen,
                ok: check.is_ok(),
                cold,
                op_ms: s.op_ms.raw.last().copied().unwrap_or(0.0),
            });
        }
        let wall = start.elapsed() - (s.calib.spent() - calibrating);
        s.converge_s.push(wall.as_secs_f64(), s.calib.scale());
        for r in &results {
            for (&vid, &hid) in &r.chosen {
                if self.placement.host_of(vid) != hid {
                    self.placement.migrate(vid, hid);
                }
            }
        }
        s.quality
            .push(average_cpu_stdev(&self.config, &self.vms, &self.placement));
        results
    }
}

/// c1: every hot VM is placed on exactly one host; c2: the hot VMs placed
/// on each host fit its memory threshold.
fn check_constraints(
    cfg: &AcloudConfig,
    dc: usize,
    hot: &[Vm],
    placed: &BTreeMap<i64, u32>,
    chosen: &BTreeMap<i64, i64>,
) -> Result<(), String> {
    for vm in hot {
        let n = placed.get(&vm.id).copied().unwrap_or(0);
        if n != 1 {
            return Err(format!(
                "dc {dc}: c1 violated, vm {} placed {n} times",
                vm.id
            ));
        }
    }
    let mut mem: BTreeMap<i64, i64> = BTreeMap::new();
    for vm in hot {
        *mem.entry(chosen[&vm.id]).or_default() += vm.mem_gb;
    }
    for (host, used) in mem {
        if used > cfg.host_mem_gb || !dc_hosts(cfg, dc).contains(&host) {
            return Err(format!("dc {dc}: c2 violated on host {host} ({used} GB)"));
        }
    }
    Ok(())
}

/// What the measuring thread hands the checker: a new trace population, or the
/// rounds of one interval.
enum Batch {
    Population(AcloudConfig),
    Rounds(Vec<Round>),
}

/// The reference for the placement check: fresh `AcloudController`s per
/// population, fed every round's inputs in the same order.
#[derive(Default)]
struct Verifier {
    cfg: Option<AcloudConfig>,
    controllers: Vec<AcloudController>,
    checked: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verifier {
    fn take(&mut self, batch: &Batch) {
        match batch {
            Batch::Population(cfg) => {
                self.controllers = (0..cfg.data_centers)
                    .map(|dc| AcloudController::new(cfg, dc, false))
                    .collect();
                self.cfg = Some(cfg.clone());
            }
            Batch::Rounds(rounds) => rounds.iter().for_each(|r| self.check(r)),
        }
    }

    /// Count `r` as failed when its placement differs from the reference
    /// or it failed its own checks.
    fn check(&mut self, r: &Round) {
        let cfg = self.cfg.as_ref().expect("a population precedes its rounds");
        // Only the migration-limited policy reads the current placement.
        let unused = Placement::initial(cfg, &[], 0);
        let hot: Vec<&Vm> = r.hot.iter().collect();
        let expected = self.controllers[r.dc].optimize(cfg, r.dc, &hot, &r.background, &unused);
        let same = expected == r.chosen;
        if !same {
            self.problems.push(format!(
                "round {} (dc {}): placement differs from AcloudController::optimize",
                self.checked, r.dc
            ));
        }
        self.failed += u64::from(!same || !r.ok);
        self.checked += 1;
    }

    fn finish(self, out: &mut Outcome) {
        out.attempted += self.checked;
        out.failed += self.failed;
        for p in self.problems.into_iter().take(5) {
            out.problem(p);
        }
    }
}

/// Run intervals on `sim` and its successor populations until `done`
/// (given the intervals run so far) says stop; every population and every
/// interval's rounds go to `sink`. With `sample_setups`, a throwaway
/// set-up of the current population follows every interval, so set-up time
/// is sampled across the run rather than in one burst. Returns the
/// intervals run and the time the throwaway set-ups took.
#[allow(clippy::too_many_arguments)]
fn drive(
    seed: u64,
    mut sim: Sim,
    done: impl Fn(usize) -> bool,
    sample_setups: bool,
    tr: &mut Tracer,
    c: &mut Counters,
    s: &mut Samples,
    out: &mut Outcome,
    sink: &mut dyn FnMut(Batch),
) -> (usize, Duration) {
    let (mut population, mut intervals, mut op) = (0, 0, 0);
    let mut sampling = Duration::ZERO;
    sink(Batch::Population(sim.config.clone()));
    while !done(intervals) {
        if sim.interval == sim.config.intervals() {
            population += 1;
            let cfg = config(seed, population);
            let start = Instant::now();
            sim = Sim::new(&cfg, tr, s);
            s.setup_s.push(start.elapsed().as_secs_f64());
            sink(Batch::Population(cfg));
        }
        let rounds = sim.interval(&mut op, tr, c, s, out);
        s.ops += rounds.len() as u64;
        sink(Batch::Rounds(rounds));
        intervals += 1;
        if sample_setups {
            let start = Instant::now();
            let throwaway = Sim::new(&sim.config, tr, s);
            s.setup_s.push(start.elapsed().as_secs_f64());
            drop(throwaway);
            sampling += start.elapsed();
            s.calib.exclude(start.elapsed());
        }
    }
    (intervals, sampling)
}

fn chosen_digest(batches: &[Batch]) -> u64 {
    digest(batches.iter().flat_map(|b| {
        match b {
            Batch::Population(cfg) => vec![format!("population {}", cfg.seed)],
            Batch::Rounds(rounds) => rounds
                .iter()
                .map(|r| format!("{}:{:?}", r.dc, r.chosen))
                .collect(),
        }
    }))
}

fn describe(cfg: &AcloudConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("data_centers", Json::Num(cfg.data_centers as f64)),
        ("hosts_per_dc", Json::Num(cfg.hosts_per_dc as f64)),
        ("vms_per_host", Json::Num(cfg.vms_per_host as f64)),
        ("node_limit", Json::Num(cfg.solver_node_limit as f64)),
        ("interval_secs", Json::Num(cfg.interval_secs as f64)),
        ("population_intervals", Json::Num(cfg.intervals() as f64)),
        ("tail_pct", Json::Num(TAIL_PCT)),
        ("setups", Json::Num(SETUPS as f64)),
        ("trace_intervals", Json::Num(TRACE_INTERVALS as f64)),
    ]
}

/// The untraced run: set up `SETUPS` times, then run whole intervals for
/// `--seconds` (sampling a set-up after each) while a second thread checks
/// each finished round against the reference.
pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = config(ctx.seed, 0);
    let mut out = Outcome {
        params: describe(&cfg),
        ..Outcome::default()
    };
    let mut tr = Tracer::new(false);
    let mut c = Counters::default();
    let mut s = Samples::default();
    let mut sim = None;
    s.calib.tick();
    for _ in 0..SETUPS {
        let start = Instant::now();
        sim = Some(Sim::new(&cfg, &mut tr, &mut s));
        s.setup_s.push(start.elapsed().as_secs_f64());
    }
    let sim = sim.expect("at least one set-up");
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let (tx, rx) = std::sync::mpsc::channel::<Batch>();
    let (intervals, verifier) = std::thread::scope(|scope| {
        let checker = scope.spawn(move || {
            let mut v = Verifier::default();
            rx.iter().for_each(|batch| v.take(&batch));
            v
        });
        let start = Instant::now();
        let calibrating = s.calib.spent();
        let ref_start = s.calib.ref_elapsed_s();
        let window = Duration::from_secs(ctx.seconds);
        let mut send = |batch: Batch| {
            if let Batch::Rounds(rounds) = &batch {
                for r in rounds {
                    if r.cold { &mut cold_ms } else { &mut warm_ms }.push(r.op_ms);
                }
            }
            tx.send(batch).expect("the checker outlives the window")
        };
        let (intervals, sampling) = drive(
            ctx.seed,
            sim,
            |_| start.elapsed() >= window,
            true,
            &mut tr,
            &mut c,
            &mut s,
            &mut out,
            &mut send,
        );
        s.window_s = (start.elapsed() - sampling - (s.calib.spent() - calibrating)).as_secs_f64();
        s.window_ref_s = s.calib.ref_elapsed_s() - ref_start;
        drop(tx);
        (intervals, checker.join().expect("checker thread panicked"))
    });
    verifier.finish(&mut out);
    s.finish(&mut out, TAIL_PCT);
    out.report.push(format!(
        "acloud: {intervals} intervals, {} COP rounds, mean cpu stdev {:.3}",
        s.ops,
        crate::mean(&s.quality)
    ));
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(v)
        }
    };
    out.report.push(format!(
        "acloud: {} cold rounds ({:.1}%), op p50 cold {:.3} ms, warm {:.3} ms",
        cold_ms.len(),
        100.0 * cold_ms.len() as f64 / s.ops.max(1) as f64,
        p50(&cold_ms),
        p50(&warm_ms)
    ));
    out
}

/// The traced run: the same `TRACE_INTERVALS` intervals in untraced and
/// traced passes; their placements must be identical.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let cfg = config(ctx.seed, 0);
    let mut out = Outcome {
        params: describe(&cfg),
        ..Outcome::default()
    };
    let mut walls = [0.0; 2];
    let mut passes = Vec::new();
    for traced in crate::trace::PASSES {
        let mut tr = Tracer::new(traced);
        let mut c = Counters::default();
        let mut s = Samples::default();
        let mut batches = Vec::new();
        let sim = Sim::new(&cfg, &mut tr, &mut s);
        drive(
            ctx.seed,
            sim,
            |n| n >= TRACE_INTERVALS,
            false,
            &mut tr,
            &mut c,
            &mut s,
            &mut out,
            &mut |b| batches.push(b),
        );
        walls[usize::from(traced)] += s.converge_s.raw.iter().sum::<f64>();
        passes.push((tr.into_spans(), c, s, batches));
    }
    let (spans, c, s, batches) = passes.pop().expect("traced pass");
    if passes
        .iter()
        .any(|p| chosen_digest(&p.3) != chosen_digest(&batches))
    {
        out.problem("traced placements differ from the untraced run's".into());
    }
    let mut verifier = Verifier::default();
    batches.iter().for_each(|b| verifier.take(b));
    verifier.finish(&mut out);
    let summary = TraceSummary {
        ops: s.ops,
        untraced_wall_s: walls[0],
        traced_wall_s: walls[1],
        cpu_stdev_pct: crate::mean(&s.quality),
        throughput_mbps: 0.0,
        failed_ratio: out.failed as f64 / out.attempted.max(1) as f64,
    };
    out.metrics = crate::metrics::per_layer(&spans, &c, &summary);
    out.report.extend(crate::trace::self_time_table(
        &spans,
        s.converge_s.raw.iter().sum(),
    ));
    out.spans = spans;
    out
}
