//! `serve`: an in-process `cologne-serve` on loopback with the server
//! binary's `demo_config()` (the ACloud demo program, `Auto` bounds), loaded
//! by a closed loop over 2 tenant connections: one load thread serves the
//! connections in turn, so one request is in flight at a time; the load and
//! the server share one CPU while measuring (see [`Pin`]).
//!
//! A tenant is small (4 VMs on 2 hosts). Each cycle is an `Ingest` (one
//! delete plus one insert replacing a VM's CPU, with `sync`) followed by a
//! `Solve`; every `CYCLES_PER_SESSION` cycles the session says `Bye` and a
//! new one connects with fresh base facts. The wire, session and worker
//! path carries most of the time; search is tiny; this is the only workload
//! with the dual bound on.
//!
//! Checks: every solve must be feasible and equal (`normalized`) to an
//! in-process `Deployment::solve` of the same facts. An `Overloaded` reply
//! counts as a failed operation and is never retried.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cologne::datalog::{NodeId, Value};
use cologne::{Deployment, DeploymentBuilder, SolveRequest, SolveResponse};
use cologne_serve::{
    decode_client, decode_server, demo_config, encode_client, encode_server, Client, ClientError,
    ClientMsg, ErrorCode, IngestOp, Server, ServerMsg,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calib;
use crate::json::Json;
use crate::layers;
use crate::metrics::{Counters, Outcome, TraceSummary};
use crate::trace::{concat, Span, Tracer};
use crate::{digest, ms, Ctx, Samples};

/// The fixed tail percentile of this workload's latencies.
pub const TAIL_PCT: f64 = 95.0;
const CLIENTS: u64 = 2;
const VMS: usize = 4;
const HOSTS: i64 = 2;
const HOST_MEM_GB: i64 = 8;
const CYCLES_PER_SESSION: usize = 100;
/// Set-ups measured before timing (with those sampled every
/// `SETUP_EVERY` while timing, the median is `setup_s`).
const SETUPS: usize = 20;
/// How often the untraced loop samples a throwaway set-up.
const SETUP_EVERY: Duration = Duration::from_millis(150);
/// Cycles per connection in each pass of the traced run.
const TRACE_CYCLES: usize = 2000;
const NODE: NodeId = NodeId(0);

/// One tenant's facts: `vm(Vid,Cpu,Mem)`, `host(Hid,Cpu,Mem)`,
/// `hostMemThres(Hid,M)`.
#[derive(Debug, Clone)]
struct Tenant {
    vms: Vec<[i64; 3]>,
    hosts: Vec<[i64; 3]>,
}

impl Tenant {
    fn new(rng: &mut StdRng) -> Tenant {
        let vms = (0..VMS as i64)
            .map(|v| [v + 1, rng.gen_range(5i64..60), rng.gen_range(1i64..4)])
            .collect();
        let hosts = (0..HOSTS)
            .map(|h| [100 + h, rng.gen_range(0i64..30), 0])
            .collect();
        Tenant { vms, hosts }
    }

    /// The base facts as ingest batches; the last one syncs.
    fn batches(&self) -> Vec<(&'static str, Vec<Vec<Value>>, bool)> {
        let ints = |row: &[i64]| row.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        vec![
            ("vm", self.vms.iter().map(|r| ints(r)).collect(), false),
            ("host", self.hosts.iter().map(|r| ints(r)).collect(), false),
            (
                "hostMemThres",
                self.hosts
                    .iter()
                    .map(|r| ints(&[r[0], HOST_MEM_GB]))
                    .collect(),
                true,
            ),
        ]
    }

    /// Give one VM a new CPU load; returns the replaced and the new row.
    fn churn(&mut self, rng: &mut StdRng) -> (Vec<Value>, Vec<Value>) {
        let j = rng.gen_range(0..VMS);
        let old = self.vms[j];
        let mut cpu = rng.gen_range(5i64..60);
        while cpu == old[1] {
            cpu = rng.gen_range(5i64..60);
        }
        self.vms[j][1] = cpu;
        let row = |r: [i64; 3]| r.iter().map(|&v| Value::Int(v)).collect();
        (row(old), row(self.vms[j]))
    }
}

enum Reply {
    /// A solve's reply, kept as the digest of its normalized rendering; the
    /// full response is kept only by traced runs (for the codec replay).
    Solved {
        digest: u64,
        feasible: bool,
        response: Option<SolveResponse>,
    },
    /// `Overloaded`: a failed operation, not retried.
    Refused,
}

fn normalized_digest(response: &SolveResponse) -> u64 {
    digest(std::iter::once(response.normalized()))
}

struct Cycle {
    old: Vec<Value>,
    new: Vec<Value>,
    reply: Reply,
    wire_ns: u64,
}

struct Session {
    tenant: Tenant,
    cycles: Vec<Cycle>,
}

/// What one tenant connection did.
#[derive(Default)]
struct ClientLog {
    sessions: Vec<Session>,
    s: Samples,
    solves: u64,
    refused: u64,
    problems: Vec<String>,
}

/// What the closed loop did: a log per connection, its wall time (sampled
/// set-ups and calibration slices excluded) and the same on the calibrated
/// clock, the set-ups it sampled, the load thread's calibrator and its
/// spans.
struct Load {
    logs: Vec<ClientLog>,
    wall: Duration,
    wall_ref_s: f64,
    setup_s: Vec<f64>,
    calib: Calib,
    spans: Vec<Span>,
}

/// An open session with its tenant and load generator.
struct Tenancy {
    client: Client,
    tenant: Tenant,
}

fn open(addr: SocketAddr, rng: &mut StdRng, tr: &mut Tracer) -> Result<Tenancy, ClientError> {
    let tenant = Tenant::new(rng);
    let mut client = tr.span("serve", || Client::connect(addr))?;
    tr.span("serve", || client.hello("perfbench"))?;
    for (relation, rows, sync) in tenant.batches() {
        let ops = rows.into_iter().map(IngestOp::insert).collect();
        tr.span("serve", || client.ingest(NODE, relation, ops, sync))?;
    }
    Ok(Tenancy { client, tenant })
}

fn rng_of(seed: u64, client: u64) -> StdRng {
    StdRng::seed_from_u64(crate::mix(seed, client))
}

/// When the load stops.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(usize),
}

/// One tenant connection of the closed loop: its load generator, its open
/// session and what it did.
struct Lane {
    rng: StdRng,
    conn: Option<Tenancy>,
    /// When the open session was opened by the loop (`None` for the session
    /// opened during set-up).
    opened: Option<Instant>,
    session: Option<Session>,
    log: ClientLog,
}

impl Lane {
    fn new(rng: StdRng, conn: Option<Tenancy>) -> Lane {
        let session = conn.as_ref().map(|t| Session {
            tenant: t.tenant.clone(),
            cycles: Vec::new(),
        });
        Lane {
            rng,
            conn,
            opened: None,
            session,
            log: ClientLog::default(),
        }
    }

    /// One cycle (opening a session first when none is open): `Ingest`,
    /// then `Solve`, its times calibrated with `scale`. Returns false when
    /// the connection broke.
    fn cycle(&mut self, addr: SocketAddr, scale: f64, tr: &mut Tracer, traced: bool) -> bool {
        if self.conn.is_none() {
            let opened = Instant::now();
            match open(addr, &mut self.rng, tr) {
                Ok(t) => {
                    self.log.s.reopen_ms.push(ms(opened.elapsed()), scale);
                    self.session = Some(Session {
                        tenant: t.tenant.clone(),
                        cycles: Vec::new(),
                    });
                    self.conn = Some(t);
                    self.opened = Some(opened);
                }
                Err(e) => {
                    self.log.problems.push(format!("reopen failed: {e}"));
                    return false;
                }
            }
        }
        let (conn, session) = match (self.conn.as_mut(), self.session.as_mut()) {
            (Some(c), Some(s)) => (c, s),
            _ => unreachable!("a session is open"),
        };
        let (old, new) = conn.tenant.churn(&mut self.rng);
        let ops = vec![IngestOp::delete(old.clone()), IngestOp::insert(new.clone())];
        let client = &mut conn.client;
        let t0 = Instant::now();
        if let Err(e) = tr.span("serve", || client.ingest(NODE, "vm", ops, true)) {
            self.log.problems.push(format!("ingest failed: {e}"));
            return false;
        }
        let t1 = Instant::now();
        self.log.s.ingest_ms.push(ms(t1 - t0), scale);
        let reply = match tr.span("serve", || client.solve(&SolveRequest::all())) {
            Ok(response) => {
                self.log.s.op_ms.push(ms(t1.elapsed()), scale);
                self.log.solves += 1;
                Reply::Solved {
                    digest: normalized_digest(&response),
                    feasible: response.single().is_some_and(|r| r.feasible),
                    response: traced.then_some(response),
                }
            }
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                self.log.refused += 1;
                Reply::Refused
            }
            Err(e) => {
                self.log.problems.push(format!("solve failed: {e}"));
                return false;
            }
        };
        let wire_ns = t0.elapsed().as_nanos() as u64;
        if let (true, Some(opened)) = (session.cycles.is_empty(), self.opened) {
            self.log
                .s
                .converge_s
                .push(opened.elapsed().as_secs_f64(), scale);
        }
        session.cycles.push(Cycle {
            old,
            new,
            reply,
            wire_ns,
        });
        if session.cycles.len() == CYCLES_PER_SESSION {
            return self.close(tr);
        }
        true
    }

    /// Say `Bye` on the open session, if any, and file its log.
    fn close(&mut self, tr: &mut Tracer) -> bool {
        self.log.sessions.extend(self.session.take());
        match self.conn.take() {
            Some(t) => match tr.span("serve", || t.client.bye()) {
                Ok(()) => true,
                Err(e) => {
                    self.log.problems.push(format!("bye failed: {e}"));
                    false
                }
            },
            None => true,
        }
    }
}

/// The closed loop: one load thread cycles through the tenant connections
/// in turn, so one request is in flight at a time. With `sample_setups`
/// (the run's seed), a throwaway set-up is timed every `SETUP_EVERY`, so
/// set-up time is sampled across the run rather than in one burst; with
/// `calibrate`, the load thread runs calibration slices between cycles.
fn load(
    addr: SocketAddr,
    firsts: Vec<Option<Tenancy>>,
    rngs: Vec<StdRng>,
    stop: Stop,
    traced: bool,
    sample_setups: Option<u64>,
    calibrate: bool,
) -> Load {
    let mut tr = Tracer::new(traced);
    let mut lanes: Vec<Lane> = rngs
        .into_iter()
        .zip(firsts)
        .map(|(r, c)| Lane::new(r, c))
        .collect();
    let mut calib = if calibrate {
        Calib::with_echo().expect("the calibration echo binds on loopback")
    } else {
        Calib::default()
    };
    let start = Instant::now();
    let mut cycles = 0usize;
    let (mut setup_s, mut sampling, mut sampled) = (Vec::new(), Duration::ZERO, start);
    loop {
        if let Some(seed) = sample_setups.filter(|_| sampled.elapsed() >= SETUP_EVERY) {
            let t = Instant::now();
            let (server, firsts, _) = set_up(seed, &mut tr);
            setup_s.push(t.elapsed().as_secs_f64());
            tear_down(server, firsts);
            sampling += t.elapsed();
            calib.exclude(t.elapsed());
            sampled = Instant::now();
        }
        let done = match stop {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => cycles >= n * lanes.len(),
        };
        if done {
            break;
        }
        if calibrate {
            calib.tick();
        }
        let lane = &mut lanes[cycles % CLIENTS as usize];
        cycles += 1;
        tr.set_op(cycles as u64);
        if !lane.cycle(addr, calib.scale(), &mut tr, traced) {
            break;
        }
    }
    let wall = start.elapsed() - sampling - calib.spent();
    let wall_ref_s = calib.ref_elapsed_s();
    for lane in &mut lanes {
        lane.close(&mut tr);
    }
    Load {
        logs: lanes.into_iter().map(|l| l.log).collect(),
        wall,
        wall_ref_s,
        setup_s,
        calib,
        spans: tr.into_spans(),
    }
}

/// The in-process twin of one tenant session.
fn deployment(tr: &mut Tracer) -> Deployment {
    let cfg = demo_config();
    tr.span("colog", || {
        DeploymentBuilder::new(&cfg.program)
            .params(cfg.params.clone())
            .build()
            .expect("the demo program deploys")
    })
}

/// Result of replaying one connection's log in process.
#[derive(Default)]
struct Replay {
    failed: u64,
    problems: Vec<String>,
    counters: Counters,
    spans: Vec<Span>,
}

/// Replay every session of `log` in process: apply the same facts, solve
/// the same requests, and compare each reply with the wire's.
fn replay(log: &ClientLog, traced: bool) -> Replay {
    let mut tr = Tracer::new(traced);
    let mut r = Replay::default();
    let c = &mut r.counters;
    let mut wire_ns = 0u64;
    let mut local_ns = 0u64;
    for (si, session) in log.sessions.iter().enumerate() {
        let mut dep = deployment(&mut tr);
        tr.span("datalog", || {
            for (relation, rows, _) in session.tenant.batches() {
                let mut handle = dep.handle(NODE, relation).expect("demo relation");
                for row in rows {
                    handle.insert(row).expect("demo row");
                }
            }
        });
        layers::sync(&mut dep, NODE, &mut tr);
        for (ci, cycle) in session.cycles.iter().enumerate() {
            tr.set_op(ci as u64 + 1);
            let (d0, u0) = layers::engine_counts(dep.instance(NODE).expect("single node"));
            let start = Instant::now();
            tr.span("datalog", || {
                let mut handle = dep.handle(NODE, "vm").expect("demo relation");
                handle.delete(cycle.old.clone()).expect("demo row");
                handle.insert(cycle.new.clone()).expect("demo row");
            });
            layers::sync(&mut dep, NODE, &mut tr);
            let Reply::Solved {
                digest,
                feasible,
                response,
            } = &cycle.reply
            else {
                r.failed += 1;
                r.problems
                    .push(format!("session {si} cycle {ci}: Overloaded"));
                continue;
            };
            // Only the traced replay stages the solve for the layer spans; the
            // untraced one checks the plain `Deployment::solve` path.
            let bound_ns = if traced {
                layers::ground(dep.instance_mut(NODE).expect("single node"), &mut tr, c)
            } else {
                0
            };
            let span = tr.begin("invoke");
            let local = dep.solve(&SolveRequest::all());
            tr.end(span);
            local_ns += (start.elapsed().as_nanos() as u64).saturating_sub(bound_ns);
            wire_ns += cycle.wire_ns;
            let local = match local {
                Ok(local) => local,
                Err(e) => {
                    r.failed += 1;
                    r.problems
                        .push(format!("session {si} cycle {ci}: local solve failed: {e}"));
                    continue;
                }
            };
            for report in local.reports.values() {
                layers::solved(&mut tr, span, report, bound_ns, c);
            }
            let (d1, u1) = layers::engine_counts(dep.instance(NODE).expect("single node"));
            c.derivations += d1 - d0;
            c.updates += u1 - u0;
            if !feasible || *digest != normalized_digest(&local) {
                r.failed += 1;
                r.problems.push(format!(
                    "session {si} cycle {ci}: {}",
                    if *feasible {
                        "reply differs from the in-process solve"
                    } else {
                        "infeasible reply"
                    }
                ));
            }
            if let Some(wire) = response {
                c.codec_ns += codec_ns(cycle, wire);
            }
        }
    }
    c.serve_overhead_ns = wire_ns as f64 - local_ns as f64;
    r.spans = tr.into_spans();
    r
}

/// Encode and decode the four frames of one cycle, as both ends do.
fn codec_ns(cycle: &Cycle, wire: &SolveResponse) -> u64 {
    let start = Instant::now();
    let ingest = ClientMsg::Ingest {
        node: NODE,
        relation: "vm".into(),
        ops: vec![
            IngestOp::delete(cycle.old.clone()),
            IngestOp::insert(cycle.new.clone()),
        ],
        sync: true,
    };
    let solve_ok = ServerMsg::SolveOk {
        reports: wire.reports.clone().into_iter().collect(),
        dropped_events: 0,
    };
    for msg in [ingest, ClientMsg::Solve(SolveRequest::all())] {
        black_box(decode_client(&encode_client(&msg)).expect("client frame round-trips"));
    }
    for msg in [ServerMsg::IngestOk { applied: 2 }, solve_ok] {
        black_box(decode_server(&encode_server(&msg)).expect("server frame round-trips"));
    }
    start.elapsed().as_nanos() as u64
}

fn replies_digest(log: &ClientLog) -> u64 {
    digest(
        log.sessions
            .iter()
            .flat_map(|s| &s.cycles)
            .map(|c| match &c.reply {
                Reply::Solved { digest, .. } => digest.to_string(),
                Reply::Refused => "refused".to_string(),
            }),
    )
}

/// Replay all logs and fold the checks into `out`. A traced replay runs on
/// the calling thread, under the same conditions as the wire loop it is
/// compared with; an untraced one only checks, one thread per log.
fn check(logs: &[ClientLog], traced: bool, out: &mut Outcome) -> (Counters, Vec<Vec<Span>>) {
    let replays: Vec<Replay> = if traced {
        logs.iter().map(|log| replay(log, true)).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = logs
                .iter()
                .map(|log| scope.spawn(move || replay(log, false)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        })
    };
    let mut counters = Counters::default();
    let mut spans = Vec::new();
    for (log, r) in logs.iter().zip(replays) {
        out.attempted += log.solves + log.refused;
        out.failed += r.failed;
        for p in log.problems.iter().chain(&r.problems).take(5) {
            out.problem(p.clone());
        }
        counters.add(&r.counters);
        counters.refused += log.refused;
        spans.push(r.spans);
    }
    (counters, spans)
}

fn describe() -> Vec<(&'static str, Json)> {
    vec![
        ("connections", Json::Num(CLIENTS as f64)),
        ("vms_per_tenant", Json::Num(VMS as f64)),
        ("hosts_per_tenant", Json::Num(HOSTS as f64)),
        ("cycles_per_session", Json::Num(CYCLES_PER_SESSION as f64)),
        ("loop", Json::str("closed")),
        ("bound_mode", Json::str("auto")),
        ("tail_pct", Json::Num(TAIL_PCT)),
        ("setups", Json::Num(SETUPS as f64)),
        ("setup_every_ms", Json::Num(ms(SETUP_EVERY))),
        (
            "trace_cycles_per_connection",
            Json::Num(TRACE_CYCLES as f64),
        ),
    ]
}

/// The load, the server and its threads share one CPU while measuring.
///
/// On a 2-vCPU VM, every hand-off between the load thread, the session
/// thread and the solve worker that crosses CPUs waits for the host to wake
/// the other vCPU. That wake-up took about 70% of an `Ingest` round trip,
/// and when the host was busy it halved solves per second and multiplied
/// the tail by 5 between consecutive runs; on one CPU the same runs stayed
/// within 12%. The measurement is the request path, not the host's vCPU
/// wake-up latency. Threads inherit the affinity of the thread that spawns
/// them, so pinning the main thread before binding pins the server too.
struct Pin {
    /// The CPU list to restore, as `taskset` takes it.
    allowed: String,
    cpu: String,
}

impl Pin {
    /// Pin the calling (main) thread to the first CPU it may run on, with
    /// `taskset`; `None` when that is not possible here.
    fn first_cpu() -> Option<Pin> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
            .trim()
            .to_string();
        let cpu = allowed
            .split([',', '-'])
            .next()
            .filter(|c| !c.is_empty())?
            .to_string();
        set_affinity(&cpu).then_some(Pin { allowed, cpu })
    }

    /// Let the calling thread (and the threads it spawns next) use every
    /// CPU again.
    fn release(self) {
        set_affinity(&self.allowed);
    }
}

/// Set the CPU list of the calling process's main thread.
fn set_affinity(cpus: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn pinned_param(pin: &Option<Pin>) -> (&'static str, Json) {
    (
        "pinned_cpu",
        pin.as_ref()
            .map_or(Json::Null, |p| Json::str(p.cpu.clone())),
    )
}

fn bind() -> Server {
    Server::bind("127.0.0.1:0", demo_config()).expect("the demo server binds on loopback")
}

/// One set-up: bind a server and open the first session of every client.
fn set_up(seed: u64, tr: &mut Tracer) -> (Server, Vec<Tenancy>, Vec<StdRng>) {
    let server = bind();
    let mut rngs: Vec<StdRng> = (0..CLIENTS).map(|c| rng_of(seed, c)).collect();
    let firsts = rngs
        .iter_mut()
        .map(|rng| open(server.local_addr(), rng, tr).expect("first session opens"))
        .collect();
    (server, firsts, rngs)
}

/// Close a set-up that is not used.
fn tear_down(server: Server, firsts: Vec<Tenancy>) {
    for t in firsts {
        t.client.bye().expect("set-up session closes");
    }
    server.shutdown();
}

/// The untraced run: `SETUPS` timed set-ups (bind, and open the first
/// session of every client), the closed loop for `--seconds` (sampling more
/// set-ups), then the in-process check of every reply.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        params: describe(),
        ..Outcome::default()
    };
    let pin = Pin::first_cpu();
    out.params.push(pinned_param(&pin));
    let mut s = Samples::default();
    let mut tr = Tracer::new(false);
    let mut kept = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let set = set_up(ctx.seed, &mut tr);
        s.setup_s.push(start.elapsed().as_secs_f64());
        if let Some((server, firsts, _)) = kept.replace(set) {
            tear_down(server, firsts);
        }
    }
    let (server, firsts, rngs) = kept.expect("at least one set-up");
    let stop = Stop::At(Instant::now() + Duration::from_secs(ctx.seconds));
    let Load {
        logs,
        wall,
        wall_ref_s,
        setup_s,
        calib,
        ..
    } = load(
        server.local_addr(),
        firsts.into_iter().map(Some).collect(),
        rngs,
        stop,
        false,
        Some(ctx.seed),
        true,
    );
    s.setup_s.extend(setup_s);
    s.calib = calib;
    let stats = server.stats();
    server.shutdown();
    if let Some(pin) = pin {
        pin.release();
    }
    for log in &logs {
        s.op_ms.extend(&log.s.op_ms);
        s.ingest_ms.extend(&log.s.ingest_ms);
        s.reopen_ms.extend(&log.s.reopen_ms);
        s.converge_s.extend(&log.s.converge_s);
        s.ops += log.solves;
    }
    s.window_s = wall.as_secs_f64();
    s.window_ref_s = wall_ref_s;
    let (c, _) = check(&logs, false, &mut out);
    s.finish(&mut out, TAIL_PCT);
    out.report.push(format!(
        "serve: {} solves, {} refused, {} sessions, server solves {} overloaded {}",
        s.ops,
        c.refused,
        logs.iter().map(|l| l.sessions.len()).sum::<usize>(),
        stats.solves,
        stats.overloaded
    ));
    out
}

/// The traced run: `TRACE_CYCLES` cycles per connection in untraced and
/// traced passes; the replies must be identical. The in-process replay of
/// the traced cycles gives the layers below the wire their spans.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        params: describe(),
        ..Outcome::default()
    };
    let pin = Pin::first_cpu();
    out.params.push(pinned_param(&pin));
    let server = bind();
    let mut walls = [0.0; 2];
    let mut passes = Vec::new();
    for traced in crate::trace::PASSES {
        let rngs = (0..CLIENTS).map(|c| rng_of(ctx.seed, c)).collect();
        let firsts = (0..CLIENTS).map(|_| None).collect();
        let pass = load(
            server.local_addr(),
            firsts,
            rngs,
            Stop::After(TRACE_CYCLES),
            traced,
            None,
            false,
        );
        walls[usize::from(traced)] += pass.wall.as_secs_f64();
        passes.push(pass);
    }
    server.shutdown();
    let traced = passes.pop().expect("traced pass");
    let same = |p: &Load| {
        p.logs
            .iter()
            .zip(&traced.logs)
            .all(|(a, b)| replies_digest(a) == replies_digest(b))
    };
    if !passes.iter().all(same) {
        out.problem("traced replies differ from the untraced run's".into());
    }
    let (c, replay_spans) = check(&traced.logs, true, &mut out);
    if let Some(pin) = pin {
        pin.release();
    }
    let ops = traced.logs.iter().map(|l| l.solves).sum();
    let spans = concat(std::iter::once(traced.spans).chain(replay_spans).collect());
    let summary = TraceSummary {
        ops,
        untraced_wall_s: walls[0],
        traced_wall_s: walls[1],
        cpu_stdev_pct: 0.0,
        throughput_mbps: 0.0,
        failed_ratio: out.failed as f64 / out.attempted.max(1) as f64,
    };
    out.metrics = crate::metrics::per_layer(&spans, &c, &summary);
    out.report.extend(crate::trace::self_time_table(
        &spans,
        traced.wall.as_secs_f64(),
    ));
    out.spans = spans;
    out
}
