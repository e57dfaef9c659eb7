//! COP identity of grounding: for fixed seeded inputs of every paper
//! program (ACloud, ACloud-M with its `(V==1)==(C==1)` indicator pattern,
//! both Follow-the-Sun formulations, one wireless negotiation node, the
//! centralized wireless program with its symmetry rule), the serve demo
//! program, and larger ACloud and wireless inputs with multi-row joins,
//! the grounded COP must not change. Each
//! input is grounded once from scratch and once incrementally (grounded,
//! recycled, then re-grounded after a one-tuple delta), and a digest of
//! the [`GroundedCop`] is compared with [`FIXTURE`].
//!
//! The digest covers every variable (name, bounds, domain size, decision
//! mark), every propagator (name, dependencies, linear view), the symbol
//! table, the solver tables (rows and order) and the objective, plus the
//! objective, node and fail counts of a cold exact solve under a node
//! budget. A change to the grounder that reorders variables or
//! propagators, renames a variable or posts a different constraint shows up
//! here even when the optimum stays the same.
//!
//! # How the fixture was recorded
//!
//! [`FIXTURE`] was recorded at commit `a702e8a`, whose grounder interpreted
//! the solver rules over name-keyed bindings with nested-loop joins: this
//! file was run there with an empty fixture, and the rows it printed on
//! mismatch were pasted in. Both modes of a case must match the same
//! state's row, which also pins the incremental-equals-full invariant.
//! One recorded row broke it: at `a702e8a` the incremental `acloud_pinned`
//! grounding handed back the previous COP (43 propagators, still pinning
//! the deleted `pin` row), because a constraint rule's head relation did
//! not count as read. Its fixture row is the from-scratch one, as the
//! invariant demands.

use std::fmt::Write as _;

use cologne::datalog::{NodeId, Value};
use cologne::solver::SearchConfig;
use cologne::{CologneInstance, GroundedCop, ProgramParams, VarDomain};
use cologne_usecases::programs::{
    acloud_with_migration_limit, followsun_with_migration_limit, ACLOUD_CENTRALIZED,
    FOLLOWSUN_CENTRALIZED, WIRELESS_CENTRALIZED, WIRELESS_DISTRIBUTED,
};

/// Node budget of the cold exact solve in the digest.
const NODE_LIMIT: u64 = 3_000;

/// One grounded input: `(case, mode, variables, propagators, digest,
/// objective, nodes, fails)`.
type Row = (
    &'static str,
    &'static str,
    usize,
    usize,
    u64,
    Option<i64>,
    u64,
    u64,
);

#[rustfmt::skip]
const FIXTURE: &[Row] = &[
    ("acloud", "full", 27, 18, 0x642b75200e7d5b47, Some(24), 98, 93),
    ("acloud", "incremental", 27, 18, 0x642b75200e7d5b47, Some(24), 98, 93),
    ("acloud_m", "full", 48, 42, 0x659bdc4052810675, Some(162), 58, 47),
    ("acloud_m", "incremental", 48, 42, 0x659bdc4052810675, Some(162), 58, 47),
    ("followsun_centralized", "full", 36, 38, 0x75fb382037058303, Some(19), 183, 184),
    ("followsun_centralized", "incremental", 36, 38, 0x75fb382037058303, Some(19), 183, 184),
    ("followsun_distributed", "full", 14, 23, 0x6a6b924b70549a06, Some(16), 7, 2),
    ("followsun_distributed", "incremental", 14, 23, 0x6a6b924b70549a06, Some(16), 7, 2),
    ("wireless", "full", 74, 76, 0xca01a5137828878e, Some(5), 15, 6),
    ("wireless", "incremental", 74, 76, 0xca01a5137828878e, Some(5), 15, 6),
    ("wireless_centralized", "full", 95, 106, 0x652430494c6cd957, Some(6), 21, 18),
    ("wireless_centralized", "incremental", 95, 106, 0x652430494c6cd957, Some(6), 21, 18),
    ("serve_demo", "full", 13, 12, 0x79cdbbb964c99301, Some(729), 10, 5),
    ("serve_demo", "incremental", 13, 12, 0x79cdbbb964c99301, Some(729), 10, 5),
    ("acloud_large", "full", 111, 40, 0xaa1932dd6a112842, None, 3000, 2994),
    ("acloud_large", "incremental", 111, 40, 0xaa1932dd6a112842, None, 3000, 2994),
    ("acloud_pinned", "full", 107, 42, 0xdadca9fe9dc39e57, None, 15, 16),
    ("acloud_pinned", "incremental", 107, 42, 0xdadca9fe9dc39e57, None, 15, 16),
    ("wireless_grid", "full", 254, 274, 0x779868ca1d2d38db, Some(12), 2725, 4340),
    ("wireless_grid", "incremental", 254, 274, 0x779868ca1d2d38db, Some(12), 2725, 4340),
];

/// A seeded input: a program, its parameters and the node it runs on, the
/// base facts, and the one-tuple delta applied on top of them.
struct Case {
    name: &'static str,
    source: String,
    params: ProgramParams,
    node: NodeId,
    facts: Vec<(&'static str, Vec<Value>)>,
    delta: Delta,
}

/// A one-tuple change to a relation.
enum Delta {
    Insert(&'static str, Vec<Value>),
    Delete(&'static str, Vec<Value>),
}

/// A small deterministic generator (64-bit LCG), so the inputs do not
/// depend on any external random number crate.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as i64
    }
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn addr(n: u32) -> Value {
    Value::Addr(NodeId(n))
}

/// The last fact of `relation` (the target of a delete delta).
fn last_row(facts: &[(&'static str, Vec<Value>)], relation: &str) -> Vec<Value> {
    facts
        .iter()
        .rev()
        .find(|(rel, _)| *rel == relation)
        .map(|(_, row)| row.clone())
        .expect("the relation has facts")
}

/// ACloud facts: `vms` hot VMs over `hosts` hosts; host background load is a
/// float, so grounding's `Float` rounding is exercised.
fn acloud_facts(rng: &mut Lcg, vms: i64, hosts: i64) -> Vec<(&'static str, Vec<Value>)> {
    let mut facts = Vec::new();
    for vid in 1..=vms {
        let cpu = 20 + rng.below(70);
        facts.push(("vm", vec![int(vid), int(cpu), int(1 + rng.below(2))]));
    }
    for hid in 100..100 + hosts {
        let background = rng.below(400) as f64 / 10.0;
        facts.push(("host", vec![int(hid), Value::float(background), int(0)]));
        facts.push(("hostMemThres", vec![int(hid), int(3 + rng.below(2))]));
    }
    facts
}

fn acloud_case() -> Case {
    let mut rng = Lcg(7);
    Case {
        name: "acloud",
        source: ACLOUD_CENTRALIZED.to_string(),
        params: ProgramParams::new().with_var_domain("assign", VarDomain::BOOL),
        node: NodeId(0),
        facts: acloud_facts(&mut rng, 5, 3),
        delta: Delta::Insert("vm", vec![int(6), int(55), int(1)]),
    }
}

fn acloud_m_case() -> Case {
    let mut rng = Lcg(11);
    let mut facts = acloud_facts(&mut rng, 5, 3);
    for vid in 1..=5 {
        facts.push(("origin", vec![int(vid), int(100 + rng.below(3))]));
    }
    let dropped = last_row(&facts, "origin");
    Case {
        name: "acloud_m",
        source: acloud_with_migration_limit(),
        params: ProgramParams::new()
            .with_var_domain("assign", VarDomain::BOOL)
            .with_constant("max_migrates", 2),
        node: NodeId(0),
        facts,
        // `origin` is not the `forall` relation: the incremental run replays
        // the `assign` declaration.
        delta: Delta::Delete("origin", dropped),
    }
}

fn followsun_centralized_case() -> Case {
    let mut rng = Lcg(23);
    let dcs = 3i64;
    let mut facts = Vec::new();
    for x in 0..dcs {
        for y in 0..dcs {
            if x != y {
                facts.push(("link", vec![int(x), int(y)]));
                facts.push(("migCost", vec![int(x), int(y), int(1 + rng.below(4))]));
            }
        }
        facts.push(("opCost", vec![int(x), int(1 + rng.below(5))]));
        facts.push(("resource", vec![int(x), int(6 + rng.below(4))]));
        for d in 0..2 {
            facts.push(("curVm", vec![int(x), int(d), int(rng.below(4))]));
            facts.push(("commCost", vec![int(x), int(d), int(1 + rng.below(6))]));
        }
    }
    for d in 0..2 {
        facts.push(("demand", vec![int(d), int(5)]));
    }
    let dropped = last_row(&facts, "resource");
    Case {
        name: "followsun_centralized",
        source: FOLLOWSUN_CENTRALIZED.to_string(),
        params: ProgramParams::new().with_var_domain("migVm", VarDomain::new(-2, 2)),
        node: NodeId(0),
        facts,
        delta: Delta::Delete("resource", dropped),
    }
}

fn followsun_distributed_case() -> Case {
    let mut rng = Lcg(29);
    let me = 1u32;
    let mut facts = Vec::new();
    for y in [0u32, 2] {
        facts.push(("setLink", vec![addr(me), addr(y)]));
        facts.push(("link", vec![addr(y), addr(me)]));
        facts.push(("migCost", vec![addr(me), addr(y), int(1 + rng.below(4))]));
        facts.push(("opCost", vec![addr(y), int(1 + rng.below(5))]));
        facts.push(("resource", vec![addr(y), int(6 + rng.below(4))]));
        for d in 0..2 {
            facts.push(("curVm", vec![addr(y), int(d), int(rng.below(4))]));
            facts.push(("commCost", vec![addr(y), int(d), int(1 + rng.below(6))]));
        }
    }
    facts.push(("opCost", vec![addr(me), int(1 + rng.below(5))]));
    facts.push(("resource", vec![addr(me), int(8)]));
    for d in 0..2 {
        facts.push(("dc", vec![addr(me), int(d)]));
        facts.push(("curVm", vec![addr(me), int(d), int(rng.below(4))]));
        facts.push(("commCost", vec![addr(me), int(d), int(1 + rng.below(6))]));
    }
    let dropped = last_row(&facts, "migCost");
    Case {
        name: "followsun_distributed",
        source: followsun_with_migration_limit(),
        params: ProgramParams::new()
            .with_var_domain("migVm", VarDomain::new(-2, 2))
            .with_constant("max_migrates", 3),
        node: NodeId(me),
        facts,
        delta: Delta::Delete("migCost", dropped),
    }
}

fn wireless_case() -> Case {
    let mut rng = Lcg(41);
    let me = 4u32;
    let mut facts = Vec::new();
    for y in [1u32, 5, 7] {
        facts.push(("link", vec![addr(me), addr(y)]));
        facts.push(("setLink", vec![addr(me), addr(y)]));
    }
    facts.push(("primaryUser", vec![addr(me), int(1 + rng.below(4))]));
    for (z, w) in [(1u32, 2u32), (1, 3), (5, 6), (7, 8), (7, 1)] {
        facts.push((
            "nborChosen",
            vec![addr(me), addr(z), addr(w), int(1 + rng.below(4))],
        ));
    }
    for y in [5u32, 7] {
        facts.push((
            "nborPrimaryUser",
            vec![addr(me), addr(y), int(1 + rng.below(4))],
        ));
    }
    facts.push(("chosen", vec![addr(me), addr(9), int(1 + rng.below(4))]));
    Case {
        name: "wireless",
        source: WIRELESS_DISTRIBUTED.to_string(),
        params: ProgramParams::new()
            .with_var_domain("assign", VarDomain::new(1, 4))
            .with_constant("F_mindiff", 2),
        node: NodeId(me),
        facts,
        delta: Delta::Insert("nborChosen", vec![addr(me), addr(5), addr(3), int(2)]),
    }
}

/// The centralized wireless program: its `c2` symmetry rule equates two
/// symbolic channels where a join clashes, and `UNIQUE` materializes them.
fn wireless_centralized_case() -> Case {
    let mut rng = Lcg(47);
    let mut facts = Vec::new();
    for (a, b) in [(0i64, 1i64), (1, 2), (2, 3), (3, 0), (0, 2)] {
        facts.push(("link", vec![int(a), int(b)]));
        facts.push(("link", vec![int(b), int(a)]));
    }
    for n in 0..4 {
        facts.push(("numInterface", vec![int(n), int(2)]));
    }
    facts.push(("primaryUser", vec![int(1), int(1 + rng.below(4))]));
    facts.push(("primaryUser", vec![int(3), int(1 + rng.below(4))]));
    Case {
        name: "wireless_centralized",
        source: WIRELESS_CENTRALIZED.to_string(),
        params: ProgramParams::new()
            .with_var_domain("assign", VarDomain::new(1, 4))
            .with_constant("F_mindiff", 2),
        node: NodeId(0),
        facts,
        delta: Delta::Insert("primaryUser", vec![int(2), int(1 + rng.below(4))]),
    }
}

/// Larger inputs, so joins extend many bindings by many tuples: an ACloud
/// DC (checked positions in derivation rules) and a 3×3 wireless grid (the
/// symmetry rule checks a symbolic channel column).
fn acloud_large_case() -> Case {
    let mut rng = Lcg(59);
    Case {
        name: "acloud_large",
        source: ACLOUD_CENTRALIZED.to_string(),
        params: ProgramParams::new().with_var_domain("assign", VarDomain::BOOL),
        node: NodeId(0),
        facts: acloud_facts(&mut rng, 24, 4),
        delta: Delta::Insert("vm", vec![int(25), int(40), int(1)]),
    }
}

/// ACloud with a constraint rule that pins chosen assignments: its
/// `assign(Vid,Hid,V)` join checks a concrete `V` against the symbolic
/// column, which posts an equality per matching row instead of rejecting
/// it.
fn acloud_pinned_case() -> Case {
    let mut rng = Lcg(67);
    let mut facts = acloud_facts(&mut rng, 24, 4);
    for (vid, hid, v) in [(3, 101, 1), (7, 100, 0), (11, 102, 1), (20, 103, 0)] {
        facts.push(("pin", vec![int(vid), int(hid), int(v)]));
    }
    Case {
        name: "acloud_pinned",
        source: format!("{ACLOUD_CENTRALIZED}\nc9 pin(Vid,Hid,V) -> assign(Vid,Hid,V)."),
        params: ProgramParams::new().with_var_domain("assign", VarDomain::BOOL),
        node: NodeId(0),
        facts,
        delta: Delta::Delete("pin", vec![int(7), int(100), int(0)]),
    }
}

fn wireless_grid_case() -> Case {
    let mut rng = Lcg(61);
    let mut facts = Vec::new();
    for n in 0..9i64 {
        for m in [n + 1, n + 3] {
            if m < 9 && (m == n + 3 || n % 3 != 2) {
                facts.push(("link", vec![int(n), int(m)]));
                facts.push(("link", vec![int(m), int(n)]));
            }
        }
        facts.push(("numInterface", vec![int(n), int(2)]));
    }
    for n in [1i64, 4, 6] {
        facts.push(("primaryUser", vec![int(n), int(1 + rng.below(4))]));
    }
    Case {
        name: "wireless_grid",
        source: WIRELESS_CENTRALIZED.to_string(),
        params: ProgramParams::new()
            .with_var_domain("assign", VarDomain::new(1, 4))
            .with_constant("F_mindiff", 2),
        node: NodeId(0),
        facts,
        delta: Delta::Insert("primaryUser", vec![int(8), int(1 + rng.below(4))]),
    }
}

fn serve_case() -> Case {
    let mut rng = Lcg(53);
    let mut facts = Vec::new();
    for vid in 1..=4 {
        facts.push(("vm", vec![int(vid), int(10 + rng.below(60)), int(1)]));
    }
    for hid in 1..=2 {
        facts.push(("host", vec![int(hid), int(rng.below(30)), int(0)]));
        facts.push(("hostMemThres", vec![int(hid), int(4)]));
    }
    let dropped = last_row(&facts, "vm");
    Case {
        name: "serve_demo",
        source: cologne_serve::ACLOUD_DEMO.to_string(),
        params: cologne_serve::demo_config().params,
        node: NodeId(0),
        facts,
        delta: Delta::Delete("vm", dropped),
    }
}

fn cases() -> Vec<Case> {
    vec![
        acloud_case(),
        acloud_m_case(),
        followsun_centralized_case(),
        followsun_distributed_case(),
        wireless_case(),
        wireless_centralized_case(),
        serve_case(),
        acloud_large_case(),
        acloud_pinned_case(),
        wireless_grid_case(),
    ]
}

fn load(inst: &mut CologneInstance, facts: &[(&'static str, Vec<Value>)]) {
    for (rel, row) in facts {
        inst.relation(rel)
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .insert(row.clone())
            .unwrap_or_else(|e| panic!("{rel} {row:?}: {e}"));
    }
}

fn apply(inst: &mut CologneInstance, delta: &Delta) {
    match delta {
        Delta::Insert(rel, row) => inst.relation(rel).unwrap().insert(row.clone()).unwrap(),
        Delta::Delete(rel, row) => {
            inst.run_rules();
            assert!(inst.contains(rel, row), "delta deletes a missing {rel} row");
            inst.relation(rel).unwrap().delete(row.clone()).unwrap()
        }
    }
}

/// FNV-1a over the rendered COP: stable across toolchains, unlike the
/// standard library's hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Render everything the grounder produces, in model order.
fn render(cop: &GroundedCop) -> String {
    let model = &cop.model;
    let decisions = model.decision_vars();
    let mut s = String::new();
    for i in 0..model.num_vars() {
        let v = cologne::solver::VarId::from_index(i);
        let d = model.domain(v);
        writeln!(
            s,
            "var {i} {:?} [{}, {}] #{} decision={}",
            model.var_name(v),
            d.min(),
            d.max(),
            d.size(),
            decisions.contains(&v)
        )
        .unwrap();
    }
    for p in model.propagators() {
        writeln!(
            s,
            "prop {} {:?} {:?}",
            p.name(),
            p.dependencies(),
            p.linear_view()
        )
        .unwrap();
    }
    for (i, sym) in cop.syms.iter().enumerate() {
        writeln!(s, "sym {i} {sym:?}").unwrap();
    }
    for (table, rows) in &cop.solver_tables {
        writeln!(s, "table {table} {rows:?}").unwrap();
    }
    writeln!(s, "objective {:?} {:?}", cop.objective, cop.goal_relation).unwrap();
    s
}

/// The fixture row for one grounded COP.
fn observe(case: &str, mode: &'static str, cop: &GroundedCop) -> Observed {
    let config = SearchConfig {
        node_limit: Some(NODE_LIMIT),
        ..SearchConfig::default()
    };
    let outcome = cop.solve(&config);
    Observed {
        case: case.to_string(),
        mode,
        vars: cop.model.num_vars(),
        props: cop.model.num_propagators(),
        digest: fnv1a(&render(cop)),
        objective: outcome.best_objective,
        nodes: outcome.stats.nodes,
        fails: outcome.stats.fails,
    }
}

/// A grounded input as observed by this run (owned twin of [`Row`]).
#[derive(Debug, PartialEq)]
struct Observed {
    case: String,
    mode: &'static str,
    vars: usize,
    props: usize,
    digest: u64,
    objective: Option<i64>,
    nodes: u64,
    fails: u64,
}

fn ground_case(case: &Case) -> Vec<Observed> {
    let fresh = || {
        CologneInstance::new(case.node, &case.source, case.params.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name))
    };
    // From scratch: base facts plus the delta, grounded once.
    let mut full = fresh();
    load(&mut full, &case.facts);
    apply(&mut full, &case.delta);
    let cop = full.ground_only().expect("grounds");
    let from_scratch = observe(case.name, "full", &cop);
    // Incrementally: ground the base facts, recycle, apply the delta and
    // ground again (a delta-aware grounding with `var`-declaration replay).
    let mut inc = fresh();
    load(&mut inc, &case.facts);
    let first = inc.ground_only().expect("grounds");
    inc.recycle(first);
    apply(&mut inc, &case.delta);
    let cop = inc.ground_only().expect("grounds");
    assert!(
        inc.pipeline_stats().incremental_builds >= 1,
        "{}",
        case.name
    );
    let incremental = observe(case.name, "incremental", &cop);
    vec![from_scratch, incremental]
}

/// The observed rows in the literal syntax of [`FIXTURE`].
fn render_rows(rows: &[Observed]) -> String {
    let mut s = String::new();
    for r in rows {
        writeln!(
            s,
            "    ({:?}, {:?}, {}, {}, 0x{:016x}, {:?}, {}, {}),",
            r.case, r.mode, r.vars, r.props, r.digest, r.objective, r.nodes, r.fails
        )
        .unwrap();
    }
    s
}

/// Extra facts of an error case: relation and integer columns (a `label`
/// fact also gets a string column).
type Facts = &'static [(&'static str, &'static [i64])];

/// Grounding outcomes of rules that fail, or only fail on some data:
/// `(extra rules appended to the ACloud program, extra facts, outcome)`.
/// The outcome is the error's `Debug` text, or the model size and digest
/// when the grounding succeeds. Recorded at the same commit as
/// [`FIXTURE`], with the outcome column filled in from the printed rows.
type ErrorRow = (&'static str, Facts, &'static str);

#[rustfmt::skip]
const ERROR_FIXTURE: &[ErrorRow] = &[
    ("d9 half(Hid,SUM<H>) <- assign(Vid,Hid,V), H==V/2.", &[], "UnsupportedExpression { rule: \"d9\", detail: \"division involving solver variables\" }"),
    ("d9 tag(Vid,SUM<C>) <- assign(Vid,Hid,V), label(Vid,L), C==V*L.", &[], "ok 24 vars 17 props digest 0x48d3dd5ce7aab571"),
    ("d9 tag(Vid,SUM<C>) <- assign(Vid,Hid,V), label(Vid,L), C==V*L.", &[("label", &[2])], "UnsupportedExpression { rule: \"d9\", detail: \"value \\\"x\\\" in arithmetic expression\" }"),
    ("c9 assign(Vid,Hid,V) -> V+1.", &[], "UnsupportedExpression { rule: \"c9\", detail: \"non-boolean expression used as a condition\" }"),
    ("c9 assign(Vid,Hid,V) -> V<=Q.", &[], "UnboundVariable { rule: \"c9\", variable: \"Q\" }"),
    ("d9 spare(Vid,Z) <- assign(Vid,Hid,V).", &[], "UnboundVariable { rule: \"d9\", variable: \"Z\" }"),
    ("d9 spare(Z,SUM<V>) <- assign(Vid,Hid,V).", &[], "UnboundVariable { rule: \"d9\", variable: \"<head>\" }"),
    ("d9 spare(Vid,cap) <- assign(Vid,Hid,V).", &[], "MissingParameter(\"cap\")"),
    ("d9 spare(Vid,SUM<V>,cap) <- assign(Vid,Hid,V).", &[], "MissingParameter(\"cap\")"),
    ("c9 assign(Vid,Hid,V) -> hostMemThres(Hid,cap), V<=1.", &[], "ok 24 vars 17 props digest 0xb026fe2bbe8e64ed"),
    ("c9 assign(Vid,Hid,V) -> V<=cap.", &[], "MissingParameter(\"cap\")"),
    ("d9 ind(Vid,C) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), (V==Cpu)==(C==1).", &[], "ok 69 vars 62 props digest 0x051380c76edb97d3"),
    ("d9 ind(Vid,C) <- assign(Vid,Hid,V), hostCpu(Hid,W), (C==W)==(V==1).", &[], "UnboundVariable { rule: \"d9\", variable: \"C\" }"),
    ("d9 ind(Vid,C) <- assign(Vid,Hid,V), hostCpu(Hid,W), (V==1)==(C==W).", &[], "UnboundVariable { rule: \"d9\", variable: \"C\" }"),
    ("d9 gap(Hid,C) <- host(Hid,Cpu,Mem), hostCpu(Hid,W), C:=W-Cpu.", &[], "ok 24 vars 17 props digest 0xfbe5e6765cdd8fdd"),
    ("c9 hostCpu(Hid,W) -> host(Hid,Cpu,Mem), Cpu<=missing.", &[], "MissingParameter(\"missing\")"),
];

/// Ground the ACloud facts of [`acloud_case`] under `ACLOUD_CENTRALIZED`
/// plus `extra` rules and facts; `label` facts carry a string.
fn error_outcome(extra: &str, facts: Facts) -> String {
    let source = format!("{ACLOUD_CENTRALIZED}\n{extra}");
    let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
    let mut inst = CologneInstance::new(NodeId(0), &source, params)
        .unwrap_or_else(|e| panic!("{extra}: compiling must not fail: {e}"));
    load(&mut inst, &acloud_case().facts);
    for (rel, row) in facts {
        let mut row: Vec<Value> = row.iter().map(|&v| int(v)).collect();
        if *rel == "label" {
            row.push(Value::Str("x".into()));
        }
        inst.relation(rel).unwrap().insert(row).unwrap();
    }
    match inst.ground_only() {
        Ok(cop) => format!(
            "ok {} vars {} props digest 0x{:016x}",
            cop.model.num_vars(),
            cop.model.num_propagators(),
            fnv1a(&render(&cop))
        ),
        Err(e) => format!("{e:?}"),
    }
}

#[test]
fn grounding_errors_match_the_recorded_outcomes() {
    let observed: Vec<String> = ERROR_FIXTURE
        .iter()
        .map(|&(extra, facts, _)| error_outcome(extra, facts))
        .collect();
    let rendered: String = ERROR_FIXTURE
        .iter()
        .zip(&observed)
        .map(|((extra, facts, _), outcome)| {
            let facts: Vec<String> = facts
                .iter()
                .map(|(rel, row)| format!("({rel:?}, &{row:?})"))
                .collect();
            format!("    ({extra:?}, &[{}], {outcome:?}),\n", facts.join(", "))
        })
        .collect();
    assert!(
        ERROR_FIXTURE
            .iter()
            .zip(&observed)
            .all(|((_, _, expected), outcome)| expected == outcome),
        "grounding outcomes changed; observed rows:\n{rendered}"
    );
}

#[test]
fn grounded_cops_match_the_recorded_digests() {
    let observed: Vec<Observed> = cases().iter().flat_map(ground_case).collect();
    let expected: Vec<Observed> = FIXTURE
        .iter()
        .map(
            |&(case, mode, vars, props, digest, objective, nodes, fails)| Observed {
                case: case.to_string(),
                mode,
                vars,
                props,
                digest,
                objective,
                nodes,
                fails,
            },
        )
        .collect();
    assert!(
        observed == expected,
        "grounded COPs changed; observed rows:\n{}",
        render_rows(&observed)
    );
}
