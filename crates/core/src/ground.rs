//! Grounding of Colog solver rules into a constraint-optimization model.
//!
//! This is the core of the Cologne query processor (Sec. 5.3–5.4 of the
//! paper): solver derivation and constraint rules are evaluated bottom-up
//! against the materialized regular tables, but the attributes whose values
//! the solver must determine flow through the evaluation *symbolically*,
//! and the selection/aggregation expressions that mention them are
//! translated into solver constraints instead of being evaluated.
//!
//! # Symbolic attributes are affine expressions
//!
//! A symbolic attribute ([`Value::Sym`]) stands for an affine [`LinExpr`]
//! over the variables of the [`cologne_solver`] model, not for a variable
//! of its own. A `var`-declared attribute is its decision variable; linear
//! arithmetic (`C==V*Cpu`, `C==Cpu+Cpu2`, `-X`) and `SUM<…>` only build
//! bigger expressions. A variable is **materialized** — a fresh variable
//! plus one `linear_eq` tying it to the expression — only where an
//! operator needs one:
//!
//! * the operands of `STDEV`, `SUMABS`, `UNIQUE`, `MIN` and `MAX`;
//! * both factors of a product of two symbolic values, and the operand of
//!   `|·|`;
//! * the goal attribute ([`GroundedCop::objective`] is a variable).
//!
//! Materialization is memoized per symbol: the symbol is rebound to its
//! new variable, so every later use shares it. A comparison that must hold
//! (a condition of a constraint or derivation rule) is posted directly as
//! `linear_eq`/`linear_le`/`linear_ne` over the two sides' expressions; only
//! a comparison nested inside another expression, such as the
//! `(X==k)==rhs` indicator pattern, is reified into a 0/1 variable.
//!
//! # Plan / Run split
//!
//! Solver invocations recur on every monitoring epoch and after every input
//! delta, so grounding is staged into a compiled program and its execution:
//!
//! * [`GroundingPlan`] — the **per-program** stage, compiled once per
//!   program (at [`crate::CologneInstance::new`] time) from the static
//!   [`Analysis`] and the [`ProgramParams`], and rebuilt only when the
//!   parameters change. Every `var` declaration, solver derivation rule
//!   (in topological order), constraint rule (`head -> body` compiled as
//!   the join of the head and the body) and the goal is compiled once:
//!   - each rule variable gets a **slot**, so a binding is a fixed-width
//!     row of values and no name is looked up while grounding;
//!   - each predicate argument becomes one action — bind a slot, check a
//!     slot, check an earlier position of the same tuple, or check a
//!     constant (literals and named parameters resolved in advance) — and
//!     each predicate knows whether it reads a regular engine relation or
//!     a solver table produced earlier in the schedule;
//!   - each body expression becomes a tree over slots and resolved
//!     constants, with `translate`'s patterns (`X==rhs` binds `X`, the
//!     `(X==k)==rhs` indicator, a comparison that must hold) decided at
//!     compile time from which variables are bound at that point;
//!   - heads and aggregate group keys become slot lists.
//!
//!   The compiled code of all rules lives in one arena per kind (labels,
//!   expression nodes, argument actions, steps, outputs), so a plan build
//!   costs a handful of allocations besides the relation names.
//!
//!   A compile step that meets an error (an unbound variable, a missing
//!   parameter, an unsupported form) does not fail: it compiles to a node
//!   that raises the same [`CologneError`] when the run reaches it, so
//!   errors fire from the grounding call under exactly the inputs where an
//!   interpreter evaluating the rule would meet them.
//! * `GroundingRun` (private) — the **per-invocation** stage: executes the
//!   compiled rules against the current engine state, allocates solver
//!   variables and posts constraints, producing a [`GroundedCop`]. A rule's
//!   bindings live in a flat arena of slot rows; predicates extend the
//!   rows into a second arena, and filters keep or drop rows in place.
//!   Engine relations are read at most once per run (in sorted order),
//!   solver tables are read in place. Its model and symbol table are taken
//!   from a [`GroundingScratch`], which recycles the solver arena (via
//!   [`Model::reset`]) across invocations instead of reallocating it.
//!
//! ## Joins and the enumeration order
//!
//! A join scans its table once per binding and runs the predicate's
//! argument actions on each tuple, so bindings are enumerated in frontier
//! order, then table order. That order fixes the order in which variables,
//! symbols and propagators are created, and with it the byte identity of
//! the grounded COP.
//!
//! In constraint rules a clash on a symbolic value does not reject the
//! tuple: it posts an equality (this is how `assign(X,Y,C) ->
//! assign(Y,X,C)` enforces channel symmetry), even when a later position
//! then rejects it. A join that skipped tuples by key (a hash index) would
//! therefore have to stop its keys at the first position that could hold a
//! [`Value::Sym`]. The paper's workloads join a few dozen (binding, tuple)
//! pairs at most, so joins scan.
//!
//! The free function [`ground`] composes the stages for one-shot callers;
//! [`crate::SolvePipeline`] holds plan + scratch for the repeated-invocation
//! hot path.
//!
//! # Delta-aware grounding
//!
//! Solver invocations recur after every input delta, and most deltas touch a
//! small slice of the database. The plan therefore records the **relevant
//! relations** of the program — every engine relation a compiled predicate
//! reads: the `forall` relations of the `var` declarations, the body
//! predicates of the solver derivation and constraint rules and the heads
//! of the constraint rules that are not solver tables, and the goal
//! relation when it is a regular table. Together with the engine's
//! [`DeltaSummary`] (what changed since the previous grounding) this drives
//! two reuse levels in [`GroundingPlan::ground`]:
//!
//! * **Whole-COP reuse** — when no relevant relation is dirty, the previous
//!   [`GroundedCop`] is byte-identical to what a re-grounding would produce;
//!   [`crate::SolvePipeline`] retains it across invocations and hands it
//!   back without running any stage (see
//!   [`crate::PipelineStats::incremental_builds`]).
//! * **Clean `var`-declaration replay** — a declaration whose `forall`
//!   relation is clean produces exactly the rows and variables of the
//!   previous run. The [`GroundingScratch`] caches each declaration's rows
//!   and variable names; a clean declaration is replayed from the cache
//!   (re-allocating its variables in the same order, patching the symbolic
//!   row attributes) instead of re-joining the `forall` table and
//!   re-formatting variable names. Dirty declarations and all derivation /
//!   constraint rules are re-grounded live.
//!
//! Both levels preserve a hard invariant: **an incremental grounding
//! produces a model byte-identical to a from-scratch grounding** of the same
//! engine state — same variables in the same order with the same names and
//! domains, same constraints, same solver tables. The delta summary only
//! decides which work can be skipped, never what is produced. Cleanliness is
//! tracked per relation by visibility (multiplicity-only changes stay
//! clean), and a parameter change invalidates every cache because domains,
//! constants and rule layouts may shift (see
//! [`crate::PipelineStats::full_rebuilds`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use cologne_colog::{
    Analysis, Arg, BodyElem, CExpr, COp, GoalKind, Predicate, Program, ProgramParams, RuleClass,
    RuleDecl, VarDecl, VarDomain,
};
use cologne_datalog::{AggFunc, DeltaSummary, Engine, SymId, Tuple, Value};
use cologne_solver::{LinExpr, Model, SearchConfig, SearchOutcome, SearchSpace, VarId};

use crate::error::CologneError;
use crate::translate::literal_to_value;

/// The result of grounding one COP invocation.
pub struct GroundedCop {
    /// The constraint model, ready to be solved.
    pub model: Model,
    /// Mapping from symbolic attribute ids ([`Value::Sym`]) to the affine
    /// expressions over model variables they stand for (see the module
    /// docs). The symbols of `var`-declared attributes are plain variables.
    pub syms: Vec<LinExpr>,
    /// Contents of every solver table produced during grounding. Tuples may
    /// contain `Value::Sym` attributes referring into `syms`.
    pub solver_tables: BTreeMap<String, Vec<Tuple>>,
    /// The optimization objective, if the program declares one and the goal
    /// relation is non-empty.
    pub objective: Option<(GoalKind, VarId)>,
    /// Name of the goal relation (for materialization).
    pub goal_relation: Option<String>,
}

impl GroundedCop {
    /// True when the COP has no decision variables (nothing to solve).
    pub fn is_trivial(&self) -> bool {
        self.model.num_vars() == 0
    }

    /// Resolve a grounded value against a solver assignment: a symbolic
    /// attribute evaluates its expression.
    pub fn resolve(&self, value: &Value, assignment: &cologne_solver::Assignment) -> Value {
        match value {
            Value::Sym(sym) => Value::Int(self.syms[sym.0 as usize].eval(|v| assignment.value(v))),
            other => other.clone(),
        }
    }

    /// Run the search stage appropriate for the grounded objective:
    /// branch-and-bound for `minimize`/`maximize`, satisfaction search
    /// otherwise.
    pub fn solve(&self, config: &SearchConfig) -> SearchOutcome {
        let mut space = SearchSpace::new();
        self.solve_in(config, &mut space)
    }

    /// [`GroundedCop::solve`] reusing a caller-provided [`SearchSpace`]
    /// (trail-backed domain store, propagation queue, decision stack), so
    /// repeated COP invocations share one set of search allocations.
    /// [`crate::SolvePipeline::solve`] drives this with the space held by
    /// its [`GroundingScratch`].
    pub fn solve_in(&self, config: &SearchConfig, space: &mut SearchSpace) -> SearchOutcome {
        self.solve_in_observed(config, space, None)
    }

    /// [`GroundedCop::solve_in`] with a streaming
    /// [`cologne_solver::SolveObserver`] receiving incumbents, restarts, LNS
    /// iterations, budget exhaustion and periodic progress while the search
    /// runs.
    pub fn solve_in_observed(
        &self,
        config: &SearchConfig,
        space: &mut SearchSpace,
        observer: Option<&mut dyn cologne_solver::SolveObserver>,
    ) -> SearchOutcome {
        let (objective, config) = match self.objective {
            Some((GoalKind::Minimize, obj)) => {
                (cologne_solver::Objective::Minimize(obj), config.clone())
            }
            Some((GoalKind::Maximize, obj)) => {
                (cologne_solver::Objective::Maximize(obj), config.clone())
            }
            // `satisfy` keeps the `Model::satisfy_in` semantics: find one
            // solution unless the caller asked for more.
            Some((GoalKind::Satisfy, _)) | None => (
                cologne_solver::Objective::Satisfy,
                SearchConfig {
                    max_solutions: Some(config.max_solutions.unwrap_or(1)),
                    ..config.clone()
                },
            ),
        };
        cologne_solver::solve_in_observed(&self.model, objective, &config, space, observer)
    }
}

/// Ground the solver rules of `program` against the current state of
/// `engine`, producing a constraint model.
///
/// One-shot convenience composing the two stages: builds a fresh
/// [`GroundingPlan`] and runs it with a fresh [`GroundingScratch`]. Repeated
/// callers (the `invokeSolver` hot path) should hold a
/// [`crate::SolvePipeline`] instead, which reuses both across invocations.
pub fn ground(
    program: &Program,
    analysis: &Analysis,
    params: &ProgramParams,
    engine: &Engine,
) -> Result<GroundedCop, CologneError> {
    GroundingPlan::build(program, analysis, params).ground(engine, &mut GroundingScratch::default())
}

// ---------------------------------------------------------------------------
// Per-program stage: the compiled grounding plan
// ---------------------------------------------------------------------------

/// Where a predicate's tuples come from during a run.
#[derive(Debug, Clone)]
enum Source {
    /// A regular engine relation: index into [`GroundingPlan::engine_relations`].
    Engine(usize),
    /// A solver table: index into [`GroundingPlan::solver_relations`]
    /// (empty until a `var` declaration or derivation rule earlier in the
    /// schedule produces it).
    Solver(usize),
}

/// What one predicate argument does with the tuple value at its position.
#[derive(Debug, Clone)]
enum ArgOp {
    /// First occurrence of an unbound variable: bind its slot.
    Bind(usize),
    /// A variable bound before the predicate: compare with its slot.
    Check(usize),
    /// A variable bound at an earlier position of this same predicate:
    /// compare with the tuple value there.
    Same(usize),
    /// A constant (literal or named parameter, resolved at compile time).
    Const(Value),
    /// A constant whose parameter is missing, or an aggregate: matches
    /// nothing.
    Never,
}

/// A range of one of the [`Code`] arenas.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start..self.end]
    }
}

/// The compiled code of a whole plan, one arena per kind: rules, `var`
/// declarations and predicates hold [`Span`]s and indices into it, so a
/// plan build allocates a handful of vectors rather than several per rule.
#[derive(Debug, Clone, Default)]
struct Code {
    /// Rule labels (the names their errors carry) and the names of unbound
    /// variables, concatenated.
    text: String,
    nodes: Vec<Node>,
    ops: Vec<ArgOp>,
    steps: Vec<Step>,
    outs: Vec<Out>,
}

impl Code {
    fn text(&self, span: Span) -> &str {
        &self.text[span.start..span.end]
    }

    fn label(&self, rule: &RulePlan) -> &str {
        self.text(rule.label)
    }

    /// Append `s` to [`Code::text`].
    fn push_text(&mut self, s: &str) -> Span {
        let start = self.text.len();
        self.text.push_str(s);
        Span {
            start,
            end: self.text.len(),
        }
    }
}

/// A compiled body predicate.
#[derive(Debug, Clone)]
struct PredPlan {
    source: Source,
    /// One action per argument ([`Code::ops`]); a tuple of another arity
    /// never matches.
    ops: Span,
}

/// A compiled expression: an index into [`Code::nodes`].
type Ex = usize;

/// One node of a compiled expression over slots and resolved constants;
/// operands are earlier nodes of the same arena.
#[derive(Debug, Clone)]
enum Node {
    /// A bound variable.
    Slot(usize),
    /// A literal, or an unbound variable naming a program parameter.
    Int(i64),
    /// An unbound variable naming no parameter (its name in
    /// [`Code::text`]): raised when evaluated.
    Unbound(Span),
    /// A literal naming a missing parameter: raised when evaluated (boxed:
    /// nodes stay small, and failing ones are rare).
    Fail(Box<CologneError>),
    Neg(Ex),
    Abs(Ex),
    Bin(COp, Ex, Ex),
}

/// One orientation of the `(X==k)==rhs` indicator pattern.
#[derive(Debug, Clone, Copy)]
struct Indicator {
    /// Slot of the unbound `X`, bound to the indicator variable.
    slot: usize,
    k: Ex,
    rhs: Ex,
}

/// A compiled body expression (a condition of the rule).
#[derive(Debug, Clone)]
enum Cond {
    /// `X == rhs` with `X` unbound: bind `X` to the value of `rhs`.
    Bind { slot: usize, rhs: Ex },
    /// The indicator pattern `lhs == rhs`: the first orientation whose `k`
    /// is a known integer binds its `X`; if none is, the equality is
    /// compared as written.
    Indicator {
        /// `(X==k)` on the left, then on the right, where it applies.
        orientations: [Option<Indicator>; 2],
        lhs: Ex,
        rhs: Ex,
    },
    /// A comparison that must hold.
    Compare { op: COp, lhs: Ex, rhs: Ex },
    /// Any other expression: must evaluate to a known truth value.
    Truth(Ex),
}

/// One compiled body element, executed over the whole frontier.
#[derive(Debug, Clone)]
enum Step {
    Join(PredPlan),
    Filter(Cond),
    /// `X := expr`.
    Assign(usize, Ex),
}

/// A value written into a produced row.
#[derive(Debug, Clone)]
enum Out {
    Slot(usize),
    Value(Value),
    /// An aggregate column of a head: the function and its operand's slot.
    Agg(AggFunc, usize),
}

/// How a derivation rule emits its head rows: one row per binding, or, with
/// an aggregate column, one row per group of the other columns.
#[derive(Debug, Clone)]
struct HeadPlan {
    /// The head's solver table.
    table: usize,
    /// Its columns ([`Code::outs`]).
    outs: Span,
    aggregate: bool,
    /// Raised when the join produced a binding (an unbound head variable
    /// or a missing parameter).
    error: Option<CologneError>,
}

/// A compiled solver derivation or constraint rule.
#[derive(Debug, Clone)]
struct RulePlan {
    /// The rule's label ([`Code::labels`]).
    label: Span,
    /// Number of slots (distinct variables) of the rule.
    width: usize,
    /// Constraint semantics: conditions are hard constraints and symbolic
    /// join clashes become equalities.
    force: bool,
    /// The body elements ([`Code::steps`]).
    steps: Span,
    /// Derivation rules: how head rows are emitted.
    head: Option<HeadPlan>,
}

/// Per-`var`-declaration layout and compiled `forall` join.
#[derive(Debug, Clone)]
pub(crate) struct VarPlan {
    /// Index into `program.vars`.
    decl: usize,
    /// Name of the declared solver table.
    pub(crate) table: String,
    /// Its index into [`GroundingPlan::solver_relations`].
    table_id: usize,
    /// Domain of the declared solver variables (from [`ProgramParams`]).
    domain: VarDomain,
    /// For every argument position of the declared table: is it a solver
    /// attribute (true) or bound by the `forall` predicate (false)?
    pub(crate) is_solver_position: Vec<bool>,
    /// The `forall` predicate over its own slot layout.
    forall: PredPlan,
    width: usize,
    /// Non-solver table arguments, in table order ([`Code::outs`]).
    outs: Span,
    /// Raised on the first matching `forall` tuple (an aggregate or a
    /// missing parameter among the table arguments).
    error: Option<CologneError>,
}

/// Goal information cached by the plan.
#[derive(Debug, Clone)]
struct GoalPlan {
    kind: GoalKind,
    relation: String,
    source: Source,
    /// Argument position of the goal variable inside the goal relation
    /// (`None` for `satisfy` goals, which have no objective attribute).
    position: Option<usize>,
}

/// The per-program grounding stage: everything the per-invocation run needs
/// that does not depend on the current table contents, compiled into slot
/// layouts, join actions and expression trees (see the module docs). Built
/// once per compiled program and reused across `invokeSolver` executions.
#[derive(Debug, Clone)]
pub struct GroundingPlan {
    /// Layout and compiled `forall` join of each `var` declaration.
    pub(crate) var_plans: Vec<VarPlan>,
    /// Solver derivation rules, topologically ordered by head/body relation
    /// dependencies (source order inside cycles).
    derivations: Vec<RulePlan>,
    /// Solver constraint rules, each compiled as the join of its head and
    /// its body.
    constraints: Vec<RulePlan>,
    /// Goal relation and objective position.
    goal: Option<GoalPlan>,
    /// The compiled rules' nodes, argument actions, steps and outputs.
    code: Code,
    /// Every engine relation the grounding reads, indexed by
    /// [`Source::Engine`] — the delta-awareness contract (see the module
    /// docs).
    engine_relations: Vec<String>,
    /// Solver tables read or produced by the plan, indexed by
    /// [`Source::Solver`].
    solver_relations: Vec<String>,
}

/// Decides, while the schedule is compiled in run order, whether a relation
/// is read from the engine or from the solver tables: a solver table by the
/// analysis, or one a `var` declaration or derivation rule earlier in the
/// schedule has produced.
struct Sources<'a> {
    analysis: &'a Analysis,
    engine: Vec<String>,
    /// Solver tables with whether they have been produced yet.
    solver: Vec<(String, bool)>,
}

impl Sources<'_> {
    fn of(&mut self, relation: &str) -> Source {
        let solver = self.solver.iter().position(|(r, _)| r == relation);
        if let Some(id) = solver.filter(|&id| self.solver[id].1) {
            return Source::Solver(id);
        }
        if self.analysis.solver_tables.is_solver_table(relation) {
            return Source::Solver(solver.unwrap_or_else(|| self.solver_id(relation)));
        }
        match self.engine.iter().position(|r| r == relation) {
            Some(id) => Source::Engine(id),
            None => {
                self.engine.push(relation.to_string());
                Source::Engine(self.engine.len() - 1)
            }
        }
    }

    fn solver_id(&mut self, relation: &str) -> usize {
        self.solver.push((relation.to_string(), false));
        self.solver.len() - 1
    }

    /// Mark `relation` produced as a solver table from here on.
    fn produce(&mut self, relation: &str) -> usize {
        let id = match self.solver.iter().position(|(r, _)| r == relation) {
            Some(id) => id,
            None => self.solver_id(relation),
        };
        self.solver[id].1 = true;
        id
    }
}

/// Compiles one rule (or `forall` predicate) at a time onto a slot layout,
/// tracking which variables are bound after each element, and appends its
/// code to the plan's [`Code`]. One compiler serves a whole plan build.
struct RuleCompiler<'a> {
    label: &'a str,
    params: &'a ProgramParams,
    /// Slot → variable name, and whether it is bound at this point.
    slots: Vec<(&'a str, bool)>,
    code: Code,
}

impl<'a> RuleCompiler<'a> {
    fn new(params: &'a ProgramParams) -> Self {
        RuleCompiler {
            label: "",
            params,
            slots: Vec::with_capacity(8),
            code: Code::default(),
        }
    }

    /// Start compiling the rule `label` (the name its errors carry).
    fn start(&mut self, label: &'a str) {
        self.label = label;
        self.slots.clear();
    }

    fn slot(&mut self, name: &'a str) -> usize {
        match self.slots.iter().position(|(n, _)| *n == name) {
            Some(slot) => slot,
            None => {
                self.slots.push((name, false));
                self.slots.len() - 1
            }
        }
    }

    fn bind(&mut self, slot: usize) {
        self.slots[slot].1 = true;
    }

    fn bound_slot(&self, name: &str) -> Option<usize> {
        self.slots.iter().position(|&(n, bound)| bound && n == name)
    }

    fn unbound(&self, name: &str) -> bool {
        self.bound_slot(name).is_none() && self.params.constant(name).is_none()
    }

    fn pred(&mut self, pred: &'a Predicate, source: Source) -> PredPlan {
        let start = self.code.ops.len();
        for arg in &pred.args {
            let op = match arg {
                Arg::Const(lit) => match literal_to_value(lit, self.params) {
                    Ok(value) => ArgOp::Const(value),
                    Err(_) => ArgOp::Never,
                },
                Arg::Loc(v) | Arg::Var(v) => {
                    let slot = self.slot(v);
                    let first = self.code.ops[start..]
                        .iter()
                        .position(|op| matches!(op, ArgOp::Bind(s) if *s == slot));
                    match first {
                        _ if self.slots[slot].1 => ArgOp::Check(slot),
                        Some(pos) => ArgOp::Same(pos),
                        None => ArgOp::Bind(slot),
                    }
                }
                Arg::Agg(_, _) => ArgOp::Never,
            };
            self.code.ops.push(op);
        }
        for i in start..self.code.ops.len() {
            if let ArgOp::Bind(slot) = self.code.ops[i] {
                self.bind(slot);
            }
        }
        PredPlan {
            source,
            ops: Span {
                start,
                end: self.code.ops.len(),
            },
        }
    }

    fn expr(&mut self, expr: &CExpr) -> Ex {
        let node = match expr {
            CExpr::Var(v) => match self.bound_slot(v) {
                Some(slot) => Node::Slot(slot),
                None => match self.params.constant(v) {
                    Some(c) => Node::Int(c),
                    None => Node::Unbound(self.code.push_text(v)),
                },
            },
            CExpr::Lit(lit) => match literal_to_value(lit, self.params) {
                Ok(value) => Node::Int(concrete_int(&value)),
                Err(e) => Node::Fail(Box::new(e)),
            },
            CExpr::Neg(inner) => Node::Neg(self.expr(inner)),
            CExpr::Abs(inner) => Node::Abs(self.expr(inner)),
            CExpr::Bin(op, a, b) => {
                let a = self.expr(a);
                Node::Bin(*op, a, self.expr(b))
            }
        };
        self.code.nodes.push(node);
        self.code.nodes.len() - 1
    }

    /// Compile a body expression, choosing its pattern from which
    /// variables are bound here.
    fn cond(&mut self, expr: &'a CExpr) -> Cond {
        if let CExpr::Bin(COp::Eq, lhs, rhs) = expr {
            // `X == rhs` with X unbound binds X.
            for (var_side, other) in [(lhs, rhs), (rhs, lhs)] {
                if let CExpr::Var(x) = var_side.as_ref() {
                    if self.unbound(x) {
                        let rhs = self.expr(other);
                        let slot = self.slot(x);
                        self.bind(slot);
                        return Cond::Bind { slot, rhs };
                    }
                }
            }
            // `(X == k) == rhs` with X unbound: the indicator pattern. Both
            // sides are compiled with every X unbound; an orientation's `k`
            // and `rhs` are their subexpressions.
            let (l, r) = (self.expr(lhs), self.expr(rhs));
            let mut orientations = [None, None];
            for (side, (ind_side, ind, other)) in [(lhs, l, r), (rhs, r, l)].into_iter().enumerate()
            {
                if let CExpr::Bin(COp::Eq, a, b) = ind_side.as_ref() {
                    let Node::Bin(_, na, nb) = self.code.nodes[ind] else {
                        unreachable!("an equality compiles to a binary node")
                    };
                    let (x, k) = match (a.as_ref(), b.as_ref()) {
                        (CExpr::Var(x), _) => (x, nb),
                        (_, CExpr::Var(x)) => (x, na),
                        _ => continue,
                    };
                    if self.unbound(x) {
                        let slot = self.slot(x);
                        orientations[side] = Some(Indicator {
                            slot,
                            k,
                            rhs: other,
                        });
                    }
                }
            }
            return match orientations.iter().flatten().next() {
                Some(first) => {
                    // Only the first orientation can succeed: every later
                    // one evaluates the first one's side, whose X is unbound.
                    self.bind(first.slot);
                    Cond::Indicator {
                        orientations,
                        lhs: l,
                        rhs: r,
                    }
                }
                None => Cond::Compare {
                    op: COp::Eq,
                    lhs: l,
                    rhs: r,
                },
            };
        }
        self.comparison(expr)
    }

    fn comparison(&mut self, expr: &CExpr) -> Cond {
        match expr {
            CExpr::Bin(op, a, b) if op.is_comparison() => {
                let lhs = self.expr(a);
                Cond::Compare {
                    op: *op,
                    lhs,
                    rhs: self.expr(b),
                }
            }
            other => Cond::Truth(self.expr(other)),
        }
    }

    /// The outputs of a head, or the first error (in argument order)
    /// instantiating it would raise (and no outputs).
    fn head(&mut self, head: &Predicate) -> Result<Span, CologneError> {
        let aggregate = head.has_aggregate();
        let unbound = |v: &str| CologneError::UnboundVariable {
            rule: self.label.to_string(),
            variable: if aggregate { "<head>" } else { v }.to_string(),
        };
        let start = self.code.outs.len();
        for arg in &head.args {
            let out = match arg {
                Arg::Loc(v) | Arg::Var(v) => {
                    self.bound_slot(v).map(Out::Slot).ok_or_else(|| unbound(v))
                }
                Arg::Const(lit) => literal_to_value(lit, self.params).map(Out::Value),
                Arg::Agg(func, v) => self
                    .bound_slot(v)
                    .map(|slot| Out::Agg(*func, slot))
                    .ok_or_else(|| unbound(v)),
            };
            match out {
                Ok(out) => self.code.outs.push(out),
                Err(e) => {
                    self.code.outs.truncate(start);
                    return Err(e);
                }
            }
        }
        Ok(Span {
            start,
            end: self.code.outs.len(),
        })
    }
}

impl RulePlan {
    /// Compile a derivation rule (`force == false`, with its head) or a
    /// constraint rule (`force == true`: the head joins first, then the
    /// body).
    fn compile<'a>(
        rule: &'a RuleDecl,
        force: bool,
        c: &mut RuleCompiler<'a>,
        sources: &mut Sources<'_>,
    ) -> RulePlan {
        c.start(&rule.label);
        let label = c.code.push_text(&rule.label);
        // Compiling an element appends argument actions and nodes, never
        // steps, so the rule's steps stay contiguous.
        let start = c.code.steps.len();
        if force {
            let join = Step::Join(c.pred(&rule.head, sources.of(&rule.head.name)));
            c.code.steps.push(join);
        }
        for elem in &rule.body {
            let step = match elem {
                BodyElem::Pred(pred) => Step::Join(c.pred(pred, sources.of(&pred.name))),
                BodyElem::Expr(expr) => Step::Filter(c.cond(expr)),
                BodyElem::Assign(var, expr) => {
                    let value = c.expr(expr);
                    let slot = c.slot(var);
                    c.bind(slot);
                    Step::Assign(slot, value)
                }
            };
            c.code.steps.push(step);
        }
        let steps = Span {
            start,
            end: c.code.steps.len(),
        };
        let head = (!force).then(|| {
            let (outs, error) = match c.head(&rule.head) {
                Ok(outs) => (outs, None),
                Err(e) => (Span::default(), Some(e)),
            };
            HeadPlan {
                table: sources.produce(&rule.head.name),
                outs,
                aggregate: rule.head.has_aggregate(),
                error,
            }
        });
        RulePlan {
            label,
            width: c.slots.len(),
            force,
            steps,
            head,
        }
    }
}

impl VarPlan {
    fn compile<'a>(
        decl: usize,
        vd: &'a VarDecl,
        c: &mut RuleCompiler<'a>,
        sources: &mut Sources<'_>,
    ) -> VarPlan {
        // The forall predicate raises no errors; the table's are labelled
        // here.
        c.start("");
        let label = || format!("var {}", vd.table.name);
        let forall = c.pred(&vd.forall, sources.of(&vd.forall.name));
        // A solver attribute is a table variable the forall does not bind
        // (`VarDecl::solver_positions`).
        let in_forall = |v: &str| vd.forall.args.iter().any(|a| a.var_name() == Some(v));
        let is_solver_position: Vec<bool> = vd
            .table
            .args
            .iter()
            .map(|a| a.var_name().is_some_and(|v| !in_forall(v)))
            .collect();
        let start = c.code.outs.len();
        let mut error = None;
        for (arg, &solver) in vd.table.args.iter().zip(&is_solver_position) {
            if solver {
                continue;
            }
            let out = match arg {
                Arg::Loc(v) | Arg::Var(v) => match c.bound_slot(v) {
                    Some(slot) => Ok(Out::Slot(slot)),
                    None => Err(CologneError::UnboundVariable {
                        rule: label(),
                        variable: v.clone(),
                    }),
                },
                Arg::Const(lit) => literal_to_value(lit, c.params).map(Out::Value),
                Arg::Agg(_, _) => Err(CologneError::UnsupportedExpression {
                    rule: label(),
                    detail: "aggregate in var declaration".into(),
                }),
            };
            match out {
                Ok(out) => c.code.outs.push(out),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        VarPlan {
            decl,
            table: vd.table.name.clone(),
            table_id: sources.produce(&vd.table.name),
            domain: c.params.var_domain(&vd.table.name),
            is_solver_position,
            width: c.slots.len(),
            forall,
            outs: Span {
                start,
                end: c.code.outs.len(),
            },
            error,
        }
    }
}

impl GroundingPlan {
    /// Compile the plan for a program from its static analysis. Never
    /// fails: an error in a rule is deferred to the grounding that reaches
    /// it (see the module docs).
    pub fn build(program: &Program, analysis: &Analysis, params: &ProgramParams) -> Self {
        // Compile in run order: var declarations, derivation rules,
        // constraint rules, goal — so each predicate knows whether an
        // earlier step has produced its relation as a solver table.
        let mut sources = Sources {
            analysis,
            engine: Vec::with_capacity(8),
            solver: Vec::with_capacity(8),
        };
        let mut c = RuleCompiler::new(params);
        let var_plans = program
            .vars
            .iter()
            .enumerate()
            .map(|(decl, vd)| VarPlan::compile(decl, vd, &mut c, &mut sources))
            .collect();
        let derivations = derivation_rule_order(program, analysis)
            .into_iter()
            .map(|idx| RulePlan::compile(&program.rules[idx], false, &mut c, &mut sources))
            .collect();
        let constraints = analysis
            .rules_in_class(RuleClass::SolverConstraint)
            .map(|idx| RulePlan::compile(&program.rules[idx], true, &mut c, &mut sources))
            .collect();
        let goal = program.goal.as_ref().map(|goal| GoalPlan {
            kind: goal.kind,
            relation: goal.relation.name.clone(),
            source: sources.of(&goal.relation.name),
            position: (goal.kind != GoalKind::Satisfy).then(|| {
                goal.relation
                    .args
                    .iter()
                    .position(|a| a.var_name() == Some(goal.var.as_str()))
                    .expect("goal variable validated by analysis")
            }),
        });
        GroundingPlan {
            var_plans,
            derivations,
            constraints,
            goal,
            code: c.code,
            engine_relations: sources.engine,
            solver_relations: sources.solver.into_iter().map(|(r, _)| r).collect(),
        }
    }

    /// The relation a predicate reads.
    fn relation_name(&self, source: &Source) -> &str {
        match source {
            Source::Engine(id) => &self.engine_relations[*id],
            Source::Solver(id) => &self.solver_relations[*id],
        }
    }

    /// Engine relations whose contents the grounding depends on. A delta
    /// summary touching none of them means a re-grounding would reproduce
    /// the previous [`GroundedCop`] byte for byte.
    pub fn relevant_relations(&self) -> impl Iterator<Item = &str> {
        self.engine_relations.iter().map(String::as_str)
    }

    /// True when any relation the grounding reads is dirty in `delta` — a
    /// retained [`GroundedCop`] from before the summary's window can only be
    /// reused when this is false.
    pub fn is_affected_by(&self, delta: &DeltaSummary) -> bool {
        delta
            .dirty_relations()
            .any(|rel| self.engine_relations.iter().any(|r| r == rel))
    }

    /// Run the per-invocation stage against the current engine state,
    /// drawing the model and symbol table from `scratch`. The plan carries
    /// everything it needs from the program and parameters it was built
    /// from.
    pub fn ground(
        &self,
        engine: &Engine,
        scratch: &mut GroundingScratch,
    ) -> Result<GroundedCop, CologneError> {
        // One-shot callers never replay, so capturing replay caches would
        // be pure overhead: skip it.
        self.ground_inner(engine, scratch, None, false)
    }

    /// [`GroundingPlan::ground`] with a delta summary covering everything
    /// that changed in `engine` since the previous grounding with this same
    /// `scratch`: `var` declarations whose `forall` relation is clean are
    /// replayed from the scratch's caches instead of re-joined (see the
    /// module docs), and the caches are refreshed for the next run. Passing
    /// `None` (or a scratch without caches) grounds everything live; the
    /// output is identical either way. The caches are laid out by this
    /// plan: a scratch serves one plan (clear it when the plan is rebuilt).
    pub fn ground_delta(
        &self,
        engine: &Engine,
        scratch: &mut GroundingScratch,
        delta: Option<&DeltaSummary>,
    ) -> Result<GroundedCop, CologneError> {
        self.ground_inner(engine, scratch, delta, true)
    }

    /// Shared body of [`GroundingPlan::ground`] / [`GroundingPlan::ground_delta`]:
    /// `capture` controls whether `var`-declaration replay caches are
    /// maintained in `scratch` (only delta-aware callers ever read them).
    fn ground_inner(
        &self,
        engine: &Engine,
        scratch: &mut GroundingScratch,
        delta: Option<&DeltaSummary>,
        capture: bool,
    ) -> Result<GroundedCop, CologneError> {
        scratch
            .var_caches
            .resize_with(self.var_plans.len(), || None);
        let mut run = GroundingRun {
            plan: self,
            engine,
            delta,
            capture,
            var_caches: &mut scratch.var_caches,
            cop: CopBuilder {
                model: std::mem::take(&mut scratch.model),
                syms: std::mem::take(&mut scratch.syms),
            },
            engine_rows: vec![None; self.engine_relations.len()],
            solver_rows: vec![None; self.solver_relations.len()],
            frontier: std::mem::take(&mut scratch.frontiers[0]),
            next: std::mem::take(&mut scratch.frontiers[1]),
        };
        run.ground_var_decls()?;
        for rule in &self.derivations {
            run.ground_rule(rule)?;
        }
        for rule in &self.constraints {
            run.ground_rule(rule)?;
        }
        let (objective, goal_relation) = run.build_objective()?;
        scratch.frontiers = [run.frontier, run.next];
        Ok(GroundedCop {
            model: run.cop.model,
            syms: run.cop.syms,
            solver_tables: self
                .solver_relations
                .iter()
                .zip(run.solver_rows)
                .filter_map(|(name, rows)| Some((name.clone(), rows?)))
                .collect(),
            objective,
            goal_relation,
        })
    }
}

/// Topological order of solver derivation rules by head/body relation
/// dependencies; falls back to source order inside cycles.
fn derivation_rule_order(program: &Program, analysis: &Analysis) -> Vec<usize> {
    let deriv: Vec<usize> = analysis
        .rules_in_class(RuleClass::SolverDerivation)
        .collect();
    let head_of = |i: usize| program.rules[i].head.name.as_str();
    let mut order: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = deriv;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut next_remaining = Vec::new();
        for &i in &remaining {
            let body_rels = program.rules[i].body_relations();
            let depends_on_pending = remaining
                .iter()
                .any(|&j| j != i && body_rels.contains(&head_of(j)));
            if depends_on_pending {
                next_remaining.push(i);
            } else {
                order.push(i);
                progressed = true;
            }
        }
        if !progressed {
            // cycle: keep source order for what is left
            order.extend(next_remaining.iter().copied());
            break;
        }
        remaining = next_remaining;
    }
    order
}

/// Reusable per-invocation allocations: the solver model arena, the
/// symbolic-attribute table, the two binding arenas of the rule joins, and
/// the [`SearchSpace`] (trail-backed domain store + propagation queue +
/// decision stack) the COP is searched in. The grounding run takes the
/// model and symbol table at the start of an invocation;
/// [`GroundingScratch::recycle`] reclaims them (resetting the model in
/// place) once the caller is done with the [`GroundedCop`]. The search
/// space is lent out per solve by [`crate::SolvePipeline::solve`] and keeps
/// its trail, store and queue allocations across invocations.
#[derive(Default)]
pub struct GroundingScratch {
    model: Model,
    syms: Vec<LinExpr>,
    frontiers: [Frontier; 2],
    pub(crate) space: SearchSpace,
    /// Per-`var`-declaration replay caches (see [`VarDeclCache`]), refreshed
    /// on every grounding. Cleared whenever the parameters change — a cache
    /// is only meaningful against the plan it was captured under.
    pub(crate) var_caches: Vec<Option<VarDeclCache>>,
}

impl GroundingScratch {
    /// Reclaim the model and symbol table of a finished invocation so the
    /// next one reuses their allocations instead of growing fresh ones.
    /// (The search space never leaves the scratch, so it needs no explicit
    /// reclaiming.)
    pub fn recycle(&mut self, cop: GroundedCop) {
        let GroundedCop {
            mut model,
            mut syms,
            ..
        } = cop;
        model.reset();
        syms.clear();
        self.model = model;
        self.syms = syms;
    }

    /// Drop every cross-invocation replay cache (parameters changed, or an
    /// aborted grounding left them out of sync with the engine checkpoint).
    pub(crate) fn clear_caches(&mut self) {
        self.var_caches.clear();
    }
}

/// Replay cache of one `var` declaration: everything its grounding produced
/// last time — the variable names (in allocation order) and the emitted
/// solver-table rows, whose [`Value::Sym`] attributes index the contiguous
/// symbol block starting at `sym_start`. Replaying allocates the same
/// variables in the same order (so the model stays byte-identical to a live
/// grounding) while skipping the `forall` join and the per-variable name
/// formatting.
#[derive(Debug, Clone)]
pub(crate) struct VarDeclCache {
    /// First symbol id the declaration allocated when the cache was taken.
    sym_start: usize,
    /// Names of the declaration's variables, in allocation order.
    names: Vec<String>,
    /// Rows emitted into the declared solver table.
    rows: Vec<Tuple>,
}

// ---------------------------------------------------------------------------
// Per-invocation stage: executing the plan
// ---------------------------------------------------------------------------

/// The bindings of one rule during a run: `len` rows of `width` slot
/// values, stored flat. A slot not yet bound holds a placeholder the
/// compiled rule never reads.
#[derive(Default)]
struct Frontier {
    width: usize,
    len: usize,
    values: Vec<Value>,
}

impl Frontier {
    fn clear(&mut self, width: usize) {
        self.width = width;
        self.len = 0;
        self.values.clear();
    }

    /// The single empty binding a rule starts from.
    fn start(&mut self, width: usize) {
        self.clear(width);
        self.values.resize(width, Value::Int(0));
        self.len = 1;
    }

    fn row(&self, r: usize) -> &[Value] {
        &self.values[r * self.width..(r + 1) * self.width]
    }

    fn row_mut(&mut self, r: usize) -> &mut [Value] {
        &mut self.values[r * self.width..(r + 1) * self.width]
    }

    /// Move row `from` down to position `to` (`to <= from`).
    fn move_row(&mut self, from: usize, to: usize) {
        if from != to {
            for i in 0..self.width {
                self.values.swap(to * self.width + i, from * self.width + i);
            }
        }
    }

    fn truncate(&mut self, len: usize) {
        self.len = len;
        self.values.truncate(len * self.width);
    }

    /// Append `row` extended by the `Bind` positions of `ops` from `tuple`.
    fn push_extended(&mut self, row: &[Value], ops: &[ArgOp], tuple: &[Value]) {
        let base = self.values.len();
        self.values.extend_from_slice(row);
        for (op, value) in ops.iter().zip(tuple) {
            if let ArgOp::Bind(slot) = op {
                self.values[base + slot] = value.clone();
            }
        }
        self.len += 1;
    }
}

/// Objective of a grounded COP (`None` when there is nothing to optimize)
/// plus the goal relation name for materialization.
type ObjectiveSpec = (Option<(GoalKind, VarId)>, Option<String>);

/// Intermediate translation result for an expression over (possibly
/// symbolic) bindings.
enum SymVal {
    /// A fully-known integer.
    Concrete(i64),
    /// A symbolic attribute, kept by symbol so an operator that needs a
    /// variable materializes it once per symbol.
    Sym(SymId),
    /// A linear expression over solver variables.
    Linear(LinExpr),
    /// A 0/1 solver variable carrying the truth value of a nested comparison.
    Bool(VarId),
}

/// The model under construction and its symbol table: everything a rule
/// step writes besides the rows themselves.
struct CopBuilder {
    model: Model,
    syms: Vec<LinExpr>,
}

/// The per-invocation grounding stage: executes the plan's compiled rules
/// against the current engine state, producing model variables, constraints
/// and solver tables. Short-lived — one value per `invokeSolver` execution.
struct GroundingRun<'a> {
    plan: &'a GroundingPlan,
    engine: &'a Engine,
    /// What changed since the previous grounding (`None` = assume everything
    /// did). Only consulted for `var`-declaration replay.
    delta: Option<&'a DeltaSummary>,
    /// Whether to maintain the replay caches (false for one-shot callers
    /// that will never replay them).
    capture: bool,
    /// Replay caches, one slot per `var` declaration (refreshed as we go).
    var_caches: &'a mut Vec<Option<VarDeclCache>>,
    cop: CopBuilder,
    /// Rows of each engine relation of the plan, read (sorted) on first
    /// use: the engine is immutable for the duration of a grounding.
    engine_rows: Vec<Option<Vec<Tuple>>>,
    /// Rows of each solver table of the plan; `None` until produced (only
    /// produced tables appear in [`GroundedCop::solver_tables`]).
    solver_rows: Vec<Option<Vec<Tuple>>>,
    /// The current rule's bindings, and the arena a join extends them into.
    frontier: Frontier,
    next: Frontier,
}

/// The rows of `source`, reading an engine relation on first use.
fn source_rows<'t>(
    source: &Source,
    plan: &GroundingPlan,
    engine: &Engine,
    engine_rows: &'t mut [Option<Vec<Tuple>>],
    solver_rows: &'t [Option<Vec<Tuple>>],
) -> &'t [Tuple] {
    match source {
        Source::Engine(id) => engine_rows[*id]
            .get_or_insert_with(|| engine.tuples(&plan.engine_relations[*id]))
            .as_slice(),
        Source::Solver(id) => solver_rows[*id].as_deref().unwrap_or(&[]),
    }
}

impl GroundingRun<'_> {
    // ----- var declarations -------------------------------------------------

    fn ground_var_decls(&mut self) -> Result<(), CologneError> {
        let plan = self.plan;
        for vp in &plan.var_plans {
            // A declaration whose forall relation saw no visible change since
            // the previous grounding reproduces last run's output exactly:
            // replay it from the cache instead of re-joining.
            let forall_relation = plan.relation_name(&vp.forall.source);
            let clean = self.delta.is_some_and(|d| d.is_clean(forall_relation));
            if clean && self.var_caches[vp.decl].is_some() {
                self.replay_var_decl(vp);
                continue;
            }
            let domain = vp.domain;
            let sym_start = self.cop.syms.len();
            let row_start = self.solver_rows[vp.table_id].as_ref().map_or(0, Vec::len);
            let forall_rows = source_rows(
                &vp.forall.source,
                plan,
                self.engine,
                &mut self.engine_rows,
                &self.solver_rows,
            );
            let mut slots = vec![Value::Int(0); vp.width];
            let mut rows = Vec::new();
            let mut name = String::new();
            for tuple in forall_rows {
                if !match_forall(vp.forall.ops.of(&plan.code.ops), tuple, &mut slots) {
                    continue;
                }
                if let Some(e) = &vp.error {
                    return Err(e.clone());
                }
                name.clear();
                name.push_str(&vp.table);
                name.push('[');
                for (i, v) in tuple.iter().enumerate() {
                    if i > 0 {
                        name.push(',');
                    }
                    write!(name, "{v}").expect("writing to a String");
                }
                name.push(']');
                let mut outs = vp.outs.of(&plan.code.outs).iter();
                let mut row = Vec::with_capacity(vp.is_solver_position.len());
                for &solver in &vp.is_solver_position {
                    if solver {
                        let var =
                            self.cop
                                .model
                                .new_named_var(domain.lo, domain.hi, Some(name.clone()));
                        // `var`-declared solver attributes are the COP's
                        // decision variables; the LNS mode builds its
                        // neighborhoods from them (auxiliary variables made
                        // by aggregates/expressions stay unmarked — they are
                        // functionally determined by these).
                        self.cop.model.mark_decision(var);
                        row.push(self.cop.new_sym(LinExpr::var(var)));
                    } else {
                        let out = outs.next().expect("one output per non-solver argument");
                        row.push(out_value(out, &slots));
                    }
                }
                rows.push(row);
            }
            // The table exists even if the forall relation is empty.
            self.solver_rows[vp.table_id]
                .get_or_insert_with(Vec::new)
                .extend(rows);
            if self.capture {
                self.capture_var_decl(vp, sym_start, row_start);
            }
        }
        Ok(())
    }

    /// Refresh the replay cache of a declaration that was just grounded
    /// live: its rows sit at the tail of its solver table (from `row_start`)
    /// and its variables occupy the contiguous symbol block starting at
    /// `sym_start`.
    fn capture_var_decl(&mut self, vp: &VarPlan, sym_start: usize, row_start: usize) {
        let names: Vec<String> = self.cop.syms[sym_start..]
            .iter()
            .map(|expr| {
                let var = expr.as_var().expect("var-declared symbols are variables");
                self.cop
                    .model
                    .var_name(var)
                    .expect("var-declared solver variables are named")
                    .to_string()
            })
            .collect();
        let rows = self.solver_rows[vp.table_id]
            .as_ref()
            .map(|rows| rows[row_start..].to_vec())
            .unwrap_or_default();
        self.var_caches[vp.decl] = Some(VarDeclCache {
            sym_start,
            names,
            rows,
        });
    }

    /// Replay a clean declaration from its cache: allocate the cached
    /// variables in order (identical names, domain and decision marking to a
    /// live grounding) and re-emit the cached rows with their symbolic
    /// attributes shifted onto the freshly allocated symbol block.
    fn replay_var_decl(&mut self, vp: &VarPlan) {
        let cache = self.var_caches[vp.decl]
            .take()
            .expect("replay requires a cache");
        let new_start = self.cop.syms.len();
        let domain = vp.domain;
        for name in &cache.names {
            let var = self
                .cop
                .model
                .new_named_var(domain.lo, domain.hi, Some(name.clone()));
            self.cop.model.mark_decision(var);
            self.cop.syms.push(LinExpr::var(var));
        }
        let shift = |v: &Value| match v {
            Value::Sym(s) => {
                let local = s.0 as usize - cache.sym_start;
                Value::Sym(SymId((new_start + local) as u32))
            }
            other => other.clone(),
        };
        let rows: Vec<Tuple> = cache
            .rows
            .iter()
            .map(|row| row.iter().map(shift).collect())
            .collect();
        self.solver_rows[vp.table_id]
            .get_or_insert_with(Vec::new)
            .extend(rows.iter().cloned());
        self.var_caches[vp.decl] = Some(VarDeclCache {
            sym_start: new_start,
            names: cache.names,
            rows,
        });
    }

    // ----- solver rules --------------------------------------------------------

    /// Join a rule's body element by element over the whole frontier, then
    /// emit a derivation rule's head rows. In a constraint rule the
    /// conditions are posted as hard constraints during the join and the
    /// surviving bindings are not needed.
    fn ground_rule(&mut self, rule: &RulePlan) -> Result<(), CologneError> {
        let code = &self.plan.code;
        self.frontier.start(rule.width);
        for step in rule.steps.of(&code.steps) {
            if self.frontier.len == 0 {
                break;
            }
            match step {
                Step::Join(pred) => self.join(pred, rule.force),
                Step::Filter(cond) => {
                    let mut kept = 0;
                    for r in 0..self.frontier.len {
                        let row = self.frontier.row_mut(r);
                        if self.cop.apply(code, rule, cond, row)? {
                            self.frontier.move_row(r, kept);
                            kept += 1;
                        }
                    }
                    self.frontier.truncate(kept);
                }
                Step::Assign(slot, expr) => {
                    for r in 0..self.frontier.len {
                        let row = self.frontier.row_mut(r);
                        let value = self.cop.eval(code, rule, *expr, row)?;
                        row[*slot] = self.cop.symval_to_value(value);
                    }
                }
            }
        }
        let Some(head) = &rule.head else {
            return Ok(());
        };
        if let Some(e) = &head.error {
            if self.frontier.len > 0 {
                return Err(e.clone());
            }
        }
        let outs = head.outs.of(&code.outs);
        let rows = if head.aggregate {
            self.aggregate_rows(outs)?
        } else {
            (0..self.frontier.len)
                .map(|r| {
                    let row = self.frontier.row(r);
                    outs.iter().map(|out| out_value(out, row)).collect()
                })
                .collect()
        };
        self.solver_rows[head.table]
            .get_or_insert_with(Vec::new)
            .extend(rows);
        Ok(())
    }

    /// Extend every binding of the frontier by the matching tuples of
    /// `pred`, in frontier order then table order.
    fn join(&mut self, pred: &PredPlan, force: bool) {
        let rows = source_rows(
            &pred.source,
            self.plan,
            self.engine,
            &mut self.engine_rows,
            &self.solver_rows,
        );
        let ops = pred.ops.of(&self.plan.code.ops);
        let (frontier, next, cop) = (&self.frontier, &mut self.next, &mut self.cop);
        next.clear(frontier.width);
        for r in 0..frontier.len {
            let row = frontier.row(r);
            for tuple in rows {
                cop.extend(ops, tuple, row, force, next);
            }
        }
        std::mem::swap(&mut self.frontier, &mut self.next);
    }

    /// The rows of an aggregate head: one per distinct group key (the
    /// non-aggregate columns), in key order, aggregating each group's
    /// operands in frontier order.
    fn aggregate_rows(&mut self, outs: &[Out]) -> Result<Vec<Tuple>, CologneError> {
        let frontier = &self.frontier;
        let key_of = |r: usize| {
            outs.iter().filter_map(move |out| match out {
                Out::Slot(slot) => Some(&frontier.row(r)[*slot]),
                // Constants are the same in every key.
                Out::Value(_) | Out::Agg(..) => None,
            })
        };
        let mut order: Vec<usize> = (0..frontier.len).collect();
        // Stable: a group's bindings keep their frontier order.
        order.sort_by(|&a, &b| key_of(a).cmp(key_of(b)));
        let mut rows = Vec::new();
        let mut operands = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let first = order[start];
            let end = start
                + order[start..]
                    .iter()
                    .take_while(|&&r| key_of(r).cmp(key_of(first)) == Ordering::Equal)
                    .count();
            let mut row = Vec::with_capacity(outs.len());
            for out in outs {
                row.push(match out {
                    Out::Agg(func, slot) => {
                        operands.clear();
                        operands.extend(
                            order[start..end]
                                .iter()
                                .map(|&r| self.frontier.row(r)[*slot].clone()),
                        );
                        self.cop.compute_aggregate(*func, &operands)?
                    }
                    key => out_value(key, self.frontier.row(first)),
                });
            }
            rows.push(row);
            start = end;
        }
        Ok(rows)
    }

    // ----- goal -----------------------------------------------------------------

    fn build_objective(&mut self) -> Result<ObjectiveSpec, CologneError> {
        let Some(goal) = &self.plan.goal else {
            return Ok((None, None));
        };
        if goal.kind == GoalKind::Satisfy {
            return Ok((None, Some(goal.relation.clone())));
        }
        let position = goal.position.expect("non-satisfy goals have a position");
        let rows = source_rows(
            &goal.source,
            self.plan,
            self.engine,
            &mut self.engine_rows,
            &self.solver_rows,
        );
        if rows.is_empty() {
            // Nothing to optimize: leave the objective out; the caller treats
            // the COP as trivially solved.
            return Ok((None, Some(goal.relation.clone())));
        }
        let mut objective = LinExpr::zero();
        for t in rows {
            match t.get(position) {
                Some(Value::Sym(s)) => objective.add_expr(self.cop.sym_expr(*s)),
                Some(other) => objective.add_constant(concrete_int(other)),
                None => {}
            }
        }
        // The goal attribute is materialized: the search bounds a variable.
        let objective = objective.normalized();
        let var = match objective.as_var() {
            Some(var) => var,
            None => self
                .cop
                .model
                .linear_var(&objective.terms, objective.constant),
        };
        Ok((Some((goal.kind, var)), Some(goal.relation.clone())))
    }
}

/// The value of a row-producing output under a binding.
fn out_value(out: &Out, row: &[Value]) -> Value {
    match out {
        Out::Slot(slot) => row[*slot].clone(),
        Out::Value(value) => value.clone(),
        Out::Agg(..) => unreachable!("aggregates are computed per group"),
    }
}

/// Match a `forall` predicate against a concrete tuple, binding `slots`
/// (no symbolic handling).
fn match_forall(ops: &[ArgOp], tuple: &Tuple, slots: &mut [Value]) -> bool {
    if tuple.len() != ops.len() {
        return false;
    }
    for (op, value) in ops.iter().zip(tuple) {
        match op {
            ArgOp::Bind(slot) => slots[*slot] = value.clone(),
            ArgOp::Check(slot) => {
                if &slots[*slot] != value {
                    return false;
                }
            }
            ArgOp::Same(pos) => {
                if &tuple[*pos] != value {
                    return false;
                }
            }
            ArgOp::Const(expected) => {
                if expected != value {
                    return false;
                }
            }
            ArgOp::Never => return false,
        }
    }
    true
}

impl CopBuilder {
    fn new_sym(&mut self, expr: LinExpr) -> Value {
        self.syms.push(expr);
        Value::Sym(SymId((self.syms.len() - 1) as u32))
    }

    fn sym_expr(&self, id: SymId) -> &LinExpr {
        &self.syms[id.0 as usize]
    }

    /// The variable a symbol stands for, materializing it on first need: a
    /// symbol that is not already a plain variable gets a fresh variable
    /// equal to its expression and is rebound to it, so later uses share
    /// the variable (the memo of the module docs).
    fn materialize_sym(&mut self, id: SymId) -> VarId {
        if let Some(var) = self.sym_expr(id).as_var() {
            return var;
        }
        let slot = &mut self.syms[id.0 as usize];
        let var = self.model.expr_var(slot);
        *slot = LinExpr::var(var);
        var
    }

    /// The variable a translated operand stands for (symbols are memoized,
    /// other non-trivial expressions get a fresh variable each time).
    fn symval_var(&mut self, val: SymVal) -> VarId {
        match val {
            SymVal::Sym(s) => self.materialize_sym(s),
            other => {
                let lin = self.symval_to_linear(other).normalized();
                match lin.as_var() {
                    Some(var) => var,
                    None => self.model.expr_var(&lin),
                }
            }
        }
    }

    /// Extend `row` by `tuple` into `next` if the tuple matches `pred`.
    /// With `force` (constraint rules), a clash between a bound value and a
    /// tuple value where at least one side is symbolic is accepted and
    /// turned into an equality constraint — this is how
    /// `assign(X,Y,C) -> assign(Y,X,C)` (channel symmetry) is enforced.
    fn extend(
        &mut self,
        ops: &[ArgOp],
        tuple: &Tuple,
        row: &[Value],
        force: bool,
        next: &mut Frontier,
    ) {
        if tuple.len() != ops.len() {
            return;
        }
        for (op, value) in ops.iter().zip(tuple) {
            let existing = match op {
                ArgOp::Bind(_) => continue,
                ArgOp::Check(slot) => &row[*slot],
                ArgOp::Same(pos) => &tuple[*pos],
                ArgOp::Const(expected) => {
                    if expected != value {
                        return;
                    }
                    continue;
                }
                ArgOp::Never => return,
            };
            if existing != value {
                if force && (existing.is_symbolic() || value.is_symbolic()) {
                    self.post_value_equality(existing, value);
                } else {
                    return;
                }
            }
        }
        next.push_extended(row, ops, tuple);
    }

    fn post_value_equality(&mut self, a: &Value, b: &Value) {
        let to_expr = |g: &Self, v: &Value| -> LinExpr {
            match v {
                Value::Sym(s) => g.sym_expr(*s).clone(),
                other => LinExpr::constant(concrete_int(other)),
            }
        };
        let diff = to_expr(self, a).minus(&to_expr(self, b)).normalized();
        self.model.linear_eq(&diff.terms, -diff.constant);
    }

    fn compute_aggregate(
        &mut self,
        func: AggFunc,
        operands: &[Value],
    ) -> Result<Value, CologneError> {
        let all_concrete = operands.iter().all(|v| !v.is_symbolic());
        if all_concrete {
            return Ok(func.compute(operands));
        }
        match func {
            // A sum stays an expression over its operands' expressions.
            AggFunc::Sum => {
                let mut sum = LinExpr::zero();
                for v in operands {
                    match v {
                        Value::Sym(s) => sum.add_expr(self.sym_expr(*s)),
                        other => sum.add_constant(concrete_int(other)),
                    }
                }
                return Ok(self.symval_to_value(SymVal::Linear(sum)));
            }
            AggFunc::Count => return Ok(Value::Int(operands.len() as i64)),
            _ => {}
        }
        // The remaining aggregates need their operands as variables
        // (constants become fixed variables).
        let vars: Vec<VarId> = operands
            .iter()
            .map(|v| match v {
                Value::Sym(s) => self.materialize_sym(*s),
                other => self.model.new_const(concrete_int(other)),
            })
            .collect();
        let result_var = match func {
            AggFunc::SumAbs => self.model.sum_abs_var(&vars),
            AggFunc::Unique => self.model.nvalues_var(&vars),
            AggFunc::Min => self.model.min_var(&vars),
            AggFunc::Max => self.model.max_var(&vars),
            // STDEV is lowered to the scaled integer variance
            // n·Σx² − (Σx)², which has the same argmin (see
            // `Model::scaled_variance_var`).
            AggFunc::Stdev => self.model.scaled_variance_var(&vars),
            AggFunc::Sum | AggFunc::Count => unreachable!("handled above"),
        };
        Ok(self.new_sym(LinExpr::var(result_var)))
    }

    // ----- expression translation ----------------------------------------------

    fn symval_to_value(&mut self, val: SymVal) -> Value {
        match val {
            SymVal::Concrete(c) => Value::Int(c),
            other => {
                let lin = self.symval_to_linear(other).normalized();
                if lin.terms.is_empty() {
                    Value::Int(lin.constant)
                } else {
                    self.new_sym(lin)
                }
            }
        }
    }

    fn symval_to_linear(&self, val: SymVal) -> LinExpr {
        match val {
            SymVal::Concrete(c) => LinExpr::constant(c),
            SymVal::Sym(s) => self.sym_expr(s).clone(),
            SymVal::Linear(l) => l,
            SymVal::Bool(v) => LinExpr::var(v),
        }
    }

    /// Apply a compiled body expression to a binding. Returns whether the
    /// binding survives (concrete filters may reject it). Symbolic
    /// expressions either bind new solver expressions (`C == V*Cpu`, the
    /// indicator pattern) or are posted as constraints.
    fn apply(
        &mut self,
        code: &Code,
        rule: &RulePlan,
        cond: &Cond,
        row: &mut [Value],
    ) -> Result<bool, CologneError> {
        match cond {
            Cond::Bind { slot, rhs } => {
                let val = self.eval(code, rule, *rhs, row)?;
                row[*slot] = self.symval_to_value(val);
                Ok(true)
            }
            Cond::Indicator {
                orientations,
                lhs,
                rhs,
            } => {
                for ind in orientations.iter().flatten() {
                    let k_val = match self.eval(code, rule, ind.k, row)? {
                        SymVal::Concrete(c) => c,
                        _ => continue,
                    };
                    // X ranges over {0, k}; b <=> X == k; b <=> rhs.
                    let values = if k_val == 0 {
                        vec![0, 1]
                    } else {
                        vec![0, k_val]
                    };
                    let x_var = self.model.new_var_from_values(&values);
                    let b = self.model.new_bool();
                    self.model.reif_linear_eq(b, &[(1, x_var)], k_val);
                    let cond = self.eval(code, rule, ind.rhs, row)?;
                    let cond_lin = self.symval_to_linear(cond);
                    let mut terms = vec![(1i64, b)];
                    for &(c, v) in &cond_lin.terms {
                        terms.push((-c, v));
                    }
                    self.model.linear_eq(&terms, cond_lin.constant);
                    row[ind.slot] = self.new_sym(LinExpr::var(x_var));
                    return Ok(true);
                }
                self.require(code, rule, COp::Eq, *lhs, *rhs, row)
            }
            Cond::Compare { op, lhs, rhs } => self.require(code, rule, *op, *lhs, *rhs, row),
            // Any other condition must be concrete.
            Cond::Truth(expr) => match self.eval(code, rule, *expr, row)? {
                SymVal::Concrete(c) => Ok(self.concrete_condition(c != 0, rule.force)),
                _ => Err(CologneError::UnsupportedExpression {
                    rule: code.label(rule).to_string(),
                    detail: "non-boolean expression used as a condition".into(),
                }),
            },
        }
    }

    /// A comparison that must hold, posted directly as a linear constraint
    /// over the two sides' expressions.
    fn require(
        &mut self,
        code: &Code,
        rule: &RulePlan,
        op: COp,
        lhs: Ex,
        rhs: Ex,
        row: &[Value],
    ) -> Result<bool, CologneError> {
        let lhs = self.eval(code, rule, lhs, row)?;
        let rhs = self.eval(code, rule, rhs, row)?;
        if let (SymVal::Concrete(x), SymVal::Concrete(y)) = (&lhs, &rhs) {
            return Ok(self.concrete_condition(compare(op, *x, *y), rule.force));
        }
        let diff = self
            .symval_to_linear(lhs)
            .minus(&self.symval_to_linear(rhs))
            .normalized();
        self.post_comparison(op, &diff);
        Ok(true)
    }

    /// Apply a condition whose truth value is known: a false one drops the
    /// binding in a derivation rule, and makes the model infeasible in a
    /// constraint rule (`force`). Returns whether the binding survives.
    fn concrete_condition(&mut self, holds: bool, force: bool) -> bool {
        if !holds && force {
            self.model.linear_eq(&[], 1);
        }
        holds || force
    }

    /// Post `diff op 0` as a (non-reified) linear constraint.
    fn post_comparison(&mut self, op: COp, diff: &LinExpr) {
        let (terms, rhs) = (&diff.terms[..], -diff.constant);
        match op {
            COp::Eq => self.model.linear_eq(terms, rhs),
            COp::Ne => self.model.linear_ne(terms, rhs),
            COp::Le => self.model.linear_le(terms, rhs),
            COp::Lt => self.model.linear_le(terms, rhs - 1),
            COp::Ge => self.model.linear_ge(terms, rhs),
            COp::Gt => self.model.linear_ge(terms, rhs + 1),
            _ => unreachable!("{op:?} is not a comparison"),
        }
    }

    /// Evaluate a compiled expression under a binding.
    fn eval(
        &mut self,
        code: &Code,
        rule: &RulePlan,
        expr: Ex,
        row: &[Value],
    ) -> Result<SymVal, CologneError> {
        match &code.nodes[expr] {
            Node::Slot(slot) => match &row[*slot] {
                Value::Sym(s) => Ok(SymVal::Sym(*s)),
                Value::Int(i) => Ok(SymVal::Concrete(*i)),
                Value::Bool(b) => Ok(SymVal::Concrete(i64::from(*b))),
                Value::Float(f) => Ok(SymVal::Concrete(f.0.round() as i64)),
                // Node addresses may be compared for (in)equality in rule
                // bodies (e.g. `Y != Z` in the wireless cost rules); their
                // numeric id is the natural integer view.
                Value::Addr(n) => Ok(SymVal::Concrete(n.0 as i64)),
                other => Err(CologneError::UnsupportedExpression {
                    rule: code.label(rule).to_string(),
                    detail: format!("value {other} in arithmetic expression"),
                }),
            },
            Node::Int(c) => Ok(SymVal::Concrete(*c)),
            Node::Unbound(name) => Err(CologneError::UnboundVariable {
                rule: code.label(rule).to_string(),
                variable: code.text(*name).to_string(),
            }),
            Node::Fail(e) => Err((**e).clone()),
            Node::Neg(inner) => {
                let v = self.eval(code, rule, *inner, row)?;
                Ok(match v {
                    SymVal::Concrete(c) => SymVal::Concrete(-c),
                    other => SymVal::Linear(self.symval_to_linear(other).scale(-1)),
                })
            }
            Node::Abs(inner) => {
                let v = self.eval(code, rule, *inner, row)?;
                match v {
                    SymVal::Concrete(c) => Ok(SymVal::Concrete(c.abs())),
                    other => {
                        let base = self.symval_var(other);
                        let abs = self.model.abs_var(base);
                        Ok(SymVal::Linear(LinExpr::var(abs)))
                    }
                }
            }
            Node::Bin(op, a, b) => {
                let lhs = self.eval(code, rule, *a, row)?;
                let rhs = self.eval(code, rule, *b, row)?;
                self.translate_binop(code.label(rule), *op, lhs, rhs)
            }
        }
    }

    fn translate_binop(
        &mut self,
        label: &str,
        op: COp,
        lhs: SymVal,
        rhs: SymVal,
    ) -> Result<SymVal, CologneError> {
        use COp::*;
        match op {
            Add | Sub => {
                if let (SymVal::Concrete(a), SymVal::Concrete(b)) = (&lhs, &rhs) {
                    return Ok(SymVal::Concrete(if op == Add { a + b } else { a - b }));
                }
                let l = self.symval_to_linear(lhs);
                let r = self.symval_to_linear(rhs);
                Ok(SymVal::Linear(if op == Add {
                    l.plus(&r)
                } else {
                    l.minus(&r)
                }))
            }
            Mul => match (lhs, rhs) {
                (SymVal::Concrete(a), SymVal::Concrete(b)) => Ok(SymVal::Concrete(a * b)),
                (SymVal::Concrete(a), other) | (other, SymVal::Concrete(a)) => {
                    let l = self.symval_to_linear(other);
                    Ok(SymVal::Linear(l.scale(a)))
                }
                (a, b) => {
                    let va = self.symval_var(a);
                    let vb = self.symval_var(b);
                    let prod = self.model.mul_var(va, vb);
                    Ok(SymVal::Linear(LinExpr::var(prod)))
                }
            },
            Div => match (lhs, rhs) {
                (SymVal::Concrete(a), SymVal::Concrete(b)) if b != 0 => Ok(SymVal::Concrete(a / b)),
                _ => Err(CologneError::UnsupportedExpression {
                    rule: label.to_string(),
                    detail: "division involving solver variables".into(),
                }),
            },
            Eq | Ne | Lt | Le | Gt | Ge => {
                if let (SymVal::Concrete(a), SymVal::Concrete(b)) = (&lhs, &rhs) {
                    return Ok(SymVal::Concrete(i64::from(compare(op, *a, *b))));
                }
                let l = self.symval_to_linear(lhs);
                let r = self.symval_to_linear(rhs);
                let diff = l.minus(&r).normalized();
                let b = self.model.new_bool();
                match op {
                    Eq => self.model.reif_linear_eq(b, &diff.terms, -diff.constant),
                    Ne => {
                        let beq = self.model.new_bool();
                        self.model.reif_linear_eq(beq, &diff.terms, -diff.constant);
                        // b = 1 - beq
                        self.model.linear_eq(&[(1, b), (1, beq)], 1);
                    }
                    Le => self.model.reif_linear_le(b, &diff.terms, -diff.constant),
                    Lt => self
                        .model
                        .reif_linear_le(b, &diff.terms, -diff.constant - 1),
                    Ge => {
                        let neg: Vec<(i64, VarId)> =
                            diff.terms.iter().map(|&(c, v)| (-c, v)).collect();
                        self.model.reif_linear_le(b, &neg, diff.constant);
                    }
                    Gt => {
                        let neg: Vec<(i64, VarId)> =
                            diff.terms.iter().map(|&(c, v)| (-c, v)).collect();
                        self.model.reif_linear_le(b, &neg, diff.constant - 1);
                    }
                    _ => unreachable!(),
                }
                Ok(SymVal::Bool(b))
            }
        }
    }
}

/// The integer a concrete value contributes to solver arithmetic.
fn concrete_int(value: &Value) -> i64 {
    value.as_f64().unwrap_or(0.0).round() as i64
}

/// Truth value of a comparison between two known integers.
fn compare(op: COp, a: i64, b: i64) -> bool {
    match op {
        COp::Eq => a == b,
        COp::Ne => a != b,
        COp::Lt => a < b,
        COp::Le => a <= b,
        COp::Gt => a > b,
        COp::Ge => a >= b,
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cologne_colog::{analyze, parse_program, VarDomain};
    use cologne_datalog::NodeId;
    use cologne_solver::{LinearView, SearchConfig};

    const MINI_ACLOUD: &str = r#"
        goal minimize C in hostStdevCpu(C).
        var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
        r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
        d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
        d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
        d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
        c1 assignCount(Vid,V) -> V==1.
        d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
        c2 hostMem(Hid,Mem) -> hostMemThres(Hid,M), Mem<=M.
    "#;

    fn mini_acloud_engine() -> Engine {
        // two hosts (idle), two VMs of 40 and 20 CPU units, plenty of memory
        let mut e = Engine::new(NodeId(0));
        for (vid, cpu, mem) in [(1, 40, 4), (2, 20, 4)] {
            e.insert(
                "vm",
                vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)],
            );
        }
        for hid in [10, 11] {
            e.insert("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]);
            e.insert("hostMemThres", vec![Value::Int(hid), Value::Int(8)]);
        }
        e
    }

    fn ground_mini_acloud(engine: &mut Engine, program_src: &str) -> GroundedCop {
        let program = parse_program(program_src).unwrap();
        let analysis = analyze(&program).unwrap();
        let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
        // install the regular rule so toAssign is materialized
        for (idx, rule) in program.rules.iter().enumerate() {
            if analysis.class_of(idx) == RuleClass::Regular {
                engine.add_rule(crate::translate::rule_to_datalog(rule, &params).unwrap());
            }
        }
        engine.run();
        ground(&program, &analysis, &params, engine).unwrap()
    }

    #[test]
    fn acloud_grounding_creates_expected_structure() {
        let mut engine = mini_acloud_engine();
        let cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        // 2 VMs x 2 hosts = 4 assignment variables
        assert_eq!(cop.solver_tables["assign"].len(), 4);
        assert_eq!(cop.solver_tables["hostCpu"].len(), 2);
        assert_eq!(cop.solver_tables["hostStdevCpu"].len(), 1);
        assert_eq!(cop.solver_tables["assignCount"].len(), 2);
        assert!(cop.objective.is_some());
        assert!(!cop.is_trivial());
    }

    #[test]
    fn acloud_optimum_balances_load() {
        let mut engine = mini_acloud_engine();
        let cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        let (kind, obj) = cop.objective.unwrap();
        assert_eq!(kind, GoalKind::Minimize);
        let outcome = cop.model.minimize(obj, &SearchConfig::default());
        let best = outcome.best.expect("feasible");
        // each VM on its own host (load 40 vs 20 beats 60 vs 0)
        let mut per_host = std::collections::BTreeMap::new();
        for row in &cop.solver_tables["assign"] {
            let vid = row[0].as_int().unwrap();
            let hid = row[1].as_int().unwrap();
            let v = cop.resolve(&row[2], &best).as_int().unwrap();
            if v == 1 {
                let cpu = if vid == 1 { 40 } else { 20 };
                *per_host.entry(hid).or_insert(0) += cpu;
            }
        }
        let loads: Vec<i64> = per_host.values().copied().collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads.iter().sum::<i64>(), 60);
        assert!((loads[0] - loads[1]).abs() == 20, "loads {loads:?}");
    }

    #[test]
    fn memory_constraint_forces_spread() {
        // Hosts only have 4 memory units, each VM needs 4: VMs must spread.
        let mut e = Engine::new(NodeId(0));
        for (vid, cpu, mem) in [(1, 10, 4), (2, 10, 4)] {
            e.insert(
                "vm",
                vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)],
            );
        }
        for hid in [10, 11] {
            e.insert("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]);
            e.insert("hostMemThres", vec![Value::Int(hid), Value::Int(4)]);
        }
        let cop = ground_mini_acloud(&mut e, MINI_ACLOUD);
        let (_, obj) = cop.objective.unwrap();
        let outcome = cop.model.minimize(obj, &SearchConfig::default());
        let best = outcome.best.expect("feasible");
        for hid in [10i64, 11] {
            let mem: i64 = cop.solver_tables["assign"]
                .iter()
                .filter(|r| r[1].as_int() == Some(hid))
                .map(|r| cop.resolve(&r[2], &best).as_int().unwrap() * 4)
                .sum();
            assert!(mem <= 4, "host {hid} over memory: {mem}");
        }
    }

    /// A fixed ACloud snapshot: 6 one-GB VMs over 4 hosts with background
    /// load and room for 2 VMs each.
    fn acloud_snapshot_engine() -> Engine {
        let mut e = Engine::new(NodeId(0));
        for (vid, cpu, mem) in [
            (1, 45, 1),
            (2, 60, 1),
            (3, 30, 1),
            (4, 80, 1),
            (5, 25, 1),
            (6, 50, 1),
        ] {
            e.insert(
                "vm",
                vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)],
            );
        }
        for (hid, background) in [(10, 12), (11, 0), (12, 30), (13, 5)] {
            e.insert(
                "host",
                vec![Value::Int(hid), Value::Int(background), Value::Int(0)],
            );
            e.insert("hostMemThres", vec![Value::Int(hid), Value::Int(2)]);
        }
        e
    }

    /// The lowering of [`acloud_snapshot_engine`]: 35 variables and 21
    /// propagators, where one variable per symbolic attribute and one
    /// reified boolean per forced comparison took 82 and 68.
    #[test]
    fn acloud_lowering_has_no_aliases_or_forced_reifications() {
        let mut engine = acloud_snapshot_engine();
        let mut cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        // 24 decisions, 4 materialized host loads (the STDEV operands), and
        // the scaled variance's 4 squares, sum, squared sum and result.
        assert_eq!(cop.model.decision_vars().len(), 24);
        assert_eq!(cop.model.num_vars(), 35);
        // 4 host-load equalities, 7 scaled-variance propagators, one
        // `Σ assign == 1` per VM (c1) and one memory `≤` per host (c2).
        assert_eq!(cop.model.num_propagators(), 21);
        let (_, objective) = cop.objective.expect("minimize goal");
        assert_eq!(objective.index(), 34, "the STDEV variable is the goal");
        for p in cop.model.propagators() {
            if let Some(LinearView::Eq { terms, bound: 0 }) = p.linear_view() {
                let alias = terms.len() == 2 && terms.iter().any(|&(c, _)| c.abs() == 1);
                assert!(!alias, "alias equality {terms:?} survived");
            }
        }
        cop.model.propagate_root().expect("snapshot is feasible");
        for p in cop.model.propagators() {
            if p.name().starts_with("reif_") {
                let b = *p.dependencies().last().expect("reified boolean");
                assert!(
                    !cop.model.domain(b).is_fixed(),
                    "{} fixed at root",
                    p.name()
                );
            }
        }
        // Derived solver attributes resolve through their expressions.
        let best = cop.solve(&SearchConfig::default()).best.expect("feasible");
        for row in &cop.solver_tables["hostCpu"] {
            let hid = row[0].clone();
            let expected: i64 = cop.solver_tables["assign"]
                .iter()
                .filter(|a| a[1] == hid)
                .map(|a| {
                    let cpu = engine
                        .tuples("vm")
                        .iter()
                        .find(|vm| vm[0] == a[0])
                        .and_then(|vm| vm[1].as_int())
                        .unwrap();
                    cop.resolve(&a[2], &best).as_int().unwrap() * cpu
                })
                .sum();
            assert_eq!(cop.resolve(&row[1], &best), Value::Int(expected));
        }
    }

    #[test]
    fn shared_symbol_is_materialized_once() {
        // The host loads feed two aggregates that need variables: each load
        // is materialized once and both aggregates share it.
        let src = r#"
            goal minimize C in hostStdevCpu(C).
            var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
            r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
            d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
            d2 hostLoad(Hid,C) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
            d3 hostStdevCpu(STDEV<C>) <- hostLoad(Hid,C).
            d4 hostPeak(MAX<C>) <- hostLoad(Hid,C).
            d5 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
            c1 assignCount(Vid,V) -> V==1.
        "#;
        let mut engine = acloud_snapshot_engine();
        let cop = ground_mini_acloud(&mut engine, src);
        // 24 decisions + 4 loads + 7 scaled-variance variables + 1 maximum.
        assert_eq!(cop.model.num_vars(), 36);
        let best = cop.solve(&SearchConfig::default()).best.expect("feasible");
        let loads: Vec<i64> = cop.solver_tables["hostLoad"]
            .iter()
            .map(|row| cop.resolve(&row[1], &best).as_int().unwrap())
            .collect();
        let peak = cop.resolve(&cop.solver_tables["hostPeak"][0][0], &best);
        assert_eq!(peak, Value::Int(*loads.iter().max().unwrap()));
    }

    #[test]
    fn forced_comparisons_post_plain_linear_constraints() {
        // Every operator of a forced comparison lowers to one linear
        // propagator over the decision variable, with no reified boolean.
        for (cmp, name) in [
            ("V==1", "linear_eq"),
            ("V!=0", "linear_ne"),
            ("1<=V", "linear_le"),
            ("0<V", "linear_le"),
            ("V>=1", "linear_le"),
            ("V>0", "linear_le"),
        ] {
            let src = format!(
                "goal satisfy V in assign(Vid,Hid,V).
                var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
                r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
                c1 assign(Vid,Hid,V) -> {cmp}."
            );
            let mut engine = mini_acloud_engine();
            let cop = ground_mini_acloud(&mut engine, &src);
            assert_eq!(cop.model.num_vars(), 4, "{cmp}");
            let names: Vec<&str> = cop.model.propagators().iter().map(|p| p.name()).collect();
            assert_eq!(names, vec![name; 4], "{cmp}");
            let best = cop.solve(&SearchConfig::default()).best.expect("feasible");
            for row in &cop.solver_tables["assign"] {
                assert_eq!(cop.resolve(&row[2], &best), Value::Int(1), "{cmp}");
            }
        }
    }

    #[test]
    fn empty_workload_is_trivial() {
        let mut engine = Engine::new(NodeId(0));
        let cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        assert!(cop.is_trivial());
        assert!(cop.objective.is_none());
    }

    #[test]
    fn indicator_pattern_counts_migrations() {
        // Reproduces rules d5/d6/c3 from Sec. 4.2: limit migrations to 0 so
        // the optimal balanced placement is forbidden and VMs stay put.
        let src = format!(
            "{MINI_ACLOUD}
            d5 migrate(Vid,Hid1,Hid2,C) <- assign(Vid,Hid1,V), origin(Vid,Hid2), Hid1!=Hid2, (V==1)==(C==1).
            d6 migrateCount(SUM<C>) <- migrate(Vid,Hid1,Hid2,C).
            c3 migrateCount(C) -> C<=max_migrates.
            "
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze(&program).unwrap();
        let params = ProgramParams::new()
            .with_var_domain("assign", VarDomain::BOOL)
            .with_constant("max_migrates", 0);
        let mut engine = mini_acloud_engine();
        // both VMs currently on host 10
        engine.insert("origin", vec![Value::Int(1), Value::Int(10)]);
        engine.insert("origin", vec![Value::Int(2), Value::Int(10)]);
        for (idx, rule) in program.rules.iter().enumerate() {
            if analysis.class_of(idx) == RuleClass::Regular {
                engine.add_rule(crate::translate::rule_to_datalog(rule, &params).unwrap());
            }
        }
        engine.run();
        let cop = ground(&program, &analysis, &params, &engine).unwrap();
        let (_, obj) = cop.objective.unwrap();
        let best = cop
            .model
            .minimize(obj, &SearchConfig::default())
            .best
            .expect("feasible");
        // With zero migrations allowed, both VMs must remain on host 10.
        for row in &cop.solver_tables["assign"] {
            let hid = row[1].as_int().unwrap();
            let v = cop.resolve(&row[2], &best).as_int().unwrap();
            assert_eq!(v, i64::from(hid == 10), "row {row:?}");
        }
    }

    #[test]
    fn missing_parameter_is_reported() {
        let src = format!(
            "{MINI_ACLOUD}
            d6 migrateCount(SUM<V>) <- assign(Vid,Hid,V).
            c3 migrateCount(C) -> C<=max_migrates.
            "
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze(&program).unwrap();
        let params = ProgramParams::new();
        let mut engine = mini_acloud_engine();
        for (idx, rule) in program.rules.iter().enumerate() {
            if analysis.class_of(idx) == RuleClass::Regular {
                engine.add_rule(crate::translate::rule_to_datalog(rule, &params).unwrap());
            }
        }
        engine.run();
        let err = match ground(&program, &analysis, &params, &engine) {
            Err(e) => e,
            Ok(_) => panic!("grounding should fail without max_migrates"),
        };
        assert!(matches!(
            err,
            CologneError::UnboundVariable { .. } | CologneError::MissingParameter(_)
        ));
    }
}
