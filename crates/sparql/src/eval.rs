//! SPARQL query evaluation over any [`feo_rdf::GraphView`].
//!
//! The evaluator executes the AST directly with solution sets (vectors of
//! bindings) flowing through group-pattern elements, matching the SPARQL
//! algebra: triples blocks join, OPTIONAL left-joins, UNION concatenates,
//! MINUS anti-joins on shared domains, BIND extends, VALUES joins an
//! inline table. BGPs run in the order and with the join operator (nested
//! or hash) of a [`Plan`] compiled from the view's statistics; a group
//! without a plan (an EXISTS body) runs its patterns in author order.
//!
//! A FILTER has group scope but runs where the plan placed it, once its
//! variables are final (`GroupPlan::filters`; at group end without a
//! plan), dropping the same rows in the same order. Correlated
//! sub-patterns — an EXISTS group, an OPTIONAL's right side — run once
//! per distinct key: the row's values on the slots they mention.
//!
//! Evaluation is read-only: the input is any [`feo_rdf::GraphView`]
//! (a `&Graph`, an [`feo_rdf::Overlay`] session, or the `&mut Graph`
//! older call sites still hold). Computed terms (query constants, BIND /
//! SELECT expressions, VALUES data) are interned into a private scratch
//! overlay that is dropped when evaluation finishes, so the caller's
//! dictionary is never polluted by the queries it answers. Each query
//! constant is resolved, and each REGEX pattern compiled, once per
//! execution ([`Memo`]).
//!
//! Rows stay term ids to the end: ORDER BY ranks each distinct key id
//! once and sorts rows by rank, projection and DISTINCT work on one flat
//! id buffer, and only the cells that OFFSET / LIMIT keep are decoded
//! into the [`SolutionTable`]'s terms.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use feo_rdf::governor::{Exhausted, Guard};
use feo_rdf::vocab::xsd;
use feo_rdf::{Graph, GraphStore, GraphView, Overlay, Term, TermId, Triple};

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::parser::parse_query;
use crate::plan::{
    plan_query, BgpPlan, ElementPlan, GroupPlan, JoinAlgo, Plan, QueryOptions, HASH_JOIN_MIN,
};
use crate::regexlite::Regex;
use crate::results::{QueryResult, SolutionTable};
use crate::value::{
    as_integer, as_numeric, as_string, ebv, order_key, str_builtin, values_compare, values_equal,
    OrderKey, Value,
};

/// One solution: a slot per registered variable.
type Binding = Vec<Option<TermId>>;

// Process-wide join-operator invocation counters, one per physical
// algorithm. Bumped once per operator execution (not per row) with
// relaxed ordering — they feed the service's `/stats` endpoint and the
// benchmarks' sanity checks, never synchronization.
static NESTED_JOINS: AtomicU64 = AtomicU64::new(0);
static HASH_JOINS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the cumulative per-algorithm join-operator counts for
/// this process.
///
/// `merge` and `leapfrog` are always 0: the sort-merge and leapfrog
/// operators they counted were deleted, and the fields stay only
/// because the benchmark's trace (`benchmark/src/trace.rs`) still
/// reads them; they go when that file drops them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounters {
    pub nested: u64,
    pub hash: u64,
    pub merge: u64,
    pub leapfrog: u64,
}

/// Reads the process-wide join counters (see [`JoinCounters`]).
pub fn join_counters() -> JoinCounters {
    JoinCounters {
        nested: NESTED_JOINS.load(Ordering::Relaxed),
        hash: HASH_JOINS.load(Ordering::Relaxed),
        ..JoinCounters::default()
    }
}

/// Parses and executes `text` against any [`GraphView`].
///
/// The one SPARQL entry point: [`QueryOptions`] carries the execution
/// [`Guard`] (input-size cap on the query text, solution budget on
/// join-row production, deadline / cancellation polling in hot loops —
/// a tripped budget surfaces as [`SparqlError::Exhausted`]) and EXPLAIN
/// mode (return the rendered plan as [`QueryResult::Plan`] instead of
/// executing).
///
/// The view is read-only; computed terms (query constants, BIND results,
/// VALUES data) are interned into a private scratch [`Overlay`] that is
/// discarded with the evaluation, so the caller's dictionary and triple
/// set are untouched. Pass `&graph` for shared reads; `&mut graph` still
/// compiles for older call sites.
pub fn query<G: GraphView>(graph: G, text: &str, opts: &QueryOptions) -> Result<QueryResult> {
    if let Some(guard) = opts.guard {
        guard.check_input(text.len())?;
    }
    let q = parse_query(text)?;
    execute(graph, &q, opts)
}

/// Executes a parsed query (see [`query`] for the options contract).
///
/// The query is compiled to a [`Plan`] from the view's statistics before
/// any row flows; callers that reuse one plan across many executions
/// should compile once with [`plan_query`] and call [`execute_prepared`].
pub fn execute<G: GraphView>(graph: G, q: &Query, opts: &QueryOptions) -> Result<QueryResult> {
    let plan = plan_query(&graph, q);
    execute_prepared(graph, q, &plan, opts)
}

/// Executes a parsed query with a previously compiled [`Plan`]:
/// [`execute_seeded`] with no seed.
pub fn execute_prepared<G: GraphView>(
    graph: G,
    q: &Query,
    plan: &Plan,
    opts: &QueryOptions,
) -> Result<QueryResult> {
    execute_seeded(graph, q, plan, &[], opts)
}

/// Executes a parsed query with a previously compiled [`Plan`] from a
/// seed row binding each named variable to its term, as a leading `BIND`
/// would (a term the view lacks is interned into the scratch overlay).
///
/// The plan must come from [`crate::plan_seeded`] on the same query and
/// seeded names: its filter placement is trusted. A plan whose shape does
/// not match runs the mismatched nodes' patterns in author order rather
/// than misevaluating; [`Plan::default`] runs without one.
pub fn execute_seeded<G: GraphView>(
    graph: G,
    q: &Query,
    plan: &Plan,
    seed: &[(&str, Term)],
    opts: &QueryOptions,
) -> Result<QueryResult> {
    if opts.explain {
        return Ok(QueryResult::Plan(plan.render(q)));
    }
    let mut vars = VarTable::default();
    register_group_vars(&q.where_pattern, &mut vars);
    register_modifier_vars(q, &mut vars);
    let mut ctx = Ctx {
        g: Overlay::new(graph),
        vars,
        force: opts.force_join,
        guard: opts.guard,
        tripped: Cell::new(None),
        key_slots: Vec::new(),
        exists: FxMap::default(),
        memo: Memo::default(),
    };
    let mut row = vec![None; ctx.vars.len()];
    for (name, term) in seed {
        let slot = ctx.vars.get(name).ok_or_else(|| {
            SparqlError::eval(format!("seeded variable ?{name} is not in the query"))
        })?;
        row[slot] = Some(ctx.g.intern(term));
    }

    let rows = ctx.eval_group(&q.where_pattern, vec![row], Some(&plan.root))?;

    let result = match &q.form {
        QueryForm::Ask => Ok(QueryResult::Boolean(!rows.is_empty())),
        QueryForm::Construct { template } => ctx.construct(template, rows),
        QueryForm::Select {
            distinct,
            reduced,
            projection,
        } => ctx.select(q, projection, *distinct || *reduced, rows),
    };
    // A trip recorded inside an infallible path (e.g. property-path
    // closure) surfaces here even if the rest of evaluation completed.
    if let Some(exhausted) = ctx.tripped.get() {
        return Err(SparqlError::Exhausted(exhausted));
    }
    result
}

/// Variable registry: maps names (and blank-node labels, prefixed with
/// `_:`) to binding slots. Registration order is deterministic, so the
/// planner (which builds its own table from the same query) sees the
/// same slot numbering as the evaluator.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarTable {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl VarTable {
    fn len(&self) -> usize {
        self.names.len()
    }

    fn slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// What a walk reports: a variable (a blank-node label spelled
/// `_:label`), a `BIND` (it fails on a row that already binds its
/// target) or a `BNODE()` call (a fresh node per evaluation).
pub(crate) enum Seen<'q> {
    Var(&'q str),
    Bind,
    BNode,
}

/// Reports everything `group` mentions, EXISTS groups included, in the
/// order that fixes slot numbering.
fn walk_group(group: &GroupPattern, f: &mut dyn FnMut(Seen<'_>)) {
    for el in &group.elements {
        walk_element(el, f);
    }
}

pub(crate) fn walk_element(el: &GroupElement, f: &mut dyn FnMut(Seen<'_>)) {
    match el {
        GroupElement::Triples(ts) => {
            for t in ts {
                walk_term(&t.subject, f);
                if let Path::Var(v) = &t.path {
                    f(Seen::Var(v));
                }
                walk_term(&t.object, f);
            }
        }
        GroupElement::Optional(g) | GroupElement::Minus(g) | GroupElement::Group(g) => {
            walk_group(g, f)
        }
        GroupElement::Union(arms) => {
            for a in arms {
                walk_group(a, f);
            }
        }
        GroupElement::Filter(e) => walk_expr(e, f),
        GroupElement::Bind(e, v) => {
            walk_expr(e, f);
            f(Seen::Var(v));
            f(Seen::Bind);
        }
        GroupElement::Values(vb) => {
            for v in &vb.vars {
                f(Seen::Var(v));
            }
        }
    }
}

fn walk_term(tp: &TermPattern, f: &mut dyn FnMut(Seen<'_>)) {
    match tp {
        TermPattern::Var(v) => f(Seen::Var(v)),
        TermPattern::Blank(l) => f(Seen::Var(&format!("_:{l}"))),
        _ => {}
    }
}

fn walk_expr(e: &Expr, f: &mut dyn FnMut(Seen<'_>)) {
    match e {
        Expr::Var(v) => f(Seen::Var(v)),
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Not(a) | Expr::UnaryMinus(a) => walk_expr(a, f),
        Expr::In(a, list, _) => {
            walk_expr(a, f);
            for e in list {
                walk_expr(e, f);
            }
        }
        Expr::Call(builtin, args) => {
            if *builtin == Builtin::BNode {
                f(Seen::BNode);
            }
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Exists(g, _) => walk_group(g, f),
        Expr::Aggregate(agg) => {
            if let Some(inner) = &agg.expr {
                walk_expr(inner, f);
            }
        }
        Expr::Iri(_) | Expr::Literal(_) => {}
    }
}

/// The slots a walk mentions (ascending) and whether it binds or mints.
#[derive(Default)]
pub(crate) struct Mentions {
    pub(crate) slots: Vec<usize>,
    pub(crate) binds: bool,
    pub(crate) mints: bool,
}

impl Mentions {
    pub(crate) fn of(vars: &VarTable, walk: impl FnOnce(&mut dyn FnMut(Seen<'_>))) -> Mentions {
        let mut m = Mentions::default();
        walk(&mut |seen| match seen {
            Seen::Var(v) => m.slots.extend(vars.get(v)),
            Seen::Bind => m.binds = true,
            Seen::BNode => m.mints = true,
        });
        m.slots.sort_unstable();
        m.slots.dedup();
        m
    }
}

pub(crate) fn register_group_vars(group: &GroupPattern, vars: &mut VarTable) {
    walk_group(group, &mut |seen| {
        if let Seen::Var(v) = seen {
            vars.slot(v);
        }
    });
}

fn register_expr_vars(e: &Expr, vars: &mut VarTable) {
    walk_expr(e, &mut |seen| {
        if let Seen::Var(v) = seen {
            vars.slot(v);
        }
    });
}

pub(crate) fn register_modifier_vars(q: &Query, vars: &mut VarTable) {
    if let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &q.form
    {
        for item in items {
            match item {
                ProjectionItem::Var(v) => {
                    vars.slot(v);
                }
                ProjectionItem::Expr(e, v) => {
                    register_expr_vars(e, vars);
                    vars.slot(v);
                }
            }
        }
    }
    for gc in &q.modifiers.group_by {
        match gc {
            GroupCondition::Var(v) => {
                vars.slot(v);
            }
            GroupCondition::Expr(e, alias) => {
                register_expr_vars(e, vars);
                if let Some(a) = alias {
                    vars.slot(a);
                }
            }
        }
    }
    for h in &q.modifiers.having {
        register_expr_vars(h, vars);
    }
    for oc in &q.modifiers.order_by {
        register_expr_vars(&oc.expr, vars);
    }
}

struct Ctx<'a, G: GraphView> {
    /// Scratch overlay over the caller's view: reads fall through to the
    /// base, while evaluator-created terms (ground query constants not in
    /// the base dictionary, BIND/SELECT expression results, fresh blank
    /// nodes) spill into the overlay's private dictionary. A ground term
    /// absent from the base gets a spill id that matches no triple, which
    /// preserves the "unknown constant finds nothing" semantics.
    g: Overlay<G>,
    vars: VarTable,
    /// Join-algorithm override from [`QueryOptions::force_join`]: swaps
    /// the physical operator per planned step without touching join
    /// order (results are byte-identical under every algorithm).
    force: Option<JoinAlgo>,
    /// Execution governor; `None` runs unguarded.
    guard: Option<&'a Guard>,
    /// Trip recorded from `&self` evaluation paths (property-path
    /// closures) that cannot return a `Result`; checked at element
    /// boundaries and again when evaluation finishes.
    tripped: Cell<Option<Exhausted>>,
    /// Key slots of each correlated sub-pattern met so far, by address
    /// (a query has a handful: a scan beats hashing).
    key_slots: Vec<(usize, Option<Vec<usize>>)>,
    /// `EXISTS` results by (group address, key).
    exists: FxMap<(usize, SlotKey), bool>,
    memo: Memo,
}

/// What an execution resolves once and then reuses: each query constant
/// by the address of its AST node, so an EXISTS body, an OPTIONAL side or
/// a filter that runs again per key or per row looks nothing up twice,
/// and each compiled REGEX / REPLACE pattern (`None`: it does not
/// compile) by its text and flags.
#[derive(Default)]
struct Memo {
    terms: FxMap<usize, Option<TermId>>,
    regexes: HashMap<(String, String), Option<Regex>>,
}

impl<'a, G: GraphView> Ctx<'a, G> {
    /// Amortized governor poll for `&self` hot loops. Returns true when
    /// execution should stop; the trip is stashed in `self.tripped` and
    /// surfaced as an error at the next fallible boundary.
    #[inline]
    fn guard_tripped(&self) -> bool {
        if self.tripped.get().is_some() {
            return true;
        }
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped.set(Some(exhausted));
                return true;
            }
        }
        false
    }

    /// Fallible governor checkpoint: converts a recorded or fresh trip
    /// into a typed error.
    fn checkpoint(&self) -> Result<()> {
        if let Some(exhausted) = self.tripped.get() {
            return Err(SparqlError::Exhausted(exhausted));
        }
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped.set(Some(exhausted));
                return Err(SparqlError::Exhausted(exhausted));
            }
        }
        Ok(())
    }

    /// Charges `n` produced join rows against the solution budget.
    fn charge_solutions(&self, n: usize) -> Result<()> {
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.add_solutions(n as u64) {
                self.tripped.set(Some(exhausted));
                return Err(SparqlError::Exhausted(exhausted));
            }
        }
        Ok(())
    }

    // ---- group patterns ------------------------------------------------

    /// Evaluates one group pattern. `plan` (when present) is walked in
    /// lockstep with `group.elements`: element `i` consults plan node
    /// `i`, recursing with the matching subplan. A shape mismatch at any
    /// node simply drops the plan for that node — evaluation stays
    /// correct, only the precomputed order is lost.
    /// A FILTER runs where the plan placed it, or else at group end.
    fn eval_group(
        &mut self,
        group: &GroupPattern,
        input: Vec<Binding>,
        plan: Option<&GroupPlan>,
    ) -> Result<Vec<Binding>> {
        let placed: &[(usize, usize)] = plan.map_or(&[], |p| &p.filters);
        let mut next_placed = 0;
        let mut late: Vec<&Expr> = Vec::new();
        let mut rows = input;
        for (i, el) in group.elements.iter().enumerate() {
            self.run_placed(group, placed, &mut next_placed, i, &mut rows);
            self.checkpoint()?;
            let sub = plan.and_then(|p| p.elements.get(i));
            match el {
                GroupElement::Filter(e) if placed.iter().all(|&(_, f)| f != i) => late.push(e),
                GroupElement::Filter(_) => {}
                GroupElement::Triples(ts) => {
                    let bp = match sub {
                        Some(ElementPlan::Bgp(bp)) => Some(bp),
                        _ => None,
                    };
                    rows = self.eval_bgp(ts, rows, bp)?;
                }
                GroupElement::Group(inner) => {
                    let gp = match sub {
                        Some(ElementPlan::Group(gp)) => Some(gp),
                        _ => None,
                    };
                    rows = self.eval_group(inner, rows, gp)?;
                }
                GroupElement::Optional(inner) => {
                    let gp = match sub {
                        Some(ElementPlan::Optional(gp)) => Some(gp),
                        _ => None,
                    };
                    rows = self.left_join(inner, rows, gp)?;
                }
                GroupElement::Union(arms) => {
                    let arm_plans = match sub {
                        Some(ElementPlan::Union(ps)) => Some(ps),
                        _ => None,
                    };
                    let mut out = Vec::new();
                    for (j, arm) in arms.iter().enumerate() {
                        let ap = arm_plans.and_then(|ps| ps.get(j));
                        out.extend(self.eval_group(arm, rows.clone(), ap)?);
                    }
                    rows = out;
                }
                GroupElement::Minus(inner) => {
                    let gp = match sub {
                        Some(ElementPlan::Minus(gp)) => Some(gp),
                        _ => None,
                    };
                    let empty = vec![vec![None; self.vars.len()]];
                    let rhs = self.eval_group(inner, empty, gp)?;
                    // Drop a row compatible with some right-hand row on a
                    // non-empty shared domain.
                    rows.retain(|b| {
                        !rhs.iter().any(|r| {
                            let mut shared =
                                b.iter().zip(r).filter_map(|(x, y)| x.zip(*y)).peekable();
                            shared.peek().is_some() && shared.all(|(x, y)| x == y)
                        })
                    });
                }
                GroupElement::Bind(e, v) => {
                    let slot = self
                        .vars
                        .get(v)
                        .ok_or_else(|| SparqlError::eval("unregistered BIND variable"))?;
                    for b in &mut rows {
                        if b[slot].is_some() {
                            return Err(SparqlError::eval(format!(
                                "BIND would rebind already-bound variable ?{v}"
                            )));
                        }
                        if let Some(val) = self.eval_expr(e, b) {
                            b[slot] = Some(val.into_term_id(&mut self.g));
                        }
                    }
                }
                GroupElement::Values(vb) => {
                    let slots: Vec<usize> = vb
                        .vars
                        .iter()
                        .map(|v| {
                            self.vars.get(v).ok_or_else(|| {
                                SparqlError::eval(format!("VALUES variable ?{v} is not registered"))
                            })
                        })
                        .collect::<Result<_>>()?;
                    // Intern the data terms.
                    let table: Vec<Vec<Option<TermId>>> = vb
                        .rows
                        .iter()
                        .map(|row| {
                            row.iter()
                                .map(|cell| {
                                    cell.as_ref().map(|tp| self.intern_ground(tp)).transpose()
                                })
                                .collect::<Result<_>>()
                        })
                        .collect::<Result<_>>()?;
                    let mut out = Vec::new();
                    for b in &rows {
                        for trow in &table {
                            let mut merged = b.clone();
                            let mut cells = slots.iter().zip(trow);
                            if cells.all(|(&s, cell)| {
                                cell.is_none_or(|y| bind(&mut merged, Some(s), y))
                            }) {
                                out.push(merged);
                            }
                        }
                    }
                    rows = out;
                }
            }
        }
        self.run_placed(group, placed, &mut next_placed, usize::MAX, &mut rows);
        for f in late {
            rows.retain(|b| self.filter_passes(f, b));
        }
        Ok(rows)
    }

    /// Runs the placed filters due once `point` elements have run;
    /// `next` is the first of `placed` not yet run.
    fn run_placed(
        &mut self,
        group: &GroupPattern,
        placed: &[(usize, usize)],
        next: &mut usize,
        point: usize,
        rows: &mut Vec<Binding>,
    ) {
        while let Some(&(at, f)) = placed.get(*next) {
            if at > point {
                break;
            }
            *next += 1;
            if let Some(GroupElement::Filter(e)) = group.elements.get(f) {
                rows.retain(|b| self.filter_passes(e, b));
            }
        }
    }

    fn filter_passes(&mut self, e: &Expr, b: &Binding) -> bool {
        match self.eval_expr(e, b) {
            Some(v) => ebv(&self.g, &v) == Some(true),
            None => false,
        }
    }

    /// The slots a correlated sub-pattern's key reads: all it mentions,
    /// since nothing else of the row can change its result. `None` (run
    /// per row) when they do not fit a [`SlotKey`], or when it calls
    /// `BNODE()`, whose fresh node rows with one key must not share.
    fn key_slots(&mut self, group: &GroupPattern) -> Option<&[usize]> {
        let addr = group as *const GroupPattern as usize;
        let i = match self.key_slots.iter().position(|&(a, _)| a == addr) {
            Some(i) => i,
            None => {
                let m = Mentions::of(&self.vars, |f| walk_group(group, f));
                let cacheable = !m.mints && m.slots.len() <= KEY_SLOTS;
                self.key_slots.push((addr, cacheable.then_some(m.slots)));
                self.key_slots.len() - 1
            }
        };
        self.key_slots[i].1.as_deref()
    }

    /// `EXISTS { group }` for row `b`, evaluated once per distinct key
    /// per execution. A failed evaluation (a `BIND` conflict, or a trip
    /// that `tripped` surfaces at the next checkpoint) is "no solution"
    /// and is not cached.
    fn exists(&mut self, group: &GroupPattern, b: &Binding) -> bool {
        let site = group as *const GroupPattern as usize;
        let key = self.key_slots(group).map(|s| (site, slot_key(s, b)));
        if let Some(&hit) = key.and_then(|k| self.exists.get(&k)) {
            return hit;
        }
        let Ok(rows) = self.eval_group(group, vec![b.clone()], None) else {
            return false;
        };
        if let Some(k) = key {
            self.exists.insert(k, !rows.is_empty());
        }
        !rows.is_empty()
    }

    /// `rows OPTIONAL { inner }` with the right side evaluated once per
    /// distinct key: a repeated key replays the recorded extensions (the
    /// key slots' values) onto its row, in order, charged to the solution
    /// budget like join rows.
    fn left_join(
        &mut self,
        inner: &GroupPattern,
        rows: Vec<Binding>,
        plan: Option<&GroupPlan>,
    ) -> Result<Vec<Binding>> {
        // A single row has nothing to share a key with.
        let keyed = self
            .key_slots(inner)
            .filter(|_| rows.len() > 1)
            .map(<[usize]>::to_vec);
        let slots = keyed.as_deref().unwrap_or(&[]);
        let w = slots.len();
        // Per key: where its extensions start in `exts`, and how many.
        let mut seen: FxMap<SlotKey, (usize, usize)> = FxMap::default();
        let mut exts: Vec<Option<TermId>> = Vec::new();
        let (mut out, mut uncharged) = (Vec::new(), 0);
        for b in rows {
            let key = keyed.as_ref().map(|_| slot_key(slots, &b));
            if let Some(&(start, n)) = key.and_then(|k| seen.get(&k)) {
                for ext in (0..n).map(|i| &exts[start + i * w..start + (i + 1) * w]) {
                    let mut nb = b.clone();
                    slots.iter().zip(ext).for_each(|(&s, &v)| nb[s] = v);
                    out.push(nb);
                }
                if n == 0 {
                    out.push(b);
                }
                uncharged += n;
                if uncharged >= CHARGE_BATCH {
                    self.charge_solutions(std::mem::take(&mut uncharged))?;
                }
                continue;
            }
            let extended = self.eval_group(inner, vec![b.clone()], plan)?;
            if let Some(k) = key {
                seen.insert(k, (exts.len(), extended.len()));
                exts.extend(extended.iter().flat_map(|e| slots.iter().map(|&s| e[s])));
            }
            if extended.is_empty() {
                out.push(b);
            } else {
                out.extend(extended);
            }
        }
        self.charge_solutions(uncharged)?;
        Ok(out)
    }

    // ---- BGP -------------------------------------------------------------

    fn eval_bgp(
        &mut self,
        patterns: &[TriplePattern],
        input: Vec<Binding>,
        plan: Option<&BgpPlan>,
    ) -> Result<Vec<Binding>> {
        // Planned path: execute the precomputed order with each step's
        // join-algorithm choice; `force_join` swaps operators without
        // touching order. A malformed plan (wrong length, index out of
        // range, duplicate steps) falls through to author order below.
        if let Some(bp) = plan {
            if bgp_plan_matches(bp, patterns.len()) {
                let mut rows = input;
                for step in &bp.steps {
                    let tp = &patterns[step.pattern];
                    // A hash step builds its table only when enough rows
                    // arrive to amortize it. Forcing an algorithm
                    // bypasses that gate so differential tests exercise
                    // the operator on any row count.
                    let hash = match self.force {
                        Some(forced) => forced == JoinAlgo::Hash,
                        None => step.algo == JoinAlgo::Hash && rows.len() >= HASH_JOIN_MIN,
                    };
                    rows = if hash {
                        self.match_triple_pattern_hash(tp, rows)?
                    } else {
                        self.match_triple_pattern(tp, rows)?
                    };
                    if rows.is_empty() {
                        break;
                    }
                }
                return Ok(rows);
            }
        }
        // Unplanned (an EXISTS body, or a plan that does not fit): author
        // order.
        let mut rows = input;
        for tp in patterns {
            rows = self.match_triple_pattern(tp, rows)?;
            if rows.is_empty() {
                break;
            }
        }
        Ok(rows)
    }

    fn match_triple_pattern(
        &mut self,
        tp: &TriplePattern,
        rows: Vec<Binding>,
    ) -> Result<Vec<Binding>> {
        NESTED_JOINS.fetch_add(1, Ordering::Relaxed);
        let s = self.endpoint(&tp.subject)?;
        let o = self.endpoint(&tp.object)?;
        // A plain predicate is one dictionary id, a variable predicate
        // one slot; a complex path has neither and walks `eval_path`.
        let (p_fixed, p_slot) = match &tp.path {
            Path::Iri(p) => match self.lookup_const(p) {
                Some(id) => (Some(id), None),
                // Unknown predicate: every row finds nothing.
                None => return Ok(Vec::new()),
            },
            Path::Var(v) => (None, self.vars.get(v)),
            _ => (None, None),
        };
        let complex = !matches!(tp.path, Path::Iri(_) | Path::Var(_));
        let mut uncharged: usize = 0;
        let mut out = Vec::new();
        for b in rows {
            let produced_before = out.len();
            let (s_val, o_val) = (s.value(&b), o.value(&b));
            if complex {
                for (ms, mo) in self.eval_path(&tp.path, s_val, o_val) {
                    let mut nb = b.clone();
                    if let Some(slot) = s.slot {
                        nb[slot] = Some(ms);
                    }
                    if let Some(slot) = o.slot {
                        nb[slot] = Some(mo);
                    }
                    out.push(nb);
                }
            } else {
                let p_val = p_fixed.or_else(|| p_slot.and_then(|slot| b[slot]));
                for [ms, mp, mo] in self.g.match_pattern(s_val, p_val, o_val) {
                    let mut nb = b.clone();
                    if let Some(slot) = s.slot {
                        nb[slot] = Some(ms);
                    }
                    if let Some(slot) = p_slot {
                        nb[slot] = Some(mp);
                    }
                    if let Some(slot) = o.slot {
                        nb[slot] = Some(mo);
                    }
                    out.push(nb);
                }
            }
            uncharged += out.len() - produced_before;
            if uncharged >= CHARGE_BATCH {
                self.charge_solutions(uncharged)?;
                uncharged = 0;
            }
        }
        self.charge_solutions(uncharged)?;
        Ok(out)
    }

    /// Hash-join variant of [`Self::match_triple_pattern`] for plain-IRI
    /// predicates: one index scan over the pattern's predicate (narrowed
    /// by any ground endpoints) builds the join side, then each input
    /// row probes hash maps instead of running its own B-tree range
    /// scan. Probe structures are built lazily per boundness signature,
    /// because rows in one solution set can differ in which endpoint
    /// variables they bind (OPTIONAL, UNION).
    fn match_triple_pattern_hash(
        &mut self,
        tp: &TriplePattern,
        rows: Vec<Binding>,
    ) -> Result<Vec<Binding>> {
        let Path::Iri(p) = &tp.path else {
            // The planner only marks plain predicates; stay correct anyway.
            return self.match_triple_pattern(tp, rows);
        };
        HASH_JOINS.fetch_add(1, Ordering::Relaxed);
        let Some(p_id) = self.lookup_const(p) else {
            // Unknown predicate: every row finds nothing.
            return Ok(Vec::new());
        };
        let s = self.endpoint(&tp.subject)?;
        let o = self.endpoint(&tp.object)?;
        let triples = self.g.match_pattern(s.ground, Some(p_id), o.ground);
        let scan = PredicateScan { s, o, triples };
        let mut by_s: Option<HashMap<TermId, Vec<usize>>> = None;
        let mut by_o: Option<HashMap<TermId, Vec<usize>>> = None;
        let mut by_so: Option<HashSet<(TermId, TermId)>> = None;
        let mut out = Vec::new();
        let mut uncharged: usize = 0;
        for b in rows {
            let produced_before = out.len();
            match scan.bound_in(&b) {
                (Some(sv), Some(ov)) => {
                    let set = by_so
                        .get_or_insert_with(|| scan.triples.iter().map(|t| (t[0], t[2])).collect());
                    if set.contains(&(sv, ov)) {
                        out.push(b);
                    }
                }
                (Some(sv), None) => {
                    let map = by_s.get_or_insert_with(|| index_scan(&scan.triples, 0));
                    scan.extend(&mut out, &b, map.get(&sv).into_iter().flatten().copied());
                }
                (None, Some(ov)) => {
                    let map = by_o.get_or_insert_with(|| index_scan(&scan.triples, 2));
                    scan.extend(&mut out, &b, map.get(&ov).into_iter().flatten().copied());
                }
                (None, None) => scan.extend(&mut out, &b, 0..scan.triples.len()),
            }
            uncharged += out.len() - produced_before;
            if uncharged >= CHARGE_BATCH {
                self.charge_solutions(uncharged)?;
                uncharged = 0;
            }
        }
        self.charge_solutions(uncharged)?;
        Ok(out)
    }

    /// Resolves one pattern position for a whole operator call. Ground
    /// terms that are not in the dictionary intern to a spill id that
    /// matches no triple (the pattern simply finds nothing).
    fn endpoint(&mut self, tp: &TermPattern) -> Result<Endpoint> {
        Ok(match tp {
            TermPattern::Var(v) => Endpoint {
                slot: self.vars.get(v),
                ground: None,
            },
            TermPattern::Blank(l) => Endpoint {
                slot: self.vars.get(&format!("_:{l}")),
                ground: None,
            },
            ground => Endpoint {
                slot: None,
                ground: Some(self.intern_ground(ground)?),
            },
        })
    }

    /// A ground term's id, interned into the scratch overlay when the
    /// view lacks it.
    fn intern_ground(&mut self, tp: &TermPattern) -> Result<TermId> {
        self.resolved(tp as *const TermPattern as usize, |g| {
            ground_to_term(tp).map(|term| g.intern(&term))
        })
        .ok_or_else(|| SparqlError::eval("variable where a ground term was expected"))
    }

    /// A plain predicate's id in the view (`None`: the view lacks it, so
    /// the pattern matches nothing).
    fn lookup_const(&mut self, iri: &String) -> Option<TermId> {
        self.resolved(iri as *const String as usize, |g| g.lookup_iri(iri))
    }

    /// What `resolve` gives for the query constant at address `node`,
    /// run once per execution.
    fn resolved(
        &mut self,
        node: usize,
        resolve: impl FnOnce(&mut Overlay<G>) -> Option<TermId>,
    ) -> Option<TermId> {
        *(self.memo.terms)
            .entry(node)
            .or_insert_with(|| resolve(&mut self.g))
    }

    /// The compiled `pattern` under `flags`, or `None` when it does not
    /// compile; compiled once per execution.
    fn regex(&mut self, pattern: String, flags: String) -> Option<&Regex> {
        (self.memo.regexes.entry((pattern, flags)))
            .or_insert_with_key(|(p, f)| Regex::new(p, f).ok())
            .as_ref()
    }

    // ---- property paths ---------------------------------------------------

    /// All `(start, end)` node pairs related by `path`, restricted by the
    /// optionally bound endpoints.
    fn eval_path(
        &mut self,
        path: &Path,
        s: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<(TermId, TermId)> {
        match path {
            Path::Iri(p) => match self.lookup_const(p) {
                Some(pid) => self
                    .g
                    .match_pattern(s, Some(pid), o)
                    .into_iter()
                    .map(|t| (t[0], t[2]))
                    .collect(),
                None => Vec::new(),
            },
            // Variable predicates are handled in match_triple_pattern; a
            // bare variable reaching here matches nothing rather than
            // panicking.
            Path::Var(_) => Vec::new(),
            Path::Inverse(inner) => self
                .eval_path(inner, o, s)
                .into_iter()
                .map(|(a, b)| (b, a))
                .collect(),
            Path::Sequence(first, second) => {
                let mut out = Vec::new();
                let mut seen = HashSet::new();
                for (a, mid) in self.eval_path(first, s, None) {
                    if self.guard_tripped() {
                        break;
                    }
                    for (_, b) in self.eval_path(second, Some(mid), o) {
                        if seen.insert((a, b)) {
                            out.push((a, b));
                        }
                    }
                }
                out
            }
            Path::Alternative(l, r) => {
                union_pairs(self.eval_path(l, s, o), self.eval_path(r, s, o))
            }
            Path::ZeroOrOne(inner) => {
                union_pairs(self.zero_length_pairs(s, o), self.eval_path(inner, s, o))
            }
            Path::ZeroOrMore(inner) => self.closure_pairs(inner, s, o, true),
            Path::OneOrMore(inner) => self.closure_pairs(inner, s, o, false),
            Path::Negated(members) => {
                let forward: HashSet<TermId> = members
                    .iter()
                    .filter(|(_, inv)| !inv)
                    .filter_map(|(iri, _)| self.lookup_const(iri))
                    .collect();
                let has_forward = members.iter().any(|(_, inv)| !inv);
                let inverse: HashSet<TermId> = members
                    .iter()
                    .filter(|(_, inv)| *inv)
                    .filter_map(|(iri, _)| self.lookup_const(iri))
                    .collect();
                let has_inverse = members.iter().any(|(_, inv)| *inv);
                let mut out = Vec::new();
                let mut seen = HashSet::new();
                if has_forward {
                    for [ms, mp, mo] in self.g.match_pattern(s, None, o) {
                        if !forward.contains(&mp) && seen.insert((ms, mo)) {
                            out.push((ms, mo));
                        }
                    }
                }
                if has_inverse {
                    for [ms, mp, mo] in self.g.match_pattern(o, None, s) {
                        if !inverse.contains(&mp) && seen.insert((mo, ms)) {
                            out.push((mo, ms));
                        }
                    }
                }
                out
            }
        }
    }

    /// Pairs related by a zero-length path: every graph node to itself.
    fn zero_length_pairs(&self, s: Option<TermId>, o: Option<TermId>) -> Vec<(TermId, TermId)> {
        match (s, o) {
            (Some(a), Some(b)) => {
                if a == b {
                    vec![(a, a)]
                } else {
                    Vec::new()
                }
            }
            (Some(a), None) => vec![(a, a)],
            (None, Some(b)) => vec![(b, b)],
            (None, None) => self.all_nodes().into_iter().map(|n| (n, n)).collect(),
        }
    }

    fn all_nodes(&self) -> Vec<TermId> {
        let mut out: std::collections::BTreeSet<TermId> = Default::default();
        for [s, _, o] in self.g.iter_ids() {
            out.insert(s);
            out.insert(o);
        }
        out.into_iter().collect()
    }

    /// Transitive closure pairs for `inner*` / `inner+`.
    fn closure_pairs(
        &mut self,
        inner: &Path,
        s: Option<TermId>,
        o: Option<TermId>,
        include_zero: bool,
    ) -> Vec<(TermId, TermId)> {
        // With only the object bound, walk backward from it, on `inner`
        // itself: a temporary inverse path would hand the constant memo a
        // node address that a later temporary can reuse.
        let backward = s.is_none() && o.is_some();
        let (from, to) = if backward { (o, s) } else { (s, o) };
        let starts: Vec<TermId> = match from {
            Some(a) => vec![a],
            None => self.all_nodes(),
        };
        let mut out = Vec::new();
        for start in starts {
            if self.guard_tripped() {
                break;
            }
            let mut reached: HashSet<TermId> = HashSet::new();
            let mut frontier = vec![start];
            if include_zero {
                reached.insert(start);
            }
            while let Some(node) = frontier.pop() {
                if self.guard_tripped() {
                    break;
                }
                let steps: Vec<TermId> = if backward {
                    let pairs = self.eval_path(inner, None, Some(node));
                    pairs.into_iter().map(|(prev, _)| prev).collect()
                } else {
                    let pairs = self.eval_path(inner, Some(node), None);
                    pairs.into_iter().map(|(_, next)| next).collect()
                };
                for next in steps {
                    if reached.insert(next) {
                        frontier.push(next);
                    }
                }
            }
            for end in reached {
                match to {
                    Some(target) if end != target => {}
                    _ if backward => out.push((end, start)),
                    _ => out.push((start, end)),
                }
            }
        }
        out.sort();
        out
    }

    // ---- expressions ----------------------------------------------------

    /// Evaluates an expression; `None` is the SPARQL "error" value.
    fn eval_expr(&mut self, e: &Expr, b: &Binding) -> Option<Value> {
        match e {
            Expr::Var(v) => self.vars.get(v).and_then(|s| b[s]).map(Value::Term),
            Expr::Iri(iri) => self
                .resolved(iri as *const String as usize, |g| Some(g.intern_iri(iri)))
                .map(Value::Term),
            Expr::Literal(l) => Some(self.literal_value(l)),
            Expr::Or(x, y) => {
                let l = self.eval_expr(x, b).and_then(|v| ebv(&self.g, &v));
                let r = self.eval_expr(y, b).and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Expr::And(x, y) => {
                let l = self.eval_expr(x, b).and_then(|v| ebv(&self.g, &v));
                let r = self.eval_expr(y, b).and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Expr::Not(x) => {
                let v = self.eval_expr(x, b)?;
                ebv(&self.g, &v).map(|t| Value::Bool(!t))
            }
            Expr::Compare(op, x, y) => {
                let l = self.eval_expr(x, b)?;
                let r = self.eval_expr(y, b)?;
                self.compare(*op, &l, &r).map(Value::Bool)
            }
            Expr::Arith(op, x, y) => {
                let l = self.eval_expr(x, b)?;
                let r = self.eval_expr(y, b)?;
                self.arith(*op, &l, &r)
            }
            Expr::UnaryMinus(x) => {
                let v = self.eval_expr(x, b)?;
                match v {
                    Value::Int(i) => Some(Value::Int(-i)),
                    other => as_numeric(&self.g, &other).map(|n| Value::Num(-n)),
                }
            }
            Expr::In(x, list, negated) => {
                let needle = self.eval_expr(x, b)?;
                let mut found = false;
                for item in list {
                    let v = self.eval_expr(item, b)?;
                    if values_equal(&self.g, &needle, &v) == Some(true) {
                        found = true;
                        break;
                    }
                }
                Some(Value::Bool(found != *negated))
            }
            Expr::Call(builtin, args) => self.call(*builtin, args, b),
            Expr::Exists(group, negated) => Some(Value::Bool(self.exists(group, b) != *negated)),
            Expr::Aggregate(_) => None, // only valid in aggregation context
        }
    }

    fn literal_value(&mut self, l: &LiteralPattern) -> Value {
        match (&l.language, &l.datatype) {
            (Some(lang), _) => Value::Str {
                s: l.lexical.clone(),
                lang: Some(lang.clone()),
            },
            (None, None) => Value::Str {
                s: l.lexical.clone(),
                lang: None,
            },
            (None, Some(dt)) if dt == xsd::BOOLEAN => {
                Value::Bool(l.lexical == "true" || l.lexical == "1")
            }
            (None, Some(dt)) if xsd::is_integer_type(dt) => {
                l.lexical.parse().map(Value::Int).unwrap_or(Value::Str {
                    s: l.lexical.clone(),
                    lang: None,
                })
            }
            (None, Some(dt)) if xsd::is_numeric_type(dt) => {
                l.lexical.parse().map(Value::Num).unwrap_or(Value::Str {
                    s: l.lexical.clone(),
                    lang: None,
                })
            }
            (None, Some(dt)) => {
                let term = Term::Literal(feo_rdf::Literal::typed(
                    l.lexical.clone(),
                    feo_rdf::Iri::new(dt.clone()),
                ));
                Value::Term(self.g.intern(&term))
            }
        }
    }

    fn compare(&self, op: CompareOp, l: &Value, r: &Value) -> Option<bool> {
        use std::cmp::Ordering;
        match op {
            CompareOp::Eq => values_equal(&self.g, l, r),
            CompareOp::Ne => values_equal(&self.g, l, r).map(|b| !b),
            _ => {
                let ord = values_compare(&self.g, l, r)?;
                Some(match op {
                    CompareOp::Lt => ord == Ordering::Less,
                    CompareOp::Le => ord != Ordering::Greater,
                    CompareOp::Gt => ord == Ordering::Greater,
                    CompareOp::Ge => ord != Ordering::Less,
                    // Eq/Ne are handled by the outer match arms.
                    CompareOp::Eq | CompareOp::Ne => return None,
                })
            }
        }
    }

    fn arith(&self, op: ArithOp, l: &Value, r: &Value) -> Option<Value> {
        // Integer arithmetic stays integral except division.
        if let (Value::Int(a), Value::Int(b)) = (l, r) {
            return match op {
                ArithOp::Add => Some(Value::Int(a.checked_add(*b)?)),
                ArithOp::Sub => Some(Value::Int(a.checked_sub(*b)?)),
                ArithOp::Mul => Some(Value::Int(a.checked_mul(*b)?)),
                ArithOp::Div => {
                    if *b == 0 {
                        None
                    } else {
                        Some(Value::Num(*a as f64 / *b as f64))
                    }
                }
            };
        }
        let a = as_numeric(&self.g, l)?;
        let b = as_numeric(&self.g, r)?;
        // Preserve integrality when both terms are integer-typed literals.
        let both_int = as_integer(&self.g, l).is_some() && as_integer(&self.g, r).is_some();
        let result = match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => {
                if b == 0.0 {
                    return None;
                }
                a / b
            }
        };
        if both_int && result.fract() == 0.0 && !matches!(op, ArithOp::Div) {
            Some(Value::Int(result as i64))
        } else {
            Some(Value::Num(result))
        }
    }

    fn call(&mut self, builtin: Builtin, args: &[Expr], b: &Binding) -> Option<Value> {
        use Builtin::*;
        // BOUND and COALESCE/IF must control evaluation of their args.
        match builtin {
            Bound => {
                let Expr::Var(v) = &args[0] else { return None };
                let bound = self.vars.get(v).and_then(|s| b[s]).is_some();
                return Some(Value::Bool(bound));
            }
            Coalesce => {
                for a in args {
                    if let Some(v) = self.eval_expr(a, b) {
                        return Some(v);
                    }
                }
                return None;
            }
            If => {
                if args.len() != 3 {
                    return None;
                }
                let c = self.eval_expr(&args[0], b)?;
                return match ebv(&self.g, &c)? {
                    true => self.eval_expr(&args[1], b),
                    false => self.eval_expr(&args[2], b),
                };
            }
            _ => {}
        }

        let vals: Option<Vec<Value>> = args.iter().map(|a| self.eval_expr(a, b)).collect();
        let vals = vals?;
        match builtin {
            // Already returned from the lazy-evaluation block above.
            Bound | Coalesce | If => None,
            Str => str_builtin(&self.g, vals.first()?).map(|s| Value::Str { s, lang: None }),
            Lang => {
                let v = vals.first()?;
                let lang = match v {
                    Value::Term(id) => match self.g.term(*id) {
                        Term::Literal(l) => l.language().unwrap_or("").to_string(),
                        _ => return None,
                    },
                    Value::Str { lang, .. } => lang.clone().unwrap_or_default(),
                    _ => return None,
                };
                Some(Value::Str {
                    s: lang,
                    lang: None,
                })
            }
            LangMatches => {
                let (tag, _) = as_string(&self.g, vals.first()?)?;
                let (range, _) = as_string(&self.g, vals.get(1)?)?;
                let m = if range == "*" {
                    !tag.is_empty()
                } else {
                    tag.eq_ignore_ascii_case(&range)
                        || tag
                            .to_ascii_lowercase()
                            .starts_with(&format!("{}-", range.to_ascii_lowercase()))
                };
                Some(Value::Bool(m))
            }
            Datatype => {
                let v = vals.first()?;
                let dt = match v {
                    Value::Term(id) => match self.g.term(*id) {
                        Term::Literal(l) => l.datatype().as_str().to_string(),
                        _ => return None,
                    },
                    Value::Bool(_) => xsd::BOOLEAN.to_string(),
                    Value::Int(_) => xsd::INTEGER.to_string(),
                    Value::Num(_) => xsd::DOUBLE.to_string(),
                    Value::Str { lang: None, .. } => xsd::STRING.to_string(),
                    Value::Str { lang: Some(_), .. } => {
                        feo_rdf::vocab::rdf::LANG_STRING.to_string()
                    }
                    Value::IriStr(_) => return None,
                };
                Some(Value::IriStr(dt))
            }
            Iri => {
                let s = str_builtin(&self.g, vals.first()?)?;
                Some(Value::IriStr(s))
            }
            BNode => {
                let id = self.g.fresh_bnode();
                Some(Value::Term(id))
            }
            StrLen => {
                let (s, _) = as_string(&self.g, vals.first()?)?;
                Some(Value::Int(s.chars().count() as i64))
            }
            UCase => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                Some(Value::Str {
                    s: s.to_uppercase(),
                    lang,
                })
            }
            LCase => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                Some(Value::Str {
                    s: s.to_lowercase(),
                    lang,
                })
            }
            Contains => {
                let (h, _) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(Value::Bool(h.contains(&n)))
            }
            StrStarts => {
                let (h, _) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(Value::Bool(h.starts_with(&n)))
            }
            StrEnds => {
                let (h, _) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(Value::Bool(h.ends_with(&n)))
            }
            StrBefore => {
                let (h, lang) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(match h.find(&n) {
                    Some(i) => Value::Str {
                        s: h[..i].to_string(),
                        lang,
                    },
                    None => Value::Str {
                        s: String::new(),
                        lang: None,
                    },
                })
            }
            StrAfter => {
                let (h, lang) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(match h.find(&n) {
                    Some(i) => Value::Str {
                        s: h[i + n.len()..].to_string(),
                        lang,
                    },
                    None => Value::Str {
                        s: String::new(),
                        lang: None,
                    },
                })
            }
            SubStr => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                let start = as_integer(&self.g, vals.get(1)?)?;
                let chars: Vec<char> = s.chars().collect();
                let from = (start.max(1) - 1) as usize;
                let taken: String = match vals.get(2) {
                    Some(len_v) => {
                        let len = as_integer(&self.g, len_v)?.max(0) as usize;
                        chars.iter().skip(from).take(len).collect()
                    }
                    None => chars.iter().skip(from).collect(),
                };
                Some(Value::Str { s: taken, lang })
            }
            Replace => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                let (pat, _) = as_string(&self.g, vals.get(1)?)?;
                let (rep, _) = as_string(&self.g, vals.get(2)?)?;
                let flags = match vals.get(3) {
                    Some(v) => as_string(&self.g, v)?.0,
                    None => String::new(),
                };
                Some(Value::Str {
                    s: self.regex(pat, flags)?.replace_all(&s, &rep),
                    lang,
                })
            }
            Concat => {
                let mut out = String::new();
                for v in &vals {
                    out.push_str(&str_builtin(&self.g, v)?);
                }
                Some(Value::Str { s: out, lang: None })
            }
            Regex => {
                let (text, _) = as_string(&self.g, vals.first()?)?;
                let (pat, _) = as_string(&self.g, vals.get(1)?)?;
                let flags = match vals.get(2) {
                    Some(v) => as_string(&self.g, v)?.0,
                    None => String::new(),
                };
                Some(Value::Bool(self.regex(pat, flags)?.is_match(&text)))
            }
            Abs => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.abs())),
            Ceil => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.ceil())),
            Floor => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.floor())),
            Round => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.round())),
            SameTerm => {
                let a = vals.first()?;
                let c = vals.get(1)?;
                match (a, c) {
                    (Value::Term(x), Value::Term(y)) => Some(Value::Bool(x == y)),
                    _ => values_equal(&self.g, a, c).map(Value::Bool),
                }
            }
            IsIri => Some(Value::Bool(match vals.first()? {
                Value::Term(id) => self.g.term(*id).is_iri(),
                Value::IriStr(_) => true,
                _ => false,
            })),
            IsBlank => Some(Value::Bool(match vals.first()? {
                Value::Term(id) => self.g.term(*id).is_blank(),
                _ => false,
            })),
            IsLiteral => Some(Value::Bool(match vals.first()? {
                Value::Term(id) => self.g.term(*id).is_literal(),
                Value::Bool(_) | Value::Int(_) | Value::Num(_) | Value::Str { .. } => true,
                Value::IriStr(_) => false,
            })),
            IsNumeric => Some(Value::Bool(as_numeric(&self.g, vals.first()?).is_some())),
        }
    }

    // ---- SELECT finalization ---------------------------------------------

    fn select(
        &mut self,
        q: &Query,
        projection: &Projection,
        distinct: bool,
        mut rows: Vec<Binding>,
    ) -> Result<QueryResult> {
        let aggregating = !q.modifiers.group_by.is_empty()
            || matches!(projection, Projection::Items(items)
                if items.iter().any(|i| matches!(i, ProjectionItem::Expr(e, _) if contains_aggregate(e))));

        if aggregating {
            rows = self.aggregate_rows(q, projection, rows)?;
        } else if let Projection::Items(items) = projection {
            // Extend rows with SELECT expression results.
            for item in items {
                if let ProjectionItem::Expr(e, v) = item {
                    let slot = self.vars.get(v).ok_or_else(|| {
                        SparqlError::eval(format!(
                            "SELECT expression variable ?{v} is not registered"
                        ))
                    })?;
                    for b in &mut rows {
                        if let Some(val) = self.eval_expr(e, b) {
                            b[slot] = Some(val.into_term_id(&mut self.g));
                        }
                    }
                }
            }
        }
        let order = self.order_by(&q.modifiers.order_by, &rows);

        // Projection.
        let (names, slots): (Vec<String>, Vec<usize>) = match projection {
            Projection::All => {
                // Slot order, blank-node labels left out.
                (self.vars.names.iter().enumerate())
                    .filter(|(_, n)| !n.starts_with("_:"))
                    .map(|(i, n)| (n.clone(), i))
                    .unzip()
            }
            Projection::Items(items) => {
                let pairs: Vec<(String, usize)> = items
                    .iter()
                    .map(|i| {
                        let name = match i {
                            ProjectionItem::Var(v) => v.clone(),
                            ProjectionItem::Expr(_, v) => v.clone(),
                        };
                        let slot = self.vars.get(&name).ok_or_else(|| {
                            SparqlError::eval(format!(
                                "projected variable ?{name} is not registered"
                            ))
                        })?;
                        Ok((name, slot))
                    })
                    .collect::<Result<_>>()?;
                pairs.into_iter().unzip()
            }
        };

        // Projected rows, in order, side by side in one buffer; DISTINCT
        // keeps each one's first occurrence and the slice picks from those.
        let w = slots.len();
        let flat: Vec<Option<TermId>> = (order.iter())
            .flat_map(|&r| {
                let b = &rows[r];
                slots.iter().map(move |&s| b[s])
            })
            .collect();
        let row = |i: usize| &flat[i * w..(i + 1) * w];
        let mut kept: Vec<usize> = (0..order.len()).collect();
        if distinct {
            let mut seen = FxSet::with_capacity_and_hasher(kept.len(), Default::default());
            kept.retain(|&i| seen.insert(row(i)));
        }
        let offset = q.modifiers.offset.unwrap_or(0);
        let limit = q.modifiers.limit.unwrap_or(usize::MAX);
        let table = SolutionTable {
            vars: names,
            rows: (kept.into_iter().skip(offset).take(limit))
                .map(|i| {
                    (row(i).iter())
                        .map(|c| c.map(|id| self.g.term(id).clone()))
                        .collect()
                })
                .collect(),
        };
        Ok(QueryResult::Solutions(table))
    }

    /// The order ORDER BY puts `rows` in, as row indexes. A condition's
    /// key is a term id per row: a variable's slot, or any other
    /// expression's value interned (an error is unbound). Each distinct
    /// id is decoded once into an [`OrderKey`], the keys are ranked (equal
    /// keys, equal ranks) and rows sort stably on their ranks.
    fn order_by(&mut self, conditions: &[OrderCondition], rows: &[Binding]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let k = conditions.len();
        if k == 0 {
            return order;
        }
        let mut ranks = vec![0u32; rows.len() * k];
        for (c, oc) in conditions.iter().enumerate() {
            let ids: Vec<Option<TermId>> = match &oc.expr {
                Expr::Var(v) => {
                    let slot = self.vars.get(v);
                    rows.iter().map(|b| slot.and_then(|s| b[s])).collect()
                }
                e => (rows.iter())
                    .map(|b| self.eval_expr(e, b).map(|v| v.into_term_id(&mut self.g)))
                    .collect(),
            };
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let keys: Vec<OrderKey<'_>> =
                distinct.iter().map(|&id| order_key(&self.g, id)).collect();
            let mut by_key: Vec<usize> = (0..keys.len()).collect();
            by_key.sort_by(|&a, &b| keys[a].compare(&keys[b]));
            let mut rank = vec![0u32; keys.len()];
            for pair in by_key.windows(2) {
                let step = keys[pair[0]].compare(&keys[pair[1]]).is_ne();
                rank[pair[1]] = rank[pair[0]] + u32::from(step);
            }
            for (r, id) in ids.iter().enumerate() {
                // Every id is one of `distinct`.
                let at = distinct.binary_search(id).unwrap_or_default();
                ranks[r * k + c] = if oc.descending { !rank[at] } else { rank[at] };
            }
        }
        order.sort_by(|&a, &b| ranks[a * k..(a + 1) * k].cmp(&ranks[b * k..(b + 1) * k]));
        order
    }

    fn aggregate_rows(
        &mut self,
        q: &Query,
        projection: &Projection,
        rows: Vec<Binding>,
    ) -> Result<Vec<Binding>> {
        // Compute group keys.
        let mut groups: Vec<(Vec<Option<TermId>>, Vec<Binding>)> = Vec::new();
        let mut index: HashMap<Vec<Option<TermId>>, usize> = HashMap::new();
        for b in rows {
            let mut key = Vec::new();
            for gc in &q.modifiers.group_by {
                let v = match gc {
                    GroupCondition::Var(v) => self.vars.get(v).and_then(|s| b[s]),
                    GroupCondition::Expr(e, _) => {
                        self.eval_expr(e, &b).map(|v| v.into_term_id(&mut self.g))
                    }
                };
                key.push(v);
            }
            match index.get(&key) {
                Some(&i) => groups[i].1.push(b),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![b]));
                }
            }
        }
        // With no GROUP BY but aggregates present: one implicit group.
        if q.modifiers.group_by.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        } else if q.modifiers.group_by.is_empty() {
            let all: Vec<Binding> = groups.drain(..).flat_map(|(_, v)| v).collect();
            groups.push((Vec::new(), all));
        }

        let mut out = Vec::new();
        'group: for (key, members) in groups {
            let mut row: Binding = vec![None; self.vars.len()];
            // Bind group keys.
            for (gc, k) in q.modifiers.group_by.iter().zip(key.iter()) {
                match gc {
                    GroupCondition::Var(v) => {
                        if let Some(slot) = self.vars.get(v) {
                            row[slot] = *k;
                        }
                    }
                    GroupCondition::Expr(_, Some(alias)) => {
                        if let Some(slot) = self.vars.get(alias) {
                            row[slot] = *k;
                        }
                    }
                    GroupCondition::Expr(_, None) => {}
                }
            }
            // HAVING.
            for h in &q.modifiers.having {
                let v = self.eval_group_expr(h, &members, &row);
                if v.and_then(|v| ebv(&self.g, &v)) != Some(true) {
                    continue 'group;
                }
            }
            // Projection expressions.
            if let Projection::Items(items) = projection {
                for item in items {
                    if let ProjectionItem::Expr(e, v) = item {
                        let slot = self.vars.get(v).ok_or_else(|| {
                            SparqlError::eval(format!(
                                "aggregate projection variable ?{v} is not registered"
                            ))
                        })?;
                        if let Some(val) = self.eval_group_expr(e, &members, &row) {
                            row[slot] = Some(val.into_term_id(&mut self.g));
                        }
                    }
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Expression evaluation inside a group: aggregates compute over the
    /// member rows, plain variables resolve from the group-key row.
    fn eval_group_expr(
        &mut self,
        e: &Expr,
        members: &[Binding],
        keyrow: &Binding,
    ) -> Option<Value> {
        match e {
            Expr::Aggregate(agg) => self.eval_aggregate(agg, members),
            Expr::Or(a, x) => {
                let l = self
                    .eval_group_expr(a, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                let r = self
                    .eval_group_expr(x, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Expr::And(a, x) => {
                let l = self
                    .eval_group_expr(a, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                let r = self
                    .eval_group_expr(x, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Expr::Not(a) => {
                let v = self.eval_group_expr(a, members, keyrow)?;
                ebv(&self.g, &v).map(|t| Value::Bool(!t))
            }
            Expr::Compare(op, a, x) => {
                let l = self.eval_group_expr(a, members, keyrow)?;
                let r = self.eval_group_expr(x, members, keyrow)?;
                self.compare(*op, &l, &r).map(Value::Bool)
            }
            Expr::Arith(op, a, x) => {
                let l = self.eval_group_expr(a, members, keyrow)?;
                let r = self.eval_group_expr(x, members, keyrow)?;
                self.arith(*op, &l, &r)
            }
            other => self.eval_expr(other, keyrow),
        }
    }

    fn eval_aggregate(&mut self, agg: &AggregateExpr, members: &[Binding]) -> Option<Value> {
        let mut values: Vec<Value> = Vec::new();
        match &agg.expr {
            None => {
                // COUNT(*)
                return Some(Value::Int(members.len() as i64));
            }
            Some(e) => {
                for m in members {
                    if let Some(v) = self.eval_expr(e, m) {
                        values.push(v);
                    }
                }
            }
        }
        if agg.distinct {
            let mut seen: Vec<Value> = Vec::new();
            values.retain(|v| {
                if seen
                    .iter()
                    .any(|s| values_equal(&self.g, s, v) == Some(true))
                {
                    false
                } else {
                    seen.push(v.clone());
                    true
                }
            });
        }
        match agg.kind {
            AggregateKind::Count => Some(Value::Int(values.len() as i64)),
            AggregateKind::Sum => {
                let mut acc = 0.0;
                for v in &values {
                    acc += as_numeric(&self.g, v)?;
                }
                Some(if acc.fract() == 0.0 {
                    Value::Int(acc as i64)
                } else {
                    Value::Num(acc)
                })
            }
            AggregateKind::Avg => {
                if values.is_empty() {
                    return Some(Value::Int(0));
                }
                let mut acc = 0.0;
                for v in &values {
                    acc += as_numeric(&self.g, v)?;
                }
                Some(Value::Num(acc / values.len() as f64))
            }
            AggregateKind::Min | AggregateKind::Max => {
                let wins = match agg.kind {
                    AggregateKind::Min => std::cmp::Ordering::Less,
                    _ => std::cmp::Ordering::Greater,
                };
                let better =
                    |v: &Value, best: &Value| values_compare(&self.g, v, best) == Some(wins);
                values
                    .into_iter()
                    .reduce(|best, v| if better(&v, &best) { v } else { best })
            }
            AggregateKind::Sample => values.into_iter().next(),
            AggregateKind::GroupConcat => {
                let sep = agg.separator.clone().unwrap_or_else(|| " ".to_string());
                let parts: Option<Vec<String>> =
                    values.iter().map(|v| str_builtin(&self.g, v)).collect();
                Some(Value::Str {
                    s: parts?.join(&sep),
                    lang: None,
                })
            }
        }
    }

    // ---- CONSTRUCT --------------------------------------------------------

    fn construct(&mut self, template: &[TriplePattern], rows: Vec<Binding>) -> Result<QueryResult> {
        let mut out = Graph::new();
        for (row_idx, b) in rows.iter().enumerate() {
            for tp in template {
                let s = self.template_term(&tp.subject, b, row_idx);
                let p = match &tp.path {
                    Path::Iri(iri) => Some(Term::iri(iri.clone())),
                    Path::Var(v) => self
                        .vars
                        .get(v)
                        .and_then(|slot| b[slot])
                        .map(|id| self.g.term(id).clone()),
                    _ => None,
                };
                let o = self.template_term(&tp.object, b, row_idx);
                if let (Some(s), Some(p), Some(o)) = (s, p, o) {
                    if s.is_resource() && p.is_iri() {
                        out.insert(&Triple {
                            subject: s,
                            predicate: p,
                            object: o,
                        });
                    }
                }
            }
        }
        Ok(QueryResult::Graph(Box::new(out)))
    }

    fn template_term(&self, tp: &TermPattern, b: &Binding, row: usize) -> Option<Term> {
        match tp {
            TermPattern::Var(v) => self
                .vars
                .get(v)
                .and_then(|s| b[s])
                .map(|id| self.g.term(id).clone()),
            TermPattern::Blank(l) => Some(Term::bnode(format!("c{row}_{l}"))),
            TermPattern::Iri(i) => Some(Term::iri(i.clone())),
            TermPattern::Literal(l) => Some(literal_pattern_to_term(l)),
        }
    }
}

/// `out` followed by the pairs of `more` that `out` does not hold.
fn union_pairs(
    mut out: Vec<(TermId, TermId)>,
    more: Vec<(TermId, TermId)>,
) -> Vec<(TermId, TermId)> {
    let seen: HashSet<(TermId, TermId)> = out.iter().copied().collect();
    out.extend(more.into_iter().filter(|pair| !seen.contains(pair)));
    out
}

/// A plan is executable against `n` patterns when it covers each
/// pattern exactly once.
fn bgp_plan_matches(bp: &BgpPlan, n: usize) -> bool {
    if bp.steps.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for step in &bp.steps {
        let Some(slot) = seen.get_mut(step.pattern) else {
            return false;
        };
        if *slot {
            return false;
        }
        *slot = true;
    }
    true
}

/// One subject/object position of a triple pattern: a binding slot
/// (variable or blank label) or an interned ground term, never both.
#[derive(Clone, Copy)]
struct Endpoint {
    slot: Option<usize>,
    ground: Option<TermId>,
}

impl Endpoint {
    /// The id row `b` fixes this position to, if any.
    fn value(self, b: &Binding) -> Option<TermId> {
        self.ground.or_else(|| self.slot.and_then(|slot| b[slot]))
    }
}

/// FxHash (rustc's multiply-rotate hash) for the sub-pattern caches:
/// SipHash made a cached EXISTS check cost as much as a small evaluation.
/// Keys are dictionary-assigned term ids, never text from outside.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    // Ids, discriminants and lengths skip the byte loop (same hash).
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;
type FxSet<K> = HashSet<K, std::hash::BuildHasherDefault<FxHasher>>;

/// A row's values on a sub-pattern's key slots, inline so a per-row key
/// costs no allocation (the paper's listings read two slots; `None` pads,
/// and one sub-pattern's keys all have one width).
type SlotKey = [Option<TermId>; KEY_SLOTS];
const KEY_SLOTS: usize = 4;

fn slot_key(slots: &[usize], b: &Binding) -> SlotKey {
    let mut key = [None; KEY_SLOTS];
    for (k, &s) in key.iter_mut().zip(slots) {
        *k = b[s];
    }
    key
}

/// Build side of the hash operator (see
/// `Ctx::match_triple_pattern_hash`): `triples` already satisfy the
/// pattern's ground endpoints, so rows only probe on their variable
/// positions.
struct PredicateScan {
    s: Endpoint,
    o: Endpoint,
    triples: Vec<[TermId; 3]>,
}

impl PredicateScan {
    /// What row `b` binds the subject and object variables to.
    fn bound_in(&self, b: &Binding) -> (Option<TermId>, Option<TermId>) {
        (
            self.s.slot.and_then(|slot| b[slot]),
            self.o.slot.and_then(|slot| b[slot]),
        )
    }

    /// Pushes `b` extended by each scan triple in `hits`, in order. Both
    /// endpoints go through [`bind`], so a position the row already
    /// fixes is re-checked rather than overwritten.
    fn extend(&self, out: &mut Vec<Binding>, b: &Binding, hits: impl IntoIterator<Item = usize>) {
        for i in hits {
            let [ms, _, mo] = self.triples[i];
            let mut nb = b.clone();
            if bind(&mut nb, self.s.slot, ms) && bind(&mut nb, self.o.slot, mo) {
                out.push(nb);
            }
        }
    }
}

/// Binds `val` into `slot` (when the position is a variable), reporting
/// false on a conflict with an existing binding — the shared-variable
/// case (`?x p ?x`) and probe-side rebinding both funnel through here.
fn bind(b: &mut Binding, slot: Option<usize>, val: TermId) -> bool {
    let Some(slot) = slot else { return true };
    match b[slot] {
        None => {
            b[slot] = Some(val);
            true
        }
        Some(existing) => existing == val,
    }
}

/// Hash index over one column of a scan (0 = subject, 2 = object).
fn index_scan(scan: &[[TermId; 3]], col: usize) -> HashMap<TermId, Vec<usize>> {
    let mut map: HashMap<TermId, Vec<usize>> = HashMap::new();
    for (i, t) in scan.iter().enumerate() {
        map.entry(t[col]).or_default().push(i);
    }
    map
}

/// Solution charging is batched: a guard call per input binding costs
/// ~2% on small queries, so produced rows accumulate locally and are
/// charged every `CHARGE_BATCH` rows (bounding overshoot to one batch
/// plus one binding's matches per charging thread).
const CHARGE_BATCH: usize = 256;

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Aggregate(_) => true,
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            contains_aggregate(a) || contains_aggregate(b)
        }
        Expr::Not(a) | Expr::UnaryMinus(a) => contains_aggregate(a),
        Expr::In(a, list, _) => contains_aggregate(a) || list.iter().any(contains_aggregate),
        Expr::Call(_, args) => args.iter().any(contains_aggregate),
        _ => false,
    }
}

fn ground_to_term(tp: &TermPattern) -> Option<Term> {
    match tp {
        TermPattern::Iri(i) => Some(Term::iri(i.clone())),
        TermPattern::Blank(l) => Some(Term::bnode(l.clone())),
        TermPattern::Literal(l) => Some(literal_pattern_to_term(l)),
        TermPattern::Var(_) => None,
    }
}

fn literal_pattern_to_term(l: &LiteralPattern) -> Term {
    match (&l.language, &l.datatype) {
        (Some(lang), _) => Term::Literal(feo_rdf::Literal::lang(l.lexical.clone(), lang.clone())),
        (None, Some(dt)) => Term::Literal(feo_rdf::Literal::typed(
            l.lexical.clone(),
            feo_rdf::Iri::new(dt.clone()),
        )),
        (None, None) => Term::simple(l.lexical.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regexlite::COMPILES;

    /// `?s{i} :p "v{i}"` for `i` below 500.
    fn strings() -> Graph {
        let mut g = Graph::new();
        for i in 0..500 {
            g.insert(&Triple {
                subject: Term::iri(format!("http://t/s{i}")),
                predicate: Term::iri("http://t/p"),
                object: Term::simple(format!("v{i}")),
            });
        }
        g
    }

    /// Rows of `text` over `g`, and the patterns compiled meanwhile.
    fn run(g: &Graph, text: &str) -> (usize, usize) {
        let before = COMPILES.with(|n| n.get());
        let t = query(g, text, &QueryOptions::default())
            .expect("query runs")
            .expect_solutions();
        (t.len(), COMPILES.with(|n| n.get()) - before)
    }

    #[test]
    fn a_regex_compiles_once_per_execution() {
        let g = strings();
        let filter = r#"SELECT ?s WHERE { ?s <http://t/p> ?v FILTER REGEX(?v, "^v1") }"#;
        // v1, v10..v19, v100..v199.
        assert_eq!(run(&g, filter), (111, 1));
        let replace = r#"SELECT ?s WHERE { ?s <http://t/p> ?v
            FILTER (REPLACE(?v, "v", "w") = "w7") }"#;
        assert_eq!(run(&g, replace), (1, 1));
        // An invalid pattern drops every row, compiled (and failing) once.
        let invalid = r#"SELECT ?s WHERE { ?s <http://t/p> ?v FILTER REGEX(?v, "(") }"#;
        assert_eq!(run(&g, invalid), (0, 1));
    }
}
