//! SPARQL query evaluation over any [`feo_rdf::GraphView`].
//!
//! The evaluator executes the AST directly with solution sets (`Rows`)
//! flowing through group-pattern elements, matching the SPARQL
//! algebra: triples blocks join, OPTIONAL left-joins, UNION concatenates,
//! MINUS anti-joins on shared domains, BIND extends, VALUES joins an
//! inline table. Every group, EXISTS bodies included, runs as its
//! [`Plan`] says: BGPs in the plan's order and with its join operator
//! (nested or hash); a plan that does not fit the query is an error.
//!
//! A FILTER has group scope but runs where the plan placed it, once its
//! variables are final (`GroupPlan::filters`), dropping the same rows in
//! the same order. Correlated sub-patterns — an EXISTS group, an
//! OPTIONAL's right side — run once per distinct key: the row's values on
//! the slots the plan recorded (`GroupPlan::keys`).
//!
//! Evaluation is read-only: the input is any [`feo_rdf::GraphView`]
//! (a `&Graph`, an [`feo_rdf::Overlay`] session, or the `&mut Graph`
//! older call sites still hold). Computed terms (query constants, BIND /
//! SELECT expressions, VALUES data) are interned into a private scratch
//! overlay that is dropped when evaluation finishes, so the caller's
//! dictionary is never polluted by the queries it answers. Each query
//! constant is resolved, and each REGEX pattern compiled, once per
//! execution (`Memo`).
//!
//! Rows stay term ids to the end, in flat slabs: a join step, an OPTIONAL
//! replay or a VALUES merge copies the input row into its output slab and
//! extends it there, a filter compacts a slab in place, and GROUP BY
//! folds rows into per-group accumulators. ORDER BY ranks each distinct
//! key id once and sorts rows by rank, projection and DISTINCT work on
//! one flat id buffer, and only the cells that OFFSET / LIMIT keep become
//! the [`SolutionTable`]'s terms (count bumps on the dictionary's
//! strings): a result row costs one allocation.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use feo_rdf::governor::{Exhausted, Guard};
use feo_rdf::hash::{FxMap, FxSet};
use feo_rdf::vocab::xsd;
use feo_rdf::{Graph, GraphStore, GraphView, Overlay, Term, TermId, Triple};

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::parser::parse_query;
use crate::plan::{
    misfit, plan_query, BgpPlan, ElementPlan, GroupPlan, JoinAlgo, Plan, QueryOptions,
    HASH_JOIN_MIN,
};
use crate::regexlite::Regex;
use crate::results::{QueryResult, SolutionTable};
use crate::value::{
    as_integer, as_numeric, as_string, ebv, order_key, str_builtin, values_compare, values_equal,
    OrderKey, Value,
};

/// One solution: a slot per registered variable.
type Row = [Option<TermId>];

/// A solution set: `len` rows of `width` slots, side by side in one buffer
/// (`len` is its own field: a query without variables has width 0).
#[derive(Clone)]
struct Rows {
    width: usize,
    len: usize,
    cells: Vec<Option<TermId>>,
}

impl Rows {
    fn new(width: usize) -> Rows {
        let (len, cells) = (0, Vec::new());
        Rows { width, len, cells }
    }

    /// The set holding just `row`.
    fn one(row: &Row) -> Rows {
        let mut rows = Rows::new(row.len());
        rows.push(row);
        rows
    }

    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, i: usize) -> &Row {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut Row {
        &mut self.cells[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &Row> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Appends a copy of `row` and hands it back to be extended in place.
    fn push(&mut self, row: &Row) -> &mut Row {
        self.cells.extend_from_slice(row);
        self.len += 1;
        self.row_mut(self.len - 1)
    }

    /// Drops the last row: an extension that did not fit.
    fn pop(&mut self) {
        self.len -= 1;
        self.cells.truncate(self.len * self.width);
    }

    fn append(&mut self, other: &Rows) {
        self.cells.extend_from_slice(&other.cells);
        self.len += other.len;
    }

    /// Keeps the rows `keep` accepts, in order, compacting in place.
    fn retain(&mut self, mut keep: impl FnMut(&Row) -> bool) {
        let (w, mut kept) = (self.width, 0);
        for i in 0..self.len {
            if keep(self.row(i)) {
                self.cells.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.len = kept;
        self.cells.truncate(kept * w);
    }
}

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
/// seeded names: its filter placement and keys are trusted. A plan whose
/// shape does not fit the query is a [`SparqlError`].
pub fn execute_seeded<G: GraphView>(
    graph: G,
    q: &Query,
    plan: &Plan,
    seed: &[(&str, Term)],
    opts: &QueryOptions,
) -> Result<QueryResult> {
    if opts.explain {
        return Ok(QueryResult::Plan(plan.render(q)?));
    }
    let (vars, sites) = VarTable::of(q);
    let mut ctx = Ctx {
        g: Overlay::new(graph),
        vars,
        force: opts.force_join,
        guard: opts.guard,
        tripped: Cell::new(None),
        misfit: false,
        plan,
        sites,
        exists: FxMap::default(),
        memo: Memo::default(),
        aggregated: Vec::new(),
    };
    let mut row = vec![None; ctx.vars.len()];
    for (name, term) in seed {
        let slot = ctx.vars.get(name).ok_or_else(|| {
            SparqlError::eval(format!("seeded variable ?{name} is not in the query"))
        })?;
        row[slot] = Some(ctx.g.intern(term));
    }

    let rows = ctx.eval_group(&q.where_pattern, Rows::one(&row), &plan.root)?;

    let result = match &q.form {
        QueryForm::Ask => Ok(QueryResult::Boolean(rows.len() > 0)),
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
    if ctx.misfit {
        return Err(misfit());
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
    /// The slots of every variable `q` mentions, in walk order, and the
    /// address ([`site`]) of each EXISTS body it holds, in the same order.
    pub(crate) fn of(q: &Query) -> (VarTable, Vec<usize>) {
        let mut vars = VarTable::default();
        let mut sites = Vec::new();
        walk_query(q, &mut |seen| match seen {
            Seen::Var(v) => {
                vars.slot(v);
            }
            Seen::Exists(at) => sites.push(at),
            Seen::Bind | Seen::BNode => {}
        });
        (vars, sites)
    }

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
/// target), a `BNODE()` call (a fresh node per evaluation) or an EXISTS
/// body, by its [`site`], before what the body mentions.
pub(crate) enum Seen<'q> {
    Var(&'q str),
    Bind,
    BNode,
    Exists(usize),
}

/// An EXISTS body's address: what an execution knows it by.
pub(crate) fn site(body: &GroupPattern) -> usize {
    body as *const GroupPattern as usize
}

/// Reports everything `q` mentions — its WHERE group, then its
/// solution modifiers — in the order that fixes slot numbering.
fn walk_query(q: &Query, f: &mut dyn FnMut(Seen<'_>)) {
    walk_group(&q.where_pattern, f);
    for (_, e, v) in modifier_items(q) {
        e.into_iter().for_each(|e| walk_expr(e, f));
        v.into_iter().for_each(|v| f(Seen::Var(v)));
    }
}

/// The items of `q`'s SELECT, GROUP BY, HAVING and ORDER BY clauses in
/// that order, each by clause, with its expression and the variable it
/// names.
pub(crate) fn modifier_items(
    q: &Query,
) -> impl Iterator<Item = (&'static str, Option<&Expr>, Option<&str>)> {
    let select = match &q.form {
        QueryForm::Select {
            projection: Projection::Items(items),
            ..
        } => &items[..],
        _ => &[],
    };
    let select = select.iter().map(|item| match item {
        ProjectionItem::Var(v) => ("select", None, Some(v.as_str())),
        ProjectionItem::Expr(e, v) => ("select", Some(e), Some(v.as_str())),
    });
    let group_by = q.modifiers.group_by.iter().map(|gc| match gc {
        GroupCondition::Var(v) => ("group by", None, Some(v.as_str())),
        GroupCondition::Expr(e, alias) => ("group by", Some(e), alias.as_deref()),
    });
    let having = q.modifiers.having.iter().map(|e| ("having", Some(e), None));
    let order_by = (q.modifiers.order_by.iter()).map(|oc| ("order by", Some(&oc.expr), None));
    select.chain(group_by).chain(having).chain(order_by)
}

/// Reports everything `group` mentions, EXISTS groups included, in the
/// order that fixes slot numbering.
pub(crate) fn walk_group(group: &GroupPattern, f: &mut dyn FnMut(Seen<'_>)) {
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
        Expr::Call(Builtin::BNode, _) => f(Seen::BNode),
        Expr::Exists(g, _) => {
            f(Seen::Exists(site(g)));
            walk_group(g, f);
        }
        _ => {}
    }
    operands(e, &mut |x| walk_expr(x, f));
}

/// Calls `f` on each operand of `e`, an aggregate's argument included
/// (an EXISTS body is a group, not an operand).
pub(crate) fn operands<'q>(e: &'q Expr, f: &mut dyn FnMut(&'q Expr)) {
    match e {
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            f(a);
            f(b);
        }
        Expr::Not(a) | Expr::UnaryMinus(a) => f(a),
        Expr::In(a, list, _) => {
            f(a);
            list.iter().for_each(f);
        }
        Expr::Call(_, args) => args.iter().for_each(f),
        Expr::Aggregate(agg) => agg.expr.iter().for_each(f),
        Expr::Var(_) | Expr::Iri(_) | Expr::Literal(_) | Expr::Exists(..) => {}
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
    /// Set when an EXISTS body's plan does not fit it: the query fails
    /// when evaluation finishes, where a trip would surface too.
    misfit: bool,
    plan: &'a Plan,
    /// The query's EXISTS sites, in [`Plan::exists`] order.
    sites: Vec<usize>,
    /// `EXISTS` results by (site, key).
    exists: FxMap<(usize, SlotKey), bool>,
    memo: Memo,
    /// The value of each aggregate over the group being finalised, by
    /// the address of its AST node (a query has a handful: a scan beats
    /// hashing); empty outside aggregation.
    aggregated: Vec<(usize, Option<Value>)>,
}

/// What an execution resolves once and then reuses: each query constant
/// by the address of its AST node, so an EXISTS body, an OPTIONAL side or
/// a filter that runs again per key or per row looks nothing up twice,
/// each computed integer (a COUNT per group) by its value, and each
/// compiled REGEX / REPLACE pattern (`None`: it does not compile) by its
/// text and flags.
#[derive(Default)]
struct Memo {
    terms: FxMap<usize, Option<TermId>>,
    ints: FxMap<i64, TermId>,
    regexes: HashMap<(String, String), Option<Regex>>,
}

impl<'a, G: GraphView> Ctx<'a, G> {
    /// Amortized governor poll for `&self` hot loops. Returns true when
    /// execution should stop; the trip is stashed in `self.tripped` and
    /// surfaced as an error at the next fallible boundary.
    #[inline]
    fn guard_tripped(&self) -> bool {
        if self.tripped.get().is_none() {
            if let Some(Err(exhausted)) = self.guard.map(Guard::check_time) {
                self.tripped.set(Some(exhausted));
            }
        }
        self.tripped.get().is_some()
    }

    /// Fallible governor checkpoint: converts a recorded or fresh trip
    /// into a typed error.
    fn checkpoint(&self) -> Result<()> {
        self.guard_tripped();
        self.tripped
            .get()
            .map_or(Ok(()), |e| Err(SparqlError::Exhausted(e)))
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

    /// Charges the rows `out` gained since its first `charged` were
    /// charged, once a batch is due or the operator is `done`.
    fn charge_rows(&self, out: &Rows, charged: &mut usize, done: bool) -> Result<()> {
        if done || out.len() - *charged >= CHARGE_BATCH {
            self.charge_solutions(out.len() - std::mem::replace(charged, out.len()))?;
        }
        Ok(())
    }

    // ---- group patterns ------------------------------------------------

    /// Evaluates one group pattern as `plan` says: element `i` runs
    /// with plan node `i`, and a FILTER where the plan placed it, or else
    /// at group end. A plan that does not fit the group is an error.
    fn eval_group(&mut self, group: &GroupPattern, input: Rows, plan: &GroupPlan) -> Result<Rows> {
        if plan.elements.len() != group.elements.len() {
            return Err(misfit());
        }
        let placed = &plan.filters;
        let mut next_placed = 0;
        let mut late: Vec<&Expr> = Vec::new();
        let mut rows = input;
        for (i, (el, sub)) in group.elements.iter().zip(&plan.elements).enumerate() {
            self.run_placed(group, placed, &mut next_placed, i, &mut rows);
            self.checkpoint()?;
            match (el, sub) {
                (GroupElement::Filter(e), ElementPlan::Leaf) => {
                    if placed.iter().all(|&(_, f)| f != i) {
                        late.push(e);
                    }
                }
                (GroupElement::Triples(ts), ElementPlan::Bgp(bp)) => {
                    rows = self.eval_bgp(ts, rows, bp)?;
                }
                (GroupElement::Group(inner), ElementPlan::Group(gp)) => {
                    rows = self.eval_group(inner, rows, gp)?;
                }
                (GroupElement::Optional(inner), ElementPlan::Optional(gp)) => {
                    rows = self.left_join(inner, rows, gp)?;
                }
                (GroupElement::Union(arms), ElementPlan::Union(arm_plans))
                    if arms.len() == arm_plans.len() =>
                {
                    let mut out = Rows::new(rows.width);
                    for (arm, ap) in arms.iter().zip(arm_plans) {
                        out.append(&self.eval_group(arm, rows.clone(), ap)?);
                    }
                    rows = out;
                }
                (GroupElement::Minus(inner), ElementPlan::Minus(gp)) => {
                    let empty = Rows::one(&vec![None; rows.width]);
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
                (GroupElement::Bind(e, v), ElementPlan::Leaf) => {
                    let slot = self.slot_of(v)?;
                    for i in 0..rows.len() {
                        if rows.row(i)[slot].is_some() {
                            return Err(SparqlError::eval(format!(
                                "BIND would rebind already-bound variable ?{v}"
                            )));
                        }
                        if let Some(val) = self.eval_expr(e, rows.row(i)) {
                            rows.row_mut(i)[slot] = Some(self.intern_value(val));
                        }
                    }
                }
                (GroupElement::Values(vb), ElementPlan::Leaf) => {
                    let slots: Vec<usize> = (vb.vars.iter())
                        .map(|v| self.slot_of(v))
                        .collect::<Result<_>>()?;
                    // Intern the data terms.
                    let mut table = vec![Vec::new(); vb.rows.len()];
                    for (row, cells) in vb.rows.iter().zip(&mut table) {
                        for cell in row {
                            cells.push(cell.as_ref().map(|tp| self.intern_ground(tp)).transpose()?);
                        }
                    }
                    let mut out = Rows::new(rows.width);
                    for b in rows.iter() {
                        for trow in &table {
                            let merged = out.push(b);
                            let mut cells = slots.iter().zip(trow);
                            if !cells
                                .all(|(&s, cell)| cell.is_none_or(|y| bind(merged, Some(s), y)))
                            {
                                out.pop();
                            }
                        }
                    }
                    rows = out;
                }
                _ => return Err(misfit()),
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
        rows: &mut Rows,
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

    fn filter_passes(&mut self, e: &Expr, b: &Row) -> bool {
        match self.eval_expr(e, b) {
            Some(v) => ebv(&self.g, &v) == Some(true),
            None => false,
        }
    }

    /// `EXISTS { group }` for row `b`, evaluated once per distinct key
    /// per execution. A failed evaluation (a `BIND` conflict, or a trip
    /// that `tripped` surfaces at the next checkpoint) is "no solution"
    /// and is not cached; a plan that does not fit fails the query.
    fn exists(&mut self, group: &GroupPattern, b: &Row) -> bool {
        let Ok(plan) = self.plan.body(&self.sites, group) else {
            self.misfit = true;
            return false;
        };
        let key = (plan.keys.as_deref()).map(|s| (site(group), slot_key(s, b)));
        if let Some(&hit) = key.and_then(|k| self.exists.get(&k)) {
            return hit;
        }
        let rows = match self.eval_group(group, Rows::one(b), plan) {
            Ok(rows) => rows,
            Err(e) => {
                self.misfit |= e == misfit();
                return false;
            }
        };
        if let Some(k) = key {
            self.exists.insert(k, rows.len() > 0);
        }
        rows.len() > 0
    }

    /// `rows OPTIONAL { inner }` with the right side evaluated once per
    /// distinct key: a repeated key replays the recorded extensions (the
    /// key slots' values) onto its row, in order, charged to the solution
    /// budget like join rows.
    fn left_join(&mut self, inner: &GroupPattern, rows: Rows, plan: &GroupPlan) -> Result<Rows> {
        // A single row has nothing to share a key with.
        let keyed = plan.keys.as_deref().filter(|_| rows.len() > 1);
        let slots = keyed.unwrap_or(&[]);
        let w = slots.len();
        // Per key: where its extensions start in `exts`, and how many.
        let mut seen: FxMap<SlotKey, (usize, usize)> = FxMap::default();
        let mut exts: Vec<Option<TermId>> = Vec::new();
        let (mut out, mut uncharged) = (Rows::new(rows.width), 0);
        for b in rows.iter() {
            let key = keyed.as_ref().map(|_| slot_key(slots, b));
            if let Some(&(start, n)) = key.and_then(|k| seen.get(&k)) {
                for ext in (0..n).map(|i| &exts[start + i * w..start + (i + 1) * w]) {
                    let nb = out.push(b);
                    slots.iter().zip(ext).for_each(|(&s, &v)| nb[s] = v);
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
            let extended = self.eval_group(inner, Rows::one(b), plan)?;
            if let Some(k) = key {
                seen.insert(k, (exts.len(), extended.len()));
                exts.extend(extended.iter().flat_map(|e| slots.iter().map(|&s| e[s])));
            }
            if extended.len() == 0 {
                out.push(b);
            } else {
                out.append(&extended);
            }
        }
        self.charge_solutions(uncharged)?;
        Ok(out)
    }

    // ---- BGP -------------------------------------------------------------

    /// Runs the plan's steps in order, each with its join operator;
    /// `force_join` swaps operators without touching order. A plan whose
    /// steps do not run each pattern once is an error.
    fn eval_bgp(
        &mut self,
        patterns: &[TriplePattern],
        input: Rows,
        plan: &BgpPlan,
    ) -> Result<Rows> {
        if !plan.fits(patterns.len()) {
            return Err(misfit());
        }
        let mut rows = input;
        for step in &plan.steps {
            let tp = &patterns[step.pattern];
            // A hash step builds its table only when enough rows arrive to
            // amortize it. Forcing an algorithm bypasses that gate so
            // differential tests exercise the operator on any row count.
            let hash = match self.force {
                Some(forced) => forced == JoinAlgo::Hash,
                None => step.algo == JoinAlgo::Hash && rows.len() >= HASH_JOIN_MIN,
            };
            rows = if hash {
                self.match_triple_pattern_hash(tp, rows)?
            } else {
                self.match_triple_pattern(tp, rows)?
            };
            if rows.len() == 0 {
                break;
            }
        }
        Ok(rows)
    }

    fn match_triple_pattern(&mut self, tp: &TriplePattern, rows: Rows) -> Result<Rows> {
        NESTED_JOINS.fetch_add(1, Ordering::Relaxed);
        let s = self.endpoint(&tp.subject)?;
        let o = self.endpoint(&tp.object)?;
        // A plain predicate is one dictionary id, a variable predicate
        // one slot; a complex path has neither and walks `eval_path`.
        let (p_fixed, p_slot) = match &tp.path {
            Path::Iri(p) => match self.lookup_const(p) {
                Some(id) => (Some(id), None),
                // Unknown predicate: every row finds nothing.
                None => return Ok(Rows::new(rows.width)),
            },
            Path::Var(v) => (None, self.vars.get(v)),
            _ => (None, None),
        };
        let complex = !matches!(tp.path, Path::Iri(_) | Path::Var(_));
        let (mut out, mut charged) = (Rows::new(rows.width), 0);
        for b in rows.iter() {
            let (s_val, o_val) = (s.value(b), o.value(b));
            let matches = if complex {
                let pairs = self.eval_path(&tp.path, s_val, o_val);
                pairs.into_iter().map(|(ms, mo)| [ms, mo, mo]).collect()
            } else {
                let p_val = p_fixed.or_else(|| p_slot.and_then(|slot| b[slot]));
                self.g.match_pattern(s_val, p_val, o_val)
            };
            for [ms, mp, mo] in matches {
                let nb = out.push(b);
                for (slot, v) in [(s.slot, ms), (p_slot, mp), (o.slot, mo)] {
                    slot.into_iter().for_each(|slot| nb[slot] = Some(v));
                }
            }
            self.charge_rows(&out, &mut charged, false)?;
        }
        self.charge_rows(&out, &mut charged, true)?;
        Ok(out)
    }

    /// Hash-join variant of [`Self::match_triple_pattern`] for plain-IRI
    /// predicates: one index scan over the pattern's predicate (narrowed
    /// by any ground endpoints) builds the join side, then each input
    /// row probes it, sorted by the columns the row binds, instead of
    /// running its own B-tree range scan. A sorted index is built lazily
    /// per boundness signature, because rows in one solution set can
    /// differ in which endpoint variables they bind (OPTIONAL, UNION).
    fn match_triple_pattern_hash(&mut self, tp: &TriplePattern, rows: Rows) -> Result<Rows> {
        let Path::Iri(p) = &tp.path else {
            // The planner only marks plain predicates; stay correct anyway.
            return self.match_triple_pattern(tp, rows);
        };
        HASH_JOINS.fetch_add(1, Ordering::Relaxed);
        let Some(p_id) = self.lookup_const(p) else {
            // Unknown predicate: every row finds nothing.
            return Ok(Rows::new(rows.width));
        };
        let s = self.endpoint(&tp.subject)?;
        let o = self.endpoint(&tp.object)?;
        let triples = self.g.match_pattern(s.ground, Some(p_id), o.ground);
        let scan = PredicateScan { s, o, triples };
        // The scan sorted by subject, by object and by both.
        let (mut by_s, mut by_o, mut by_so) = (None, None, None);
        let (mut out, mut charged) = (Rows::new(rows.width), 0);
        for b in rows.iter() {
            match scan.bound_in(b) {
                (Some(sv), Some(ov)) => {
                    if !scan.probe(&mut by_so, (0, 2), (sv, ov)).is_empty() {
                        out.push(b);
                    }
                }
                (Some(sv), None) => {
                    let hits = scan.probe(&mut by_s, (0, 0), (sv, sv));
                    scan.extend(&mut out, b, hits.iter().copied());
                }
                (None, Some(ov)) => {
                    let hits = scan.probe(&mut by_o, (2, 2), (ov, ov));
                    scan.extend(&mut out, b, hits.iter().copied());
                }
                (None, None) => scan.extend(&mut out, b, 0..scan.triples.len()),
            }
            self.charge_rows(&out, &mut charged, false)?;
        }
        self.charge_rows(&out, &mut charged, true)?;
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

    /// `v` as a term id; a computed integer is interned once per execution.
    fn intern_value(&mut self, v: Value) -> TermId {
        match v {
            Value::Int(i) => {
                *(self.memo.ints.entry(i)).or_insert_with(|| self.g.intern(&Term::integer(i)))
            }
            v => v.into_term_id(&mut self.g),
        }
    }

    /// A REGEX / REPLACE flags argument's text: empty when absent, `None`
    /// when it is not a string.
    fn flags(&self, arg: Option<&Value>) -> Option<String> {
        arg.map_or(Some(String::new()), |v| {
            as_string(&self.g, v).map(|(f, _)| f)
        })
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
                // Forward members' pairs first, then inverse members'.
                let mut out = Vec::new();
                let mut seen = HashSet::new();
                for inverse in [false, true] {
                    let side = members.iter().filter(|(_, inv)| *inv == inverse);
                    if side.clone().next().is_none() {
                        continue;
                    }
                    let excluded: HashSet<TermId> =
                        side.filter_map(|(iri, _)| self.lookup_const(iri)).collect();
                    let (from, to) = if inverse { (o, s) } else { (s, o) };
                    for [ms, mp, mo] in self.g.match_pattern(from, None, to) {
                        let pair = if inverse { (mo, ms) } else { (ms, mo) };
                        if !excluded.contains(&mp) && seen.insert(pair) {
                            out.push(pair);
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
            (Some(a), Some(b)) if a != b => Vec::new(),
            (Some(a), _) | (None, Some(a)) => vec![(a, a)],
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
                let pairs = match backward {
                    true => self.eval_path(inner, None, Some(node)),
                    false => self.eval_path(inner, Some(node), None),
                };
                for next in pairs.into_iter().map(|(a, b)| if backward { a } else { b }) {
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
    fn eval_expr(&mut self, e: &Expr, b: &Row) -> Option<Value> {
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
            Expr::Aggregate(agg) => {
                let at = &**agg as *const AggregateExpr as usize;
                (self.aggregated.iter().find(|(a, _)| *a == at)).and_then(|(_, v)| v.clone())
            }
        }
    }

    fn literal_value(&mut self, l: &LiteralPattern) -> Value {
        let plain = || Value::Str {
            s: l.lexical.clone(),
            lang: l.language.clone(),
        };
        match (&l.language, &l.datatype) {
            (None, Some(dt)) if dt == xsd::BOOLEAN => {
                Value::Bool(l.lexical == "true" || l.lexical == "1")
            }
            (None, Some(dt)) if xsd::is_integer_type(dt) => {
                l.lexical.parse().map_or_else(|_| plain(), Value::Int)
            }
            (None, Some(dt)) if xsd::is_numeric_type(dt) => {
                l.lexical.parse().map_or_else(|_| plain(), Value::Num)
            }
            (Some(_), _) | (None, None) => plain(),
            (None, Some(_)) => Value::Term(self.g.intern(&literal_pattern_to_term(l))),
        }
    }

    fn compare(&self, op: CompareOp, l: &Value, r: &Value) -> Option<bool> {
        use std::cmp::Ordering;
        let ord = || values_compare(&self.g, l, r);
        match op {
            CompareOp::Eq => values_equal(&self.g, l, r),
            CompareOp::Ne => values_equal(&self.g, l, r).map(|b| !b),
            CompareOp::Lt => ord().map(Ordering::is_lt),
            CompareOp::Le => ord().map(Ordering::is_le),
            CompareOp::Gt => ord().map(Ordering::is_gt),
            CompareOp::Ge => ord().map(Ordering::is_ge),
        }
    }

    /// `l op r`: exact (checked) when both operands are integer-typed —
    /// a computed integer or an integer literal — except for division,
    /// and in `f64` otherwise.
    fn arith(&self, op: ArithOp, l: &Value, r: &Value) -> Option<Value> {
        let int = |v: &Value| match v {
            Value::Int(i) => Some(*i),
            Value::Term(id) => match self.g.term(*id) {
                Term::Literal(l) => l.as_integer(),
                _ => None,
            },
            _ => None,
        };
        if let (Some(a), Some(b), false) = (int(l), int(r), op == ArithOp::Div) {
            return match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                _ => a.checked_mul(b),
            }
            .map(Value::Int);
        }
        let (a, b) = (as_numeric(&self.g, l)?, as_numeric(&self.g, r)?);
        Some(Value::Num(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div if b == 0.0 => return None,
            ArithOp::Div => a / b,
        }))
    }

    fn call(&mut self, builtin: Builtin, args: &[Expr], b: &Row) -> Option<Value> {
        use Builtin::*;
        // BOUND and COALESCE/IF must control evaluation of their args.
        match builtin {
            Bound => {
                let Expr::Var(v) = &args[0] else { return None };
                let bound = self.vars.get(v).and_then(|s| b[s]).is_some();
                return Some(Value::Bool(bound));
            }
            Coalesce => return args.iter().find_map(|a| self.eval_expr(a, b)),
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
                let s = match vals.first()? {
                    Value::Term(id) => self.g.term(*id).as_literal()?.language(),
                    Value::Str { lang, .. } => lang.as_deref(),
                    _ => return None,
                };
                let s = s.unwrap_or_default().to_string();
                Some(Value::Str { s, lang: None })
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
                // A computed value's datatype is the one of the term it makes.
                let id = match vals.into_iter().next()? {
                    Value::IriStr(_) => return None,
                    v => self.intern_value(v),
                };
                let dt = self.g.term(id).as_literal()?.datatype().as_str();
                Some(Value::IriStr(dt.to_string()))
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
            UCase | LCase => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                let s = if builtin == UCase {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                };
                Some(Value::Str { s, lang })
            }
            Contains | StrStarts | StrEnds | StrBefore | StrAfter => {
                let (h, lang) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                let (s, lang) = match (builtin, h.find(&n)) {
                    (Contains, at) => return Some(Value::Bool(at.is_some())),
                    (StrStarts, _) => return Some(Value::Bool(h.starts_with(&n))),
                    (StrEnds, _) => return Some(Value::Bool(h.ends_with(&n))),
                    (StrBefore, Some(i)) => (&h[..i], lang),
                    (_, Some(i)) => (&h[i + n.len()..], lang),
                    (_, None) => ("", None),
                };
                Some(Value::Str {
                    s: s.to_string(),
                    lang,
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
                let flags = self.flags(vals.get(3))?;
                Some(Value::Str {
                    s: self.regex(pat, flags)?.replace_all(&s, &rep),
                    lang,
                })
            }
            Concat => {
                let s = (vals.iter())
                    .map(|v| str_builtin(&self.g, v))
                    .collect::<Option<_>>()?;
                Some(Value::Str { s, lang: None })
            }
            Regex => {
                let (text, _) = as_string(&self.g, vals.first()?)?;
                let (pat, _) = as_string(&self.g, vals.get(1)?)?;
                let flags = self.flags(vals.get(2))?;
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
        mut rows: Rows,
    ) -> Result<QueryResult> {
        let mut aggs = Vec::new();
        if let Projection::Items(items) = projection {
            for item in items {
                if let ProjectionItem::Expr(e, _) = item {
                    aggregates(e, &mut aggs);
                }
            }
        }
        if !q.modifiers.group_by.is_empty() || !aggs.is_empty() {
            for h in &q.modifiers.having {
                aggregates(h, &mut aggs);
            }
            rows = self.aggregate_rows(q, projection, &aggs, rows)?;
        } else {
            let all = 0..rows.len();
            self.project_exprs(projection, &mut rows, all)?;
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
            Projection::Items(items) => (items.iter())
                .map(|(ProjectionItem::Var(v) | ProjectionItem::Expr(_, v))| {
                    Ok((v.clone(), self.slot_of(v)?))
                })
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .unzip(),
        };

        // Projected rows, in order, side by side in one buffer; DISTINCT
        // keeps each one's first occurrence and the slice picks from those.
        let w = slots.len();
        let flat: Vec<Option<TermId>> = (order.iter())
            .flat_map(|&r| {
                let b = rows.row(r);
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
    fn order_by(&mut self, conditions: &[OrderCondition], rows: &Rows) -> Vec<usize> {
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
                    .map(|b| self.eval_expr(e, b).map(|v| self.intern_value(v)))
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

    /// One row per group, in the order groups first appear: the group's
    /// keys bound, its aggregates folded row by row into accumulators,
    /// then HAVING and the projection's expressions.
    fn aggregate_rows(
        &mut self,
        q: &Query,
        projection: &Projection,
        aggs: &[&AggregateExpr],
        rows: Rows,
    ) -> Result<Rows> {
        let group_by = &q.modifiers.group_by;
        // Per group, by its key: a row binding the key, and `aggs.len()`
        // accumulators.
        let mut index: FxMap<Vec<Option<TermId>>, usize> = FxMap::default();
        let (mut groups, mut accs) = (Rows::new(rows.width), Vec::new());
        let (empty, mut key) = (vec![None; rows.width], Vec::with_capacity(group_by.len()));
        // With no GROUP BY: one group, even over no rows.
        if group_by.is_empty() {
            index.insert(Vec::new(), 0);
            groups.push(&empty);
            accs.extend(aggs.iter().map(|&a| Acc::new(a)));
        }
        for b in rows.iter() {
            key.clear();
            for gc in group_by {
                key.push(match gc {
                    GroupCondition::Var(v) => self.vars.get(v).and_then(|s| b[s]),
                    GroupCondition::Expr(e, _) => {
                        self.eval_expr(e, b).map(|v| self.intern_value(v))
                    }
                });
            }
            let g = match index.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    let first = groups.push(&empty);
                    for (gc, &k) in group_by.iter().zip(&key) {
                        if let GroupCondition::Var(v) | GroupCondition::Expr(_, Some(v)) = gc {
                            if let Some(slot) = self.vars.get(v) {
                                first[slot] = k;
                            }
                        }
                    }
                    accs.extend(aggs.iter().map(|&a| Acc::new(a)));
                    index.insert(key.clone(), groups.len() - 1);
                    groups.len() - 1
                }
            };
            let group = &mut accs[g * aggs.len()..(g + 1) * aggs.len()];
            for (acc, agg) in group.iter_mut().zip(aggs) {
                acc.add(agg.expr.as_ref().map(|e| self.eval_expr(e, b)));
            }
        }

        let (mut accs, mut kept) = (accs.into_iter(), Vec::with_capacity(groups.len()));
        for g in 0..groups.len() {
            self.aggregated = (aggs.iter().zip(accs.by_ref()))
                .map(|(&a, acc)| (a as *const _ as usize, self.finish(a, acc)))
                .collect();
            let passes = (q.modifiers.having.iter()).all(|h| {
                let v = self.eval_expr(h, groups.row(g));
                v.and_then(|v| ebv(&self.g, &v)) == Some(true)
            });
            if passes {
                self.project_exprs(projection, &mut groups, g..g + 1)?;
            }
            kept.push(passes);
        }
        self.aggregated.clear();
        let mut kept = kept.into_iter();
        groups.retain(|_| kept.next() == Some(true));
        Ok(groups)
    }

    /// Binds each SELECT expression's variable, item by item, on the rows
    /// `at` of `rows`.
    fn project_exprs(
        &mut self,
        projection: &Projection,
        rows: &mut Rows,
        at: std::ops::Range<usize>,
    ) -> Result<()> {
        let Projection::Items(items) = projection else {
            return Ok(());
        };
        for item in items {
            if let ProjectionItem::Expr(e, v) = item {
                let slot = self.slot_of(v)?;
                for i in at.clone() {
                    if let Some(val) = self.eval_expr(e, rows.row(i)) {
                        rows.row_mut(i)[slot] = Some(self.intern_value(val));
                    }
                }
            }
        }
        Ok(())
    }

    /// The slot of a variable the query mentions.
    fn slot_of(&self, v: &str) -> Result<usize> {
        (self.vars.get(v)).ok_or_else(|| SparqlError::eval(format!("?{v} is not registered")))
    }

    /// An aggregate's value over the group `acc` folded.
    fn finish(&self, agg: &AggregateExpr, acc: Acc) -> Option<Value> {
        let mut values = match acc {
            Acc::Count(n) => return Some(Value::Int(n)),
            Acc::Values(values) => values,
        };
        if agg.distinct {
            let mut kept: Vec<Value> = Vec::new();
            for v in values {
                if !kept
                    .iter()
                    .any(|k| values_equal(&self.g, k, &v) == Some(true))
                {
                    kept.push(v);
                }
            }
            values = kept;
        }
        match agg.kind {
            AggregateKind::Count => Some(Value::Int(values.len() as i64)),
            AggregateKind::Sum | AggregateKind::Avg => {
                let mut sum = Value::Int(0);
                for v in &values {
                    sum = self.arith(ArithOp::Add, &sum, v)?;
                }
                match agg.kind {
                    AggregateKind::Avg if !values.is_empty() => {
                        self.arith(ArithOp::Div, &sum, &Value::Int(values.len() as i64))
                    }
                    _ => Some(sum),
                }
            }
            AggregateKind::Min | AggregateKind::Max => {
                let wins = Some(match agg.kind {
                    AggregateKind::Min => std::cmp::Ordering::Less,
                    _ => std::cmp::Ordering::Greater,
                });
                let better = |v: &Value, best: &Value| values_compare(&self.g, v, best) == wins;
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

    fn construct(&mut self, template: &[TriplePattern], rows: Rows) -> Result<QueryResult> {
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

    fn template_term(&self, tp: &TermPattern, b: &Row, row: usize) -> Option<Term> {
        match tp {
            TermPattern::Var(v) => self
                .vars
                .get(v)
                .and_then(|s| b[s])
                .map(|id| self.g.term(id).clone()),
            TermPattern::Blank(l) => Some(Term::bnode(format!("c{row}_{l}"))),
            ground => ground_to_term(ground),
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

/// One subject/object position of a triple pattern: a binding slot
/// (variable or blank label) or an interned ground term, never both.
#[derive(Clone, Copy)]
struct Endpoint {
    slot: Option<usize>,
    ground: Option<TermId>,
}

impl Endpoint {
    /// The id row `b` fixes this position to, if any.
    fn value(self, b: &Row) -> Option<TermId> {
        self.ground.or_else(|| self.slot.and_then(|slot| b[slot]))
    }
}

/// A row's values on a sub-pattern's key slots, inline so a per-row key
/// costs no allocation (the paper's listings read two slots; `None` pads,
/// and one sub-pattern's keys all have one width).
type SlotKey = [Option<TermId>; KEY_SLOTS];
pub(crate) const KEY_SLOTS: usize = 4;

fn slot_key(slots: &[usize], b: &Row) -> SlotKey {
    let mut key = [None; KEY_SLOTS];
    for (k, &s) in key.iter_mut().zip(slots) {
        *k = b.get(s).copied().flatten();
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
    fn bound_in(&self, b: &Row) -> (Option<TermId>, Option<TermId>) {
        (
            self.s.slot.and_then(|slot| b[slot]),
            self.o.slot.and_then(|slot| b[slot]),
        )
    }

    /// The scan triples whose columns `(a, c)` hold `key`, in scan order,
    /// through `index`: the triple numbers stably sorted on those columns,
    /// built on first use.
    fn probe<'i>(
        &self,
        index: &'i mut Option<Vec<usize>>,
        (a, c): (usize, usize),
        key: (TermId, TermId),
    ) -> &'i [usize] {
        let at = |i: &usize| (self.triples[*i][a], self.triples[*i][c]);
        let index = index.get_or_insert_with(|| {
            let mut order: Vec<usize> = (0..self.triples.len()).collect();
            order.sort_by_key(at);
            order
        });
        let start = index.partition_point(|i| at(i) < key);
        let len = index[start..].partition_point(|i| at(i) == key);
        &index[start..start + len]
    }

    /// Pushes `b` extended by each scan triple in `hits`, in order. Both
    /// endpoints go through [`bind`], so a position the row already
    /// fixes is re-checked rather than overwritten.
    fn extend(&self, out: &mut Rows, b: &Row, hits: impl IntoIterator<Item = usize>) {
        for i in hits {
            let [ms, _, mo] = self.triples[i];
            let nb = out.push(b);
            if !(bind(nb, self.s.slot, ms) && bind(nb, self.o.slot, mo)) {
                out.pop();
            }
        }
    }
}

/// Binds `val` into `slot` (when the position is a variable), reporting
/// false on a conflict with an existing binding — the shared-variable
/// case (`?x p ?x`) and probe-side rebinding both funnel through here.
fn bind(b: &mut Row, slot: Option<usize>, val: TermId) -> bool {
    let Some(slot) = slot else { return true };
    match b[slot] {
        None => {
            b[slot] = Some(val);
            true
        }
        Some(existing) => existing == val,
    }
}

/// Solution charging is batched: a guard call per input binding costs
/// ~2% on small queries, so produced rows accumulate locally and are
/// charged every `CHARGE_BATCH` rows (bounding overshoot to one batch
/// plus one binding's matches per charging thread).
const CHARGE_BATCH: usize = 256;

/// One aggregate's running state over one group: a COUNT without
/// DISTINCT (or of `*`) is a counter; any other keeps the values it saw.
enum Acc {
    Count(i64),
    Values(Vec<Value>),
}

impl Acc {
    fn new(agg: &AggregateExpr) -> Acc {
        match (&agg.expr, agg.kind, agg.distinct) {
            (None, ..) | (_, AggregateKind::Count, false) => Acc::Count(0),
            _ => Acc::Values(Vec::new()),
        }
    }

    /// Folds in one row: `None` for `*`, else its value (`None`: an error
    /// or unbound, which no aggregate counts).
    fn add(&mut self, value: Option<Option<Value>>) {
        match (self, value) {
            (Acc::Count(n), None | Some(Some(_))) => *n += 1,
            (Acc::Values(values), Some(Some(v))) => values.push(v),
            _ => {}
        }
    }
}

/// Appends the aggregates `e` computes to `out`.
fn aggregates<'q>(e: &'q Expr, out: &mut Vec<&'q AggregateExpr>) {
    match e {
        Expr::Aggregate(agg) => out.push(agg),
        e => operands(e, &mut |x| aggregates(x, out)),
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
