//! Cost-based query planning.
//!
//! [`plan_query`] compiles a parsed [`Query`] into an explicit [`Plan`]
//! before any row flows: per BGP it picks a join order by selectivity
//! estimates read from the statistics the view's stores counted
//! ([`feo_rdf::GraphStats`] via [`GraphView::predicate_stats`] /
//! [`GraphView::class_instance_count`]), records which index the store
//! scans for each pattern ([`feo_rdf::access_path`]), and marks steps
//! whose build side is large enough that a hash join beats per-row
//! B-tree range scans; per group it places each FILTER after the last
//! element that mentions its variables. Every EXISTS body is planned the
//! same way, from the one row that binds the enclosing group's variables,
//! and each correlated group (an EXISTS body, an OPTIONAL side) records
//! the slots that key its once-per-key evaluation. The evaluator executes
//! the plan verbatim instead of re-deriving an order on every call, so a
//! query planned once ([`plan_seeded`], with the variables a seed row
//! will bind counted as bound) can run any number of times.
//!
//! Estimates are deliberately simple — uniform-distribution formulas
//! over per-predicate triple / distinct-subject / distinct-object
//! counts, exact counts for `?x rdf:type <C>` — because join-order
//! quality needs only the relative magnitudes to be right. Ties keep
//! author order, so a plan is always deterministic for a given query
//! and snapshot.

use std::collections::HashSet;
use std::fmt::{Display, Write as _};

use feo_rdf::governor::Guard;
use feo_rdf::vocab::rdf;
use feo_rdf::{access_path, GraphView, Rotation};

use crate::ast::{
    Expr, GroupElement, GroupPattern, LiteralPattern, Path, Query, TermPattern, TriplePattern,
};
use crate::error::{Result, SparqlError};
use crate::eval::{
    modifier_items, operands, site, walk_element, walk_group, Seen, VarTable, KEY_SLOTS,
};

/// Physical join algorithm for one BGP step.
///
/// The planner picks per step from statistics; the choice never affects
/// results — both algorithms produce byte-identical row-ordered tables —
/// only constant factors. [`QueryOptions::force_join`] overrides the
/// choice at execution time (the differential test hook); join *order*
/// is decided independently, so forcing swaps operators on an identical
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Per-input-row index range scans (the small-input baseline).
    Nested,
    /// Build a hash table over the pattern's scan once, probe per row.
    Hash,
}

impl JoinAlgo {
    /// Stable lowercase name used in plan renderings and counters.
    pub fn name(&self) -> &'static str {
        match self {
            JoinAlgo::Nested => "nested",
            JoinAlgo::Hash => "hash",
        }
    }
}

/// The one options struct accepted by [`crate::query`] / [`crate::execute`]:
/// the guard, EXPLAIN mode and the join-operator override travel together.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions<'a> {
    /// Execution governor: input-size cap on the query text, solution
    /// budget on join-row production, deadline / cancellation polling in
    /// hot loops. `None` runs unguarded.
    pub guard: Option<&'a Guard>,
    /// When set, return the rendered plan as [`crate::QueryResult::Plan`]
    /// instead of executing — SQL `EXPLAIN` semantics.
    pub explain: bool,
    /// When set, execute every join step with this algorithm instead of
    /// the planner's choice, whatever the input width. Join order is
    /// unchanged, and both algorithms return byte-identical tables, so
    /// this is a differential-testing hook, not a semantics knob.
    pub force_join: Option<JoinAlgo>,
}

impl<'a> QueryOptions<'a> {
    /// Options running under `guard`.
    pub fn guarded(guard: &'a Guard) -> Self {
        QueryOptions {
            guard: Some(guard),
            ..QueryOptions::default()
        }
    }
}

/// Which index the store scans for a step ([`feo_rdf::access_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// Subject-bound prefix scan (subject, subject+predicate, or all three).
    Spo,
    /// Predicate-bound prefix scan with the subject free.
    Pos,
    /// Object-bound prefix scan with the predicate free.
    Osp,
    /// Full scan: nothing usefully bound.
    Full,
    /// Complex property path — closure evaluation, not an index scan.
    Path,
}

impl IndexChoice {
    /// The store's access path for a pattern with these positions bound
    /// ([`feo_rdf::access_path`]): the rotation scanned, or a full scan
    /// when no position is bound.
    fn of(s: bool, p: bool, o: bool) -> IndexChoice {
        if !(s || p || o) {
            return IndexChoice::Full;
        }
        match access_path(s, p, o) {
            Rotation::Spo => IndexChoice::Spo,
            Rotation::Pos => IndexChoice::Pos,
            Rotation::Osp => IndexChoice::Osp,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            IndexChoice::Spo => "spo",
            IndexChoice::Pos => "pos",
            IndexChoice::Osp => "osp",
            IndexChoice::Full => "full",
            IndexChoice::Path => "path",
        }
    }
}

/// A compiled query plan: the WHERE group's plan tree, and a plan for
/// every EXISTS body.
///
/// The evaluator walks plan and AST in lockstep. A plan whose shape does
/// not fit the query — another group tree, a BGP whose steps do not cover
/// its patterns once, a missing EXISTS plan — is a [`SparqlError`], and
/// so is [`Plan::default`] for any query with a pattern. Filter placement
/// and keys are trusted, so a plan is only for the query it came from.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    pub root: GroupPlan,
    /// One plan per EXISTS body, wherever its expression sits, in the
    /// order a walk of the query meets them: the WHERE group (a body
    /// before the bodies nested in it), then SELECT, GROUP BY, HAVING and
    /// ORDER BY.
    pub exists: Vec<GroupPlan>,
}

impl Plan {
    /// The plan of EXISTS `body`, given the query's EXISTS `sites` (the
    /// one table from site to plan that an execution keeps).
    pub(crate) fn body(&self, sites: &[usize], body: &GroupPattern) -> Result<&GroupPlan> {
        match sites.iter().position(|&s| s == site(body)) {
            Some(k) if sites.len() == self.exists.len() => Ok(&self.exists[k]),
            _ => Err(misfit()),
        }
    }
}

/// Plan node for one group pattern: one entry per group element.
#[derive(Debug, Clone, Default)]
pub struct GroupPlan {
    pub elements: Vec<ElementPlan>,
    /// `(point, filter)` pairs ordered by point: FILTER element `filter`
    /// runs once `point` elements have (0: on the group's input). One not
    /// listed runs at group end; clearing is safe.
    pub filters: Vec<(usize, usize)>,
    /// For a correlated group (an EXISTS body, an OPTIONAL side): the
    /// slots its result depends on, all it mentions. It runs once per
    /// distinct key of their values. `None` for any other group, and for
    /// one that runs per row: its slots do not fit a key, or it calls
    /// `BNODE()`, whose fresh node rows with one key must not share.
    pub keys: Option<Vec<usize>>,
}

/// Plan node for one group element.
#[derive(Debug, Clone)]
pub enum ElementPlan {
    /// A basic graph pattern with its join order.
    Bgp(BgpPlan),
    /// Nested `{ ... }` group.
    Group(GroupPlan),
    Optional(GroupPlan),
    Minus(GroupPlan),
    Union(Vec<GroupPlan>),
    /// FILTER / BIND / VALUES: an EXISTS body they hold is planned in
    /// [`Plan::exists`].
    Leaf,
}

/// Execution order for one BGP.
#[derive(Debug, Clone, Default)]
pub struct BgpPlan {
    /// Steps in execution order; `pattern` indexes the author-order
    /// triple-pattern list.
    pub steps: Vec<PlanStep>,
}

impl BgpPlan {
    /// Whether the steps run each of `n` patterns exactly once.
    pub(crate) fn fits(&self, n: usize) -> bool {
        let steps = &self.steps;
        steps.len() == n
            && (steps.iter().enumerate())
                .all(|(i, s)| s.pattern < n && steps[..i].iter().all(|t| t.pattern != s.pattern))
    }
}

/// One join step of a BGP.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Index of the triple pattern in author order.
    pub pattern: usize,
    /// Estimated matching triples for this pattern at this point in the
    /// join (per input row).
    pub est_rows: f64,
    /// Access path the evaluator's dispatch will take.
    pub index: IndexChoice,
    /// Physical join algorithm the evaluator executes this step with.
    pub algo: JoinAlgo,
}

/// The one hash-join gate. The planner marks a step `Hash` only when
/// its estimated build scan has at least this many triples, and the
/// evaluator runs a `Hash` step as a hash join only when at least this
/// many rows arrive; below either, per-row range scans are cheaper than
/// building the table (DESIGN.md "Join execution" has the measurements).
pub(crate) const HASH_JOIN_MIN: usize = 64;

/// The error for a plan made for another query.
pub(crate) fn misfit() -> SparqlError {
    SparqlError::eval("the plan does not fit the query")
}

/// Appends the EXISTS bodies of `e` that no other body encloses, with
/// whether each is negated.
fn exists_in<'q>(e: &'q Expr, out: &mut Vec<(&'q GroupPattern, bool)>) {
    match e {
        Expr::Exists(body, negated) => out.push((body, *negated)),
        e => operands(e, &mut |x| exists_in(x, out)),
    }
}

/// Compiles `q` into a [`Plan`] using `view`'s statistics.
pub fn plan_query<G: GraphView>(view: &G, q: &Query) -> Plan {
    plan_seeded(view, q, &[])
}

/// [`plan_query`] for a query that runs from a seed row
/// ([`crate::execute_seeded`]): the variables named in `seeded` count as
/// bound from the start, as they would after a leading `BIND`.
pub fn plan_seeded<G: GraphView>(view: &G, q: &Query, seeded: &[&str]) -> Plan {
    let (vars, sites) = VarTable::of(q);
    let mut bound: HashSet<usize> = seeded.iter().filter_map(|v| vars.get(v)).collect();
    let mut planner = Planner {
        view,
        exists: vec![GroupPlan::default(); sites.len()],
        vars,
        sites,
    };
    let root = planner.group(&q.where_pattern, &mut bound, true);
    // The modifiers run on the WHERE group's rows.
    for (_, e, _) in modifier_items(q) {
        e.into_iter().for_each(|e| planner.bodies(e, &bound));
    }
    Plan {
        root,
        exists: planner.exists,
    }
}

struct Planner<'v, G> {
    view: &'v G,
    vars: VarTable,
    /// The query's EXISTS sites, in [`Plan::exists`] order.
    sites: Vec<usize>,
    exists: Vec<GroupPlan>,
}

impl<G: GraphView> Planner<'_, G> {
    /// `one_row`: the group starts from a single row (the WHERE group
    /// does: the seed row; so does an EXISTS body). It stays one row
    /// through BINDs and FILTERs, so its first BGP's first step multiplies
    /// nothing (see [`Planner::bgp`]).
    fn group(
        &mut self,
        group: &GroupPattern,
        bound: &mut HashSet<usize>,
        mut one_row: bool,
    ) -> GroupPlan {
        let mut elements = Vec::with_capacity(group.elements.len());
        for el in &group.elements {
            let planned = match el {
                GroupElement::Triples(ts) => ElementPlan::Bgp(self.bgp(ts, bound, one_row)),
                GroupElement::Group(inner) => {
                    // Bindings escape a nested group: plan with, and keep,
                    // the shared bound set.
                    ElementPlan::Group(self.group(inner, bound, false))
                }
                GroupElement::Optional(inner) => {
                    // OPTIONAL may leave its variables unbound, so they do
                    // not count as bound for later estimates.
                    ElementPlan::Optional(self.correlated(inner, &mut bound.clone(), false))
                }
                GroupElement::Minus(inner) => {
                    // MINUS evaluates against a fresh empty binding.
                    ElementPlan::Minus(self.group(inner, &mut HashSet::new(), false))
                }
                GroupElement::Union(arms) => {
                    // A variable is bound after the union only when every
                    // arm binds it.
                    let mut arm_plans = Vec::with_capacity(arms.len());
                    let mut common: Option<HashSet<usize>> = None;
                    for arm in arms {
                        let mut arm_bound = bound.clone();
                        arm_plans.push(self.group(arm, &mut arm_bound, false));
                        common = Some(match common {
                            None => arm_bound,
                            Some(c) => c.intersection(&arm_bound).copied().collect(),
                        });
                    }
                    if let Some(c) = common {
                        bound.extend(c);
                    }
                    ElementPlan::Union(arm_plans)
                }
                GroupElement::Bind(e, v) => {
                    self.bodies(e, bound);
                    bound.extend(self.vars.get(v));
                    ElementPlan::Leaf
                }
                GroupElement::Values(vb) => {
                    bound.extend(vb.vars.iter().filter_map(|v| self.vars.get(v)));
                    ElementPlan::Leaf
                }
                GroupElement::Filter(_) => ElementPlan::Leaf,
            };
            elements.push(planned);
            one_row &= matches!(el, GroupElement::Bind(..) | GroupElement::Filter(_));
        }
        // A filter runs once the group has bound all of its variables it
        // binds, so its EXISTS bodies see the group's final bound set.
        for el in &group.elements {
            if let GroupElement::Filter(e) = el {
                self.bodies(e, bound);
            }
        }
        GroupPlan {
            elements,
            filters: place_filters(group, &self.vars),
            keys: None,
        }
    }

    /// Plans each EXISTS body in `e` from one row that binds `bound`.
    fn bodies(&mut self, e: &Expr, bound: &HashSet<usize>) {
        let mut found = Vec::new();
        exists_in(e, &mut found);
        for (body, _) in found {
            let plan = self.correlated(body, &mut bound.clone(), true);
            if let Some(k) = self.sites.iter().position(|&s| s == site(body)) {
                self.exists[k] = plan;
            }
        }
    }

    /// Plans a correlated group and fixes its key (see
    /// [`GroupPlan::keys`]).
    fn correlated(
        &mut self,
        group: &GroupPattern,
        bound: &mut HashSet<usize>,
        one_row: bool,
    ) -> GroupPlan {
        let mut plan = self.group(group, bound, one_row);
        let m = Mentions::of(&self.vars, |f| walk_group(group, f));
        plan.keys = (!m.mints && m.slots.len() <= KEY_SLOTS).then_some(m.slots);
        plan
    }

    fn bgp(
        &self,
        patterns: &[TriplePattern],
        bound: &mut HashSet<usize>,
        one_row: bool,
    ) -> BgpPlan {
        let (view, vars) = (self.view, &self.vars);
        let mut remaining: Vec<usize> = (0..patterns.len()).collect();
        let mut steps = Vec::with_capacity(patterns.len());
        while !remaining.is_empty() {
            // No cross product while a pattern joins on a bound variable
            // (or has none): a pattern that shares nothing pairs every row
            // with all it matches, and a plan made on the base keeps that
            // order at every later epoch. `?x rdf:type <C>` scans are
            // counted exactly and still compete (DESIGN.md "Query
            // planning"), as does every pattern for a first step from one
            // row, which nothing can multiply. Minimum estimate wins; a
            // strictly smaller test keeps the first minimum, so ties keep
            // author order.
            let joins = |pi: &usize| {
                let slots = pattern_var_slots(&patterns[*pi], vars);
                slots.is_empty() || slots.iter().any(|s| bound.contains(s))
            };
            let joining = !(one_row && steps.is_empty()) && remaining.iter().any(joins);
            let mut best = 0;
            let mut best_est = f64::INFINITY;
            let mut best_index = IndexChoice::Full;
            for (i, &pi) in remaining.iter().enumerate() {
                if joining && !joins(&pi) && class_scan(&patterns[pi]).is_none() {
                    continue;
                }
                let (est, index) = estimate(view, &patterns[pi], vars, bound);
                if est < best_est {
                    best = i;
                    best_est = est;
                    best_index = index;
                }
            }
            let pi = remaining.remove(best);
            let tp = &patterns[pi];
            let algo = if hash_join_worthwhile(view, tp, vars, bound) {
                JoinAlgo::Hash
            } else {
                JoinAlgo::Nested
            };
            bound.extend(pattern_var_slots(tp, vars));
            steps.push(PlanStep {
                pattern: pi,
                est_rows: best_est,
                index: best_index,
                algo,
            });
        }
        BgpPlan { steps }
    }
}

/// The slots a walk mentions (ascending) and whether it binds or mints.
#[derive(Default)]
struct Mentions {
    slots: Vec<usize>,
    binds: bool,
    mints: bool,
}

impl Mentions {
    fn of(vars: &VarTable, walk: impl FnOnce(&mut dyn FnMut(Seen<'_>))) -> Mentions {
        let mut m = Mentions::default();
        walk(&mut |seen| match seen {
            Seen::Var(v) => m.slots.extend(vars.get(v)),
            Seen::Bind => m.binds = true,
            Seen::BNode => m.mints = true,
            Seen::Exists(_) => {}
        });
        m.slots.sort_unstable();
        m.slots.dedup();
        m
    }
}

/// Places each FILTER after the last element that mentions one of its
/// variables (EXISTS groups included), or on the group's input: later
/// elements leave those values as they are, so it drops there the rows
/// it would drop at group end, in the same order. Filters at one point
/// keep author order; none moves before a `BIND` (whose "would rebind"
/// error it could suppress), and a group calling `BNODE()` keeps them at
/// group end (placement would change which labels it mints).
fn place_filters(group: &GroupPattern, vars: &VarTable) -> Vec<(usize, usize)> {
    let seen: Vec<Mentions> = group
        .elements
        .iter()
        .map(|el| Mentions::of(vars, |f| walk_element(el, f)))
        .collect();
    if seen.iter().any(|m| m.mints) {
        return Vec::new();
    }
    let is_filter = |i: usize| matches!(group.elements[i], GroupElement::Filter(_));
    let mut placed: Vec<(usize, usize)> = (0..seen.len())
        .filter(|&i| is_filter(i))
        .map(|i| {
            let last = (0..seen.len()).rev().find(|&j| {
                !is_filter(j)
                    && (seen[j].binds || seen[j].slots.iter().any(|s| seen[i].slots.contains(s)))
            });
            (last.map_or(0, |j| j + 1), i)
        })
        .collect();
    placed.sort_by_key(|&(point, _)| point);
    placed
}

/// Variable/blank slots this pattern can bind.
fn pattern_var_slots(tp: &TriplePattern, vars: &VarTable) -> Vec<usize> {
    let mut out = Vec::new();
    for t in [&tp.subject, &tp.object] {
        match t {
            TermPattern::Var(v) => out.extend(vars.get(v)),
            TermPattern::Blank(l) => out.extend(vars.get(&format!("_:{l}"))),
            _ => {}
        }
    }
    if let Path::Var(v) = &tp.path {
        out.extend(vars.get(v));
    }
    out
}

/// Ground terms count as bound; variables and blank labels only when
/// their slot is in the bound set.
fn term_bound(tp: &TermPattern, vars: &VarTable, bound: &HashSet<usize>) -> bool {
    match tp {
        TermPattern::Var(v) => vars.get(v).is_some_and(|s| bound.contains(&s)),
        TermPattern::Blank(l) => vars
            .get(&format!("_:{l}"))
            .is_some_and(|s| bound.contains(&s)),
        _ => true,
    }
}

/// Estimated matching triples for `tp` given what is bound, and the
/// access path the store takes for that boundness.
fn estimate<G: GraphView>(
    view: &G,
    tp: &TriplePattern,
    vars: &VarTable,
    bound: &HashSet<usize>,
) -> (f64, IndexChoice) {
    let s_bound = term_bound(&tp.subject, vars, bound);
    let o_bound = term_bound(&tp.object, vars, bound);
    let total = view.len() as f64;
    let (est, p_bound) = match &tp.path {
        Path::Iri(p) => {
            let est = match (view.lookup_iri(p), class_scan(tp)) {
                // Unknown predicate: matches nothing, run it first.
                (None, _) => 0.0,
                (Some(_), Some(class)) if !s_bound => {
                    view.lookup_iri(class)
                        .map_or(0, |c| view.class_instance_count(c)) as f64
                }
                (Some(pid), _) => {
                    let ps = view.predicate_stats(pid);
                    let triples = ps.triples as f64;
                    let ds = ps.distinct_subjects.max(1) as f64;
                    let dout = ps.distinct_objects.max(1) as f64;
                    match (s_bound, o_bound) {
                        (true, true) => (triples / (ds * dout)).min(1.0),
                        (true, false) => triples / ds,
                        (false, true) => triples / dout,
                        (false, false) => triples,
                    }
                }
            };
            (est, true)
        }
        Path::Var(v) => {
            // Unknown predicate distribution: decay the total per bound
            // position rather than pretending to exact counts.
            let p_bound = vars.get(v).is_some_and(|s| bound.contains(&s));
            let mut est = total;
            for b in [s_bound, p_bound, o_bound] {
                if b {
                    est = est.sqrt();
                }
            }
            (est.max(1.0), p_bound)
        }
        _ => {
            // Complex paths run closure loops; without endpoint anchors
            // they can touch every node, so order them last.
            let est = if s_bound || o_bound {
                total
            } else {
                total * 4.0
            };
            return (est + 1.0, IndexChoice::Path);
        }
    };
    (est, IndexChoice::of(s_bound, p_bound, o_bound))
}

/// The class of a `?x rdf:type <C>` pattern: the one scan the statistics
/// count exactly (`GraphView::class_instance_count`).
fn class_scan(tp: &TriplePattern) -> Option<&str> {
    match (&tp.path, &tp.object) {
        (Path::Iri(p), TermPattern::Iri(class)) if p == rdf::TYPE => Some(class),
        _ => None,
    }
}

/// A hash join pays off when the pattern joins on at least one
/// already-bound variable endpoint and the build-side scan (predicate
/// plus ground endpoint constants) is big enough to amortize the table.
fn hash_join_worthwhile<G: GraphView>(
    view: &G,
    tp: &TriplePattern,
    vars: &VarTable,
    bound: &HashSet<usize>,
) -> bool {
    let Path::Iri(p) = &tp.path else {
        return false;
    };
    let is_var = |t: &TermPattern| matches!(t, TermPattern::Var(_) | TermPattern::Blank(_));
    let s_join = is_var(&tp.subject) && term_bound(&tp.subject, vars, bound);
    let o_join = is_var(&tp.object) && term_bound(&tp.object, vars, bound);
    if !s_join && !o_join {
        return false;
    }
    let Some(pid) = view.lookup_iri(p) else {
        return false;
    };
    let ps = view.predicate_stats(pid);
    let triples = ps.triples as f64;
    // Ground (non-variable) endpoints shrink the build scan.
    let scan = match (is_var(&tp.subject), is_var(&tp.object)) {
        (true, true) => triples,
        (false, true) => triples / ps.distinct_subjects.max(1) as f64,
        (true, false) => triples / ps.distinct_objects.max(1) as f64,
        (false, false) => 1.0,
    };
    scan >= HASH_JOIN_MIN as f64
}

// ---- rendering -----------------------------------------------------------

impl Plan {
    /// Human-readable plan: the group tree with each BGP's join order,
    /// index choice, estimate, and hash-join placement, and under each
    /// expression the plan of every EXISTS body it holds. `q` must be the
    /// query this plan was compiled from: a plan that does not fit it is
    /// an error.
    pub fn render(&self, q: &Query) -> Result<String> {
        let mut r = Render {
            out: String::from("plan\n"),
            plan: self,
            sites: VarTable::of(q).1,
        };
        r.group(&q.where_pattern, &self.root, 0)?;
        for (clause, e, _) in modifier_items(q) {
            let mut found = Vec::new();
            e.into_iter().for_each(|e| exists_in(e, &mut found));
            if !found.is_empty() {
                r.line(0, clause);
                r.bodies(found, 1)?;
            }
        }
        Ok(r.out)
    }
}

struct Render<'p> {
    out: String,
    plan: &'p Plan,
    sites: Vec<usize>,
}

impl Render<'_> {
    fn line(&mut self, depth: usize, text: impl Display) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
        let _ = writeln!(self.out, "{text}");
    }

    /// Renders a group's elements in author order, except that each
    /// placed filter appears at the point where it runs.
    fn group(&mut self, group: &GroupPattern, plan: &GroupPlan, depth: usize) -> Result<()> {
        if plan.elements.len() != group.elements.len() {
            return Err(misfit());
        }
        for i in 0..=group.elements.len() {
            for &(_, f) in plan.filters.iter().filter(|&&(at, _)| at == i) {
                if let Some(GroupElement::Filter(e)) = group.elements.get(f) {
                    self.expr("filter", e, depth)?;
                }
            }
            let (Some(el), Some(sub)) = (group.elements.get(i), plan.elements.get(i)) else {
                break;
            };
            match (el, sub) {
                (GroupElement::Filter(_), ElementPlan::Leaf)
                    if plan.filters.iter().any(|&(_, f)| f == i) => {}
                (GroupElement::Filter(e), ElementPlan::Leaf) => self.expr("filter", e, depth)?,
                (GroupElement::Bind(e, v), ElementPlan::Leaf) => {
                    self.expr(&format!("bind ?{v}"), e, depth)?
                }
                (GroupElement::Values(vb), ElementPlan::Leaf) => {
                    self.line(depth, format_args!("values ({} rows)", vb.rows.len()))
                }
                (GroupElement::Triples(ts), ElementPlan::Bgp(bp)) if bp.fits(ts.len()) => {
                    self.line(depth, "bgp");
                    for (order, step) in bp.steps.iter().enumerate() {
                        let join = match step.algo {
                            JoinAlgo::Nested => "",
                            JoinAlgo::Hash => " join=hash",
                        };
                        let (index, est) = (step.index.name(), step.est_rows);
                        let pattern = fmt_pattern(&ts[step.pattern]);
                        let text =
                            format!("{}. {pattern}  [idx={index} est={est:.1}{join}]", order + 1);
                        self.line(depth + 1, text);
                    }
                }
                (GroupElement::Group(g), ElementPlan::Group(gp))
                | (GroupElement::Optional(g), ElementPlan::Optional(gp))
                | (GroupElement::Minus(g), ElementPlan::Minus(gp)) => {
                    let name = match el {
                        GroupElement::Optional(_) => "optional",
                        GroupElement::Minus(_) => "minus",
                        _ => "group",
                    };
                    self.line(depth, name);
                    self.group(g, gp, depth + 1)?;
                }
                (GroupElement::Union(arms), ElementPlan::Union(arm_plans))
                    if arms.len() == arm_plans.len() =>
                {
                    self.line(depth, "union");
                    for (arm, arm_plan) in arms.iter().zip(arm_plans) {
                        self.line(depth + 1, "arm");
                        self.group(arm, arm_plan, depth + 2)?;
                    }
                }
                _ => return Err(misfit()),
            }
        }
        Ok(())
    }

    /// Renders the line `head`, then the plan of each EXISTS body in `e`.
    fn expr(&mut self, head: &str, e: &Expr, depth: usize) -> Result<()> {
        self.line(depth, head);
        let mut found = Vec::new();
        exists_in(e, &mut found);
        self.bodies(found, depth + 1)
    }

    fn bodies(&mut self, found: Vec<(&GroupPattern, bool)>, depth: usize) -> Result<()> {
        for (body, negated) in found {
            self.line(depth, if negated { "not exists" } else { "exists" });
            let plan = self.plan.body(&self.sites, body)?;
            self.group(body, plan, depth + 1)?;
        }
        Ok(())
    }
}

fn fmt_pattern(tp: &TriplePattern) -> String {
    format!(
        "{} {} {}",
        fmt_term(&tp.subject),
        fmt_path(&tp.path),
        fmt_term(&tp.object)
    )
}

fn fmt_term(tp: &TermPattern) -> String {
    match tp {
        TermPattern::Var(v) => format!("?{v}"),
        TermPattern::Blank(l) => format!("_:{l}"),
        TermPattern::Iri(i) => format!("<{i}>"),
        TermPattern::Literal(l) => fmt_literal(l),
    }
}

fn fmt_literal(l: &LiteralPattern) -> String {
    match (&l.language, &l.datatype) {
        (Some(lang), _) => format!("{:?}@{lang}", l.lexical),
        (None, Some(dt)) => format!("{:?}^^<{dt}>", l.lexical),
        (None, None) => format!("{:?}", l.lexical),
    }
}

fn fmt_path(p: &Path) -> String {
    match p {
        Path::Iri(i) => format!("<{i}>"),
        Path::Var(v) => format!("?{v}"),
        Path::Inverse(inner) => format!("^({})", fmt_path(inner)),
        Path::Sequence(a, b) => format!("({}/{})", fmt_path(a), fmt_path(b)),
        Path::Alternative(a, b) => format!("({}|{})", fmt_path(a), fmt_path(b)),
        Path::ZeroOrMore(inner) => format!("({})*", fmt_path(inner)),
        Path::OneOrMore(inner) => format!("({})+", fmt_path(inner)),
        Path::ZeroOrOne(inner) => format!("({})?", fmt_path(inner)),
        Path::Negated(members) => {
            let parts: Vec<String> = members
                .iter()
                .map(|(iri, inv)| {
                    if *inv {
                        format!("^<{iri}>")
                    } else {
                        format!("<{iri}>")
                    }
                })
                .collect();
            format!("!({})", parts.join("|"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use feo_rdf::{Graph, GraphStore};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        // 1 selective predicate, 1 broad predicate, rdf:type triples.
        for i in 0..20 {
            g.insert_iris(
                &format!("http://e/r{i}"),
                "http://e/broad",
                &format!("http://e/v{}", i % 10),
            );
        }
        g.insert_iris("http://e/r0", "http://e/narrow", "http://e/only");
        for i in 0..5 {
            g.insert_iris(&format!("http://e/r{i}"), rdf::TYPE, "http://e/SmallClass");
        }
        g
    }

    fn plan_for(g: &Graph, text: &str) -> (Query, Plan) {
        let q = parse_query(text).expect("test query parses");
        let plan = plan_query(&g, &q);
        (q, plan)
    }

    #[test]
    fn selective_pattern_ordered_first() {
        let g = sample_graph();
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v . ?r <http://e/narrow> ?o }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        // narrow (1 triple) runs before broad (20 triples).
        assert_eq!(bp.steps[0].pattern, 1);
        assert_eq!(bp.steps[1].pattern, 0);
        // After ?r binds, broad is estimated per-subject, not total.
        assert!(bp.steps[1].est_rows < 20.0);
    }

    #[test]
    fn rdf_type_uses_exact_class_count() {
        let g = sample_graph();
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v . \
             ?r a <http://e/SmallClass> }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        assert_eq!(bp.steps[0].pattern, 1, "class pattern first");
        assert_eq!(bp.steps[0].est_rows, 5.0, "exact instance count");
        assert_eq!(bp.steps[0].index, IndexChoice::Pos);
    }

    #[test]
    fn variable_predicate_steps_name_the_index_the_store_scans() {
        let g = sample_graph();
        let index_of = |text: &str| {
            let (_, plan) = plan_for(&g, text);
            let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
                panic!("expected BGP plan");
            };
            bp.steps.iter().map(|st| st.index).collect::<Vec<_>>()
        };
        // `<s> ?p <o>` with ?p free: the store scans OSP.
        assert_eq!(
            index_of("SELECT * WHERE { <http://e/r0> ?p <http://e/only> }"),
            [IndexChoice::Osp]
        );
        // `?s ?p ?o` and `?s ?p <o>` once ?p is bound: the store scans POS.
        assert_eq!(
            index_of("SELECT * WHERE { <http://e/r0> ?p ?x . ?s ?p ?o }"),
            [IndexChoice::Spo, IndexChoice::Pos]
        );
        assert_eq!(
            index_of("SELECT * WHERE { <http://e/r0> ?p ?x . ?s ?p <http://e/v0> }"),
            [IndexChoice::Spo, IndexChoice::Pos]
        );
    }

    #[test]
    fn ties_keep_author_order() {
        let g = sample_graph();
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?a <http://e/broad> ?b . ?c <http://e/broad> ?d }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        assert_eq!(bp.steps[0].pattern, 0);
        assert_eq!(bp.steps[1].pattern, 1);
    }

    #[test]
    fn cross_product_waits_for_joining_patterns() {
        // CQ1's shape: a question's parameter has ten characteristics, two
        // things are in the ecosystem, one is a Fact.
        let mut g = Graph::new();
        g.insert_iris("http://e/q", "http://e/param", "http://e/r");
        for i in 0..10 {
            g.insert_iris("http://e/r", "http://e/char", &format!("http://e/c{i}"));
        }
        for i in 0..2 {
            g.insert_iris(&format!("http://e/c{i}"), "http://e/in", "http://e/eco");
        }
        g.insert_iris("http://e/c0", rdf::TYPE, "http://e/Fact");
        let order = |tail: &str| {
            let (_, plan) = plan_for(
                &g,
                &format!(
                    "SELECT * WHERE {{ BIND (<http://e/q> AS ?q) . \
                     ?q <http://e/param> ?r . {tail} . ?r <http://e/char> ?c }}"
                ),
            );
            let ElementPlan::Bgp(bp) = &plan.root.elements[1] else {
                panic!("expected BGP plan: {plan:?}");
            };
            bp.steps.iter().map(|s| s.pattern).collect::<Vec<_>>()
        };
        // The ecosystem scan estimates 2 rows against the join's 10, but
        // pairs every row with all of it: it waits until ?c is bound.
        assert_eq!(order("?c <http://e/in> <http://e/eco>"), vec![0, 2, 1]);
        // A class scan's size is counted exactly, so it still goes first.
        assert_eq!(order("?c a <http://e/Fact>"), vec![0, 1, 2]);
    }

    #[test]
    fn seeded_variable_plans_like_the_constant_it_stands_for() {
        // CQ3's shape: the hypothesis has ten triples, two properties sit
        // under the one the query asks about.
        let mut g = Graph::new();
        for i in 0..10 {
            g.insert_iris("http://e/h", &format!("http://e/p{i}"), "http://e/o");
        }
        for i in 0..2 {
            g.insert_iris(&format!("http://e/p{i}"), "http://e/sub", "http://e/top");
        }
        let order = |plan: &Plan| {
            let ElementPlan::Bgp(bp) = plan.root.elements.last().expect("a BGP") else {
                panic!("expected BGP plan: {plan:?}");
            };
            bp.steps.iter().map(|s| s.pattern).collect::<Vec<_>>()
        };
        let tail = "?p <http://e/sub> <http://e/top> }";
        let (_, constant) = plan_for(
            &g,
            &format!("SELECT * WHERE {{ <http://e/h> ?p ?o . {tail}"),
        );
        let (_, bound) = plan_for(
            &g,
            &format!("SELECT * WHERE {{ BIND (<http://e/h> AS ?h) . ?h ?p ?o . {tail}"),
        );
        let q = parse_query(&format!("SELECT * WHERE {{ ?h ?p ?o . {tail}")).expect("parses");
        let seeded = plan_seeded(&g, &q, &["h"]);
        // The two-row scan goes first: from one row it multiplies nothing.
        assert_eq!(order(&constant), vec![1, 0]);
        assert_eq!(order(&seeded), order(&constant));
        assert_eq!(order(&bound), order(&constant));
    }

    #[test]
    fn unknown_predicate_runs_first() {
        let g = sample_graph();
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v . ?r <http://e/absent> ?x }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        assert_eq!(bp.steps[0].pattern, 1);
        assert_eq!(bp.steps[0].est_rows, 0.0);
    }

    #[test]
    fn complex_path_ordered_last() {
        let g = sample_graph();
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?a <http://e/broad>+ ?b . ?c <http://e/narrow> ?d }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        assert_eq!(bp.steps[0].pattern, 1);
        assert_eq!(bp.steps[1].index, IndexChoice::Path);
    }

    #[test]
    fn hash_join_marked_on_large_bound_scan() {
        let mut g = Graph::new();
        for i in 0..200 {
            g.insert_iris(
                &format!("http://e/s{i}"),
                "http://e/link",
                &format!("http://e/t{}", i % 50),
            );
            g.insert_iris(&format!("http://e/s{i}"), "http://e/tag", "http://e/x");
        }
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?s <http://e/tag> <http://e/x> . ?s <http://e/link> ?t }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        // Second step joins ?s against a 200-triple scan: hash join.
        let second = &bp.steps[1];
        assert_eq!(second.pattern, 1);
        assert_eq!(
            second.algo,
            JoinAlgo::Hash,
            "large subject-join hashes: {plan:?}"
        );
        // First step has no bound variable yet: nested scan.
        assert_eq!(bp.steps[0].algo, JoinAlgo::Nested);
    }

    #[test]
    fn object_join_over_large_scan_hashes() {
        let mut g = Graph::new();
        for i in 0..200 {
            g.insert_iris(
                &format!("http://e/s{i}"),
                "http://e/link",
                &format!("http://e/t{}", i % 50),
            );
        }
        for i in 0..40 {
            g.insert_iris(&format!("http://e/t{i}"), "http://e/tag", "http://e/x");
        }
        // ?t binds first (tag scan), then link joins on its object
        // against a 200-triple scan: hash join.
        let (q, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?t <http://e/tag> <http://e/x> . ?s <http://e/link> ?t }",
        );
        let ElementPlan::Bgp(bp) = &plan.root.elements[0] else {
            panic!("expected BGP plan");
        };
        let second = &bp.steps[1];
        assert_eq!(second.pattern, 1);
        assert_eq!(second.algo, JoinAlgo::Hash, "{plan:?}");
        let text = plan.render(&q).expect("the plan fits its query");
        assert!(text.contains("join=hash"), "{text}");
    }

    #[test]
    fn render_lists_steps_in_execution_order() {
        let g = sample_graph();
        let (q, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v . ?r <http://e/narrow> ?o . \
             FILTER (?v != ?o) }",
        );
        let text = plan.render(&q).expect("the plan fits its query");
        assert!(text.starts_with("plan\n"), "{text}");
        let narrow = text.find("narrow").expect("narrow rendered");
        let broad = text.find("broad").expect("broad rendered");
        assert!(narrow < broad, "narrow first:\n{text}");
        assert!(text.contains("filter"), "{text}");
        assert!(text.contains("idx="), "{text}");
    }

    #[test]
    fn render_shows_filters_where_they_run() {
        let g = sample_graph();
        // CQ3's shape: BGP, OPTIONAL, then a NOT EXISTS on a BGP variable.
        let (q, plan) = plan_for(
            &g,
            "SELECT * WHERE { <http://e/r0> ?p ?v . ?v <http://e/broad> ?x \
             OPTIONAL { ?v <http://e/narrow> ?o } \
             FILTER NOT EXISTS { ?sub <http://e/broad> ?p } }",
        );
        assert_eq!(plan.root.filters, vec![(1, 2)], "after the BGP: {plan:?}");
        let text = plan.render(&q).expect("the plan fits its query");
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        let at = |s: &str| lines.iter().position(|l| *l == s).expect(s);
        assert!(at("bgp") < at("filter"), "{text}");
        assert!(at("filter") < at("optional"), "{text}");

        // Filters behind a BIND wait for it even when they mention
        // nothing it binds, and keep author order at one point; a filter
        // no element mentions runs on the group's input.
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v FILTER (?v != <http://e/v1>) \
             BIND (1 AS ?k) FILTER (?r != <http://e/r2>) FILTER (?zz = 3) }",
        );
        assert_eq!(plan.root.filters, vec![(3, 1), (3, 3), (3, 4)], "{plan:?}");
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v FILTER (?zz = 3) }",
        );
        assert_eq!(plan.root.filters, vec![(0, 1)], "{plan:?}");
    }

    #[test]
    fn render_lists_exists_body_steps_in_plan_order() {
        let g = sample_graph();
        let (q, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v \
             FILTER NOT EXISTS { ?a <http://e/broad> ?b . ?b <http://e/narrow> <http://e/only> } }",
        );
        let text = plan.render(&q).expect("the plan fits its query");
        let lines: Vec<&str> = text.lines().collect();
        let at = |prefix: &str| {
            (lines
                .iter()
                .position(|l| l.trim_start().starts_with(prefix)))
            .unwrap_or_else(|| panic!("no {prefix:?} in:\n{text}"))
        };
        let depth = |i: usize| lines[i].len() - lines[i].trim_start().len();
        let (not_exists, narrow, broad) = (
            at("not exists"),
            at("1. ?b <http://e/narrow>"),
            at("2. ?a <http://e/broad>"),
        );
        // The one-triple pattern runs first, and both steps sit under the
        // body.
        assert!(not_exists < narrow && narrow < broad, "{text}");
        assert!(depth(narrow) > depth(not_exists), "{text}");
        assert_eq!(plan.exists.len(), 1);
        assert_eq!(
            plan.exists[0].keys,
            Some(vec![2, 3]),
            "?a and ?b key the body"
        );
    }

    #[test]
    fn a_plan_that_does_not_fit_its_query_is_an_error() {
        use crate::eval::execute_prepared;
        use crate::results::QueryResult;
        let g = sample_graph();
        let bgp = "SELECT * WHERE { ?r <http://e/broad> ?v . ?r <http://e/narrow> ?o }";
        let optional =
            "SELECT * WHERE { ?r <http://e/broad> ?v OPTIONAL { ?r <http://e/narrow> ?o } }";
        let one = "SELECT * WHERE { ?r <http://e/broad> ?v }";
        let exists = "SELECT * WHERE { ?r <http://e/broad> ?v \
                      FILTER EXISTS { ?r <http://e/narrow> ?o } }";
        let exists_two = "SELECT * WHERE { ?r <http://e/broad> ?v \
                          FILTER EXISTS { ?r <http://e/narrow> ?o . ?o <http://e/broad> ?x } }";
        let opts = QueryOptions::default();
        let explain = QueryOptions {
            explain: true,
            ..QueryOptions::default()
        };
        let planned = |text: &str| plan_for(&g, text).1;
        for (run, plan) in [
            (bgp, planned(optional)),
            (optional, planned(bgp)),
            (bgp, planned(one)),
            (exists, planned(one)),
            (exists, planned(exists_two)),
            (exists_two, planned(exists)),
            (one, Plan::default()),
            (exists, Plan::default()),
        ] {
            let q = parse_query(run).expect("test query parses");
            for o in [&opts, &explain] {
                let result = execute_prepared(&g, &q, &plan, o);
                assert!(
                    matches!(result, Err(SparqlError::Eval(_))),
                    "{run} ran with another query's plan: {result:?}"
                );
            }
        }
        // Its own plan runs, and so does the default plan of an empty
        // pattern.
        let q = parse_query(exists).expect("test query parses");
        let table =
            execute_prepared(&g, &q, &planned(exists), &opts).map(QueryResult::expect_solutions);
        assert_eq!(table.map(|t| t.len()), Ok(1));
        let q = parse_query("ASK { }").expect("test query parses");
        let ask = execute_prepared(&g, &q, &Plan::default(), &opts);
        assert!(matches!(ask, Ok(QueryResult::Boolean(true))), "{ask:?}");
    }

    #[test]
    fn plan_mirrors_group_tree() {
        let g = sample_graph();
        let (_, plan) = plan_for(
            &g,
            "SELECT * WHERE { ?r <http://e/broad> ?v \
             OPTIONAL { ?r <http://e/narrow> ?o } \
             { ?x <http://e/broad> ?y } \
             MINUS { ?r a <http://e/SmallClass> } }",
        );
        assert_eq!(plan.root.elements.len(), 4);
        assert!(matches!(plan.root.elements[0], ElementPlan::Bgp(_)));
        assert!(matches!(plan.root.elements[1], ElementPlan::Optional(_)));
        assert!(matches!(plan.root.elements[2], ElementPlan::Group(_)));
        assert!(matches!(plan.root.elements[3], ElementPlan::Minus(_)));
    }
}
