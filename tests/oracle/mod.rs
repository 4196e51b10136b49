//! A naive SPARQL evaluator: the reference the engine's query answers
//! are checked against.
//!
//! It evaluates a parsed [`Query`] over a plain `Vec` of triples taken
//! from `iter_triples()`, bottom-up as the SPARQL 1.1 algebra defines
//! it: a group's elements join left to right, `OPTIONAL` left-joins with
//! its group's filters as the join condition, `UNION` concatenates,
//! `MINUS` drops the solutions compatible with a right-hand one on a
//! shared variable, `BIND` extends, `VALUES` joins its table, a group's
//! `FILTER`s apply to the whole group, and `EXISTS` substitutes the
//! current solution into its group. Every join is a nested loop, over the
//! triples or over two lists of solutions: no index, no statistics, no
//! order but the author's, no cache, and nothing from `feo_sparql` but
//! the parser's AST. Terms are numbered by a local dictionary so a
//! comparison is one integer compare; that is the only concession to
//! speed.
//!
//! The fragment: basic graph patterns (`a` included), the paths
//! `/ | ^ + *`, `FILTER` with `= != < > <= >=` on numbers and terms,
//! `&& || !`, `BOUND` and `[NOT] EXISTS`, `OPTIONAL`, `UNION`, `MINUS`,
//! `BIND`, `VALUES`, projection, `DISTINCT`, and `COUNT([DISTINCT])`
//! with `GROUP BY`. `ORDER BY` is ignored: the result is a multiset,
//! which an order without `LIMIT` cannot change. Anything else panics,
//! so a test cannot silently skip what the oracle does not know.
//!
//! One point follows the engine rather than the letter of SPARQL 1.1
//! (which gives `/` and `|` bag semantics): a path other than a plain
//! predicate relates each pair of nodes at most once.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use feo_rdf::vocab::{rdf, xsd};
use feo_rdf::{Iri, Literal, Term, Triple};
use feo_sparql::ast::{
    AggregateKind, Builtin, CompareOp, Expr, GroupCondition, GroupElement, GroupPattern,
    LiteralPattern, Path, Projection, ProjectionItem, Query, QueryForm, TermPattern, TriplePattern,
};

/// One solution: the terms of the variables it binds, by name.
pub type Solution = BTreeMap<String, Term>;

/// The solutions of the SELECT query `q` over `triples`, sorted: a
/// multiset that compares equal to [`multiset`] of the engine's table.
pub fn evaluate(triples: impl IntoIterator<Item = Triple>, q: &Query) -> Vec<Solution> {
    let mut oracle = Oracle::default();
    for t in triples {
        let s = oracle.id(&t.subject);
        let p = oracle.id(&t.predicate);
        let o = oracle.id(&t.object);
        oracle.triples.push([s, p, o]);
    }
    oracle.collect_group(&q.where_pattern);
    oracle.collect_query(q);
    oracle.select(q)
}

/// An engine table as a multiset of solutions: unbound cells dropped,
/// rows sorted.
pub fn multiset(vars: &[String], rows: &[Vec<Option<Term>>]) -> Vec<Solution> {
    let mut out: Vec<Solution> = rows
        .iter()
        .map(|row| {
            vars.iter()
                .zip(row)
                .filter_map(|(v, cell)| Some((v.clone(), cell.clone()?)))
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// A term, as its index in the oracle's own dictionary.
type Id = u32;
/// A solution under evaluation: one cell per variable of the query.
type Row = Vec<Option<Id>>;

#[derive(Default)]
struct Oracle {
    terms: Vec<Term>,
    ids: HashMap<Term, Id>,
    triples: Vec<[Id; 3]>,
    vars: Vec<String>,
}

/// A pattern position: a variable's cell or a constant.
#[derive(Clone, Copy)]
enum Pos {
    Var(usize),
    Const(Id),
}

fn outside(what: impl std::fmt::Debug) -> ! {
    panic!("outside the oracle's fragment: {what:?}")
}

impl Oracle {
    fn id(&mut self, t: &Term) -> Id {
        if let Some(&id) = self.ids.get(t) {
            return id;
        }
        let id = self.terms.len() as Id;
        self.terms.push(t.clone());
        self.ids.insert(t.clone(), id);
        id
    }

    fn boolean(&mut self, b: bool) -> Id {
        self.id(&Term::boolean(b))
    }

    // ---- variables ------------------------------------------------------

    fn add_var(&mut self, name: &str) {
        if !self.vars.iter().any(|v| v == name) {
            self.vars.push(name.to_string());
        }
    }

    fn var(&self, name: &str) -> usize {
        self.vars
            .iter()
            .position(|v| v == name)
            .unwrap_or_else(|| panic!("?{name} was not collected"))
    }

    fn collect_group(&mut self, g: &GroupPattern) {
        for el in &g.elements {
            match el {
                GroupElement::Triples(ts) => {
                    for t in ts {
                        for end in [&t.subject, &t.object] {
                            match end {
                                TermPattern::Var(v) => self.add_var(v),
                                TermPattern::Blank(l) => self.add_var(&format!("_:{l}")),
                                _ => {}
                            }
                        }
                        if let Path::Var(v) = &t.path {
                            self.add_var(v);
                        }
                    }
                }
                GroupElement::Optional(inner)
                | GroupElement::Minus(inner)
                | GroupElement::Group(inner) => self.collect_group(inner),
                GroupElement::Union(arms) => arms.iter().for_each(|a| self.collect_group(a)),
                GroupElement::Filter(e) => self.collect_expr(e),
                GroupElement::Bind(e, v) => {
                    self.collect_expr(e);
                    self.add_var(v);
                }
                GroupElement::Values(vb) => vb.vars.iter().for_each(|v| self.add_var(v)),
            }
        }
    }

    fn collect_expr(&mut self, e: &Expr) {
        match e {
            Expr::Var(v) => self.add_var(v),
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) => {
                self.collect_expr(a);
                self.collect_expr(b);
            }
            Expr::Not(a) => self.collect_expr(a),
            Expr::Call(_, args) => args.iter().for_each(|a| self.collect_expr(a)),
            Expr::Exists(g, _) => self.collect_group(g),
            Expr::Aggregate(agg) => {
                if let Some(inner) = &agg.expr {
                    self.collect_expr(inner);
                }
            }
            _ => {}
        }
    }

    fn collect_query(&mut self, q: &Query) {
        if let QueryForm::Select {
            projection: Projection::Items(items),
            ..
        } = &q.form
        {
            for item in items {
                match item {
                    ProjectionItem::Var(v) => self.add_var(v),
                    ProjectionItem::Expr(e, v) => {
                        self.collect_expr(e);
                        self.add_var(v);
                    }
                }
            }
        }
        for gc in &q.modifiers.group_by {
            match gc {
                GroupCondition::Var(v) => self.add_var(v),
                other => outside(other),
            }
        }
    }

    // ---- group patterns -------------------------------------------------

    fn empty(&self) -> Row {
        vec![None; self.vars.len()]
    }

    /// The solutions of `g` joined with `seed` (the empty row, or for
    /// `EXISTS` the solution substituted into it).
    fn group(&mut self, g: &GroupPattern, seed: Row) -> Vec<Row> {
        let mut rows = vec![seed];
        let mut filters = Vec::new();
        for el in &g.elements {
            rows = match el {
                // A BGP has no filter, so joining it with the rows is
                // extending each row by the triples that match.
                GroupElement::Triples(ts) => {
                    for tp in ts {
                        let mut next = Vec::new();
                        for row in &rows {
                            next.extend(self.match_pattern(tp, row));
                        }
                        rows = next;
                    }
                    rows
                }
                GroupElement::Group(inner) => {
                    let right = self.group(inner, self.empty());
                    join(&rows, &right)
                }
                GroupElement::Union(arms) => {
                    let mut right = Vec::new();
                    for arm in arms {
                        right.extend(self.group(arm, self.empty()));
                    }
                    join(&rows, &right)
                }
                GroupElement::Optional(inner) => self.left_join(rows, inner),
                GroupElement::Minus(inner) => {
                    let right = self.group(inner, self.empty());
                    rows.into_iter()
                        .filter(|l| {
                            !right.iter().any(|r| {
                                compatible(l, r)
                                    && l.iter().zip(r).any(|(a, b)| a.is_some() && b.is_some())
                            })
                        })
                        .collect()
                }
                GroupElement::Bind(e, v) => {
                    let slot = self.var(v);
                    for row in &mut rows {
                        assert!(row[slot].is_none(), "BIND would rebind ?{v}");
                        let value = self.eval(e, row);
                        row[slot] = value;
                    }
                    rows
                }
                GroupElement::Values(vb) => {
                    let mut table = Vec::new();
                    for cells in &vb.rows {
                        let mut row = self.empty();
                        for (v, cell) in vb.vars.iter().zip(cells) {
                            if let Some(tp) = cell {
                                row[self.var(v)] = Some(self.constant(tp));
                            }
                        }
                        table.push(row);
                    }
                    join(&rows, &table)
                }
                GroupElement::Filter(e) => {
                    filters.push(e);
                    rows
                }
            };
        }
        rows.retain(|row| filters.iter().all(|e| self.holds(e, row)));
        rows
    }

    /// `rows OPTIONAL { inner }`: the group without its filters is the
    /// right side, and the filters are the condition each merged
    /// solution must meet; a row nothing meets it with stays as it is.
    fn left_join(&mut self, rows: Vec<Row>, inner: &GroupPattern) -> Vec<Row> {
        let conditions: Vec<&Expr> = (inner.elements.iter())
            .filter_map(|el| match el {
                GroupElement::Filter(e) => Some(e),
                _ => None,
            })
            .collect();
        let body = GroupPattern {
            elements: (inner.elements.iter())
                .filter(|el| !matches!(el, GroupElement::Filter(_)))
                .cloned()
                .collect(),
        };
        let right = self.group(&body, self.empty());
        let mut out = Vec::new();
        for l in rows {
            let mut matched = false;
            for r in right.iter().filter(|r| compatible(&l, r)) {
                let merged = merge(&l, r);
                if conditions.iter().all(|e| self.holds(e, &merged)) {
                    out.push(merged);
                    matched = true;
                }
            }
            if !matched {
                out.push(l);
            }
        }
        out
    }

    // ---- triple patterns and paths --------------------------------------

    fn constant(&mut self, tp: &TermPattern) -> Id {
        let term = match tp {
            TermPattern::Iri(i) => Term::iri(i.clone()),
            TermPattern::Literal(l) => literal(l),
            other => outside(other),
        };
        self.id(&term)
    }

    fn pos(&mut self, tp: &TermPattern) -> Pos {
        match tp {
            TermPattern::Var(v) => Pos::Var(self.var(v)),
            TermPattern::Blank(l) => Pos::Var(self.var(&format!("_:{l}"))),
            ground => Pos::Const(self.constant(ground)),
        }
    }

    /// `row` extended by every match of `tp`.
    fn match_pattern(&mut self, tp: &TriplePattern, row: &Row) -> Vec<Row> {
        let s = self.pos(&tp.subject);
        let o = self.pos(&tp.object);
        let value = |pos: Pos| match pos {
            Pos::Var(i) => row[i],
            Pos::Const(c) => Some(c),
        };
        let mut out = Vec::new();
        let p = match &tp.path {
            Path::Iri(p) => Pos::Const(self.id(&Term::iri(p.clone()))),
            Path::Var(v) => Pos::Var(self.var(v)),
            path => {
                for (a, b) in self.path(path, value(s), value(o)) {
                    let mut next = row.clone();
                    if bind(&mut next, s, a) && bind(&mut next, o, b) {
                        out.push(next);
                    }
                }
                return out;
            }
        };
        for t in &self.triples {
            // Most triples do not fit: test before copying the row.
            let fits = [(s, t[0]), (p, t[1]), (o, t[2])]
                .iter()
                .all(|&(pos, id)| value(pos).is_none_or(|v| v == id));
            if fits {
                let mut next = row.clone();
                if bind(&mut next, s, t[0]) && bind(&mut next, p, t[1]) && bind(&mut next, o, t[2])
                {
                    out.push(next);
                }
            }
        }
        out
    }

    /// The node pairs `path` relates, restricted to the given ends.
    fn path(&mut self, path: &Path, s: Option<Id>, o: Option<Id>) -> BTreeSet<(Id, Id)> {
        match path {
            Path::Iri(p) => {
                let p = self.id(&Term::iri(p.clone()));
                self.triples
                    .iter()
                    .filter(|t| t[1] == p && s.is_none_or(|s| t[0] == s))
                    .filter(|t| o.is_none_or(|o| t[2] == o))
                    .map(|t| (t[0], t[2]))
                    .collect()
            }
            Path::Inverse(inner) => self
                .path(inner, o, s)
                .into_iter()
                .map(|(a, b)| (b, a))
                .collect(),
            Path::Sequence(first, second) => {
                let mut out = BTreeSet::new();
                for (a, mid) in self.path(first, s, None) {
                    for (_, b) in self.path(second, Some(mid), o) {
                        out.insert((a, b));
                    }
                }
                out
            }
            Path::Alternative(l, r) => {
                let mut out = self.path(l, s, o);
                out.extend(self.path(r, s, o));
                out
            }
            Path::ZeroOrMore(inner) | Path::OneOrMore(inner) => {
                let zero = matches!(path, Path::ZeroOrMore(_));
                if let (None, Some(end)) = (s, o) {
                    // `?x p* <o>` is `<o> (^p)* ?x`.
                    let inverse = Path::Inverse(inner.clone());
                    return self
                        .closure(&inverse, end, None, zero)
                        .into_iter()
                        .map(|(a, b)| (b, a))
                        .collect();
                }
                let starts: BTreeSet<Id> = match s {
                    Some(start) => BTreeSet::from([start]),
                    None => self.triples.iter().flat_map(|t| [t[0], t[2]]).collect(),
                };
                let mut out = BTreeSet::new();
                for start in starts {
                    out.extend(self.closure(inner, start, o, zero));
                }
                out
            }
            other => outside(other),
        }
    }

    /// `(start, end)` for each `end` one or more `step`s from `start`
    /// (or zero, when `zero`), and equal to `o` when that is given.
    fn closure(&mut self, step: &Path, start: Id, o: Option<Id>, zero: bool) -> BTreeSet<(Id, Id)> {
        let mut reached = BTreeSet::new();
        if zero {
            reached.insert(start);
        }
        let mut frontier = vec![start];
        while let Some(node) = frontier.pop() {
            for (_, next) in self.path(step, Some(node), None) {
                if reached.insert(next) {
                    frontier.push(next);
                }
            }
        }
        reached
            .into_iter()
            .filter(|end| o.is_none_or(|o| *end == o))
            .map(|end| (start, end))
            .collect()
    }

    // ---- expressions ----------------------------------------------------

    fn holds(&mut self, e: &Expr, row: &Row) -> bool {
        self.truth(e, row) == Some(true)
    }

    /// The effective boolean value of `e`; `None` is an error.
    fn truth(&mut self, e: &Expr, row: &Row) -> Option<bool> {
        let id = self.eval(e, row)?;
        match &self.terms[id as usize] {
            Term::Literal(l) if l.datatype().as_str() == xsd::BOOLEAN => l.as_bool(),
            Term::Literal(l) if l.is_numeric() => l.as_double().map(|n| n != 0.0 && !n.is_nan()),
            Term::Literal(l) if string(l).is_some() => Some(!l.lexical_form().is_empty()),
            _ => None,
        }
    }

    /// The value of `e` on `row`; `None` is an error (an unbound variable
    /// included).
    fn eval(&mut self, e: &Expr, row: &Row) -> Option<Id> {
        let value = match e {
            Expr::Var(v) => return row[self.var(v)],
            Expr::Iri(i) => return Some(self.id(&Term::iri(i.clone()))),
            Expr::Literal(l) => return Some(self.id(&literal(l))),
            Expr::Or(a, b) => match (self.truth(a, row), self.truth(b, row)) {
                (Some(true), _) | (_, Some(true)) => true,
                (Some(false), Some(false)) => false,
                _ => return None,
            },
            Expr::And(a, b) => match (self.truth(a, row), self.truth(b, row)) {
                (Some(false), _) | (_, Some(false)) => false,
                (Some(true), Some(true)) => true,
                _ => return None,
            },
            Expr::Not(a) => !self.truth(a, row)?,
            Expr::Compare(op, a, b) => {
                let (a, b) = (self.eval(a, row)?, self.eval(b, row)?);
                compare(*op, &self.terms[a as usize], &self.terms[b as usize])?
            }
            Expr::Call(Builtin::Bound, args) => match args.as_slice() {
                [Expr::Var(v)] => row[self.var(v)].is_some(),
                other => outside(other),
            },
            Expr::Exists(g, negated) => self.group(g, row.clone()).is_empty() == *negated,
            other => outside(other),
        };
        Some(self.boolean(value))
    }

    // ---- SELECT ---------------------------------------------------------

    fn select(&mut self, q: &Query) -> Vec<Solution> {
        let QueryForm::Select {
            distinct,
            reduced: false,
            projection,
        } = &q.form
        else {
            outside(&q.form)
        };
        let m = &q.modifiers;
        if !m.having.is_empty() || m.limit.is_some() || m.offset.is_some() {
            outside(m);
        }
        let rows = self.group(&q.where_pattern, self.empty());
        let items: &[ProjectionItem] = match projection {
            Projection::All => &[],
            Projection::Items(items) => items,
        };
        let aggregating = !m.group_by.is_empty()
            || items
                .iter()
                .any(|i| matches!(i, ProjectionItem::Expr(Expr::Aggregate(_), _)));
        let mut out: Vec<Solution> = if aggregating {
            self.aggregate(q, items, rows)
        } else {
            rows.iter()
                .map(|row| {
                    let solution = self.solution(row);
                    match projection {
                        Projection::All => solution
                            .into_iter()
                            .filter(|(v, _)| !v.starts_with("_:"))
                            .collect(),
                        Projection::Items(items) => project(solution, items),
                    }
                })
                .collect()
        };
        if *distinct {
            let unique: BTreeSet<Solution> = out.into_iter().collect();
            out = unique.into_iter().collect();
        }
        out.sort();
        out
    }

    /// One solution per group of `rows` with equal `GROUP BY` values (one
    /// group in all when there is no `GROUP BY`), binding those values
    /// and each `COUNT`.
    fn aggregate(&mut self, q: &Query, items: &[ProjectionItem], rows: Vec<Row>) -> Vec<Solution> {
        let keys: Vec<usize> = (q.modifiers.group_by.iter())
            .map(|gc| match gc {
                GroupCondition::Var(v) => self.var(v),
                other => outside(other),
            })
            .collect();
        let mut groups: BTreeMap<Vec<Option<Id>>, Vec<Row>> = BTreeMap::new();
        if keys.is_empty() {
            groups.insert(Vec::new(), Vec::new());
        }
        for row in rows {
            let key = keys.iter().map(|&k| row[k]).collect();
            groups.entry(key).or_default().push(row);
        }
        let mut out = Vec::new();
        for (key, members) in groups {
            let mut solution = Solution::new();
            for (&k, value) in keys.iter().zip(&key) {
                if let Some(id) = value {
                    solution.insert(self.vars[k].clone(), self.terms[*id as usize].clone());
                }
            }
            for item in items {
                let ProjectionItem::Expr(Expr::Aggregate(agg), alias) = item else {
                    continue;
                };
                if agg.kind != AggregateKind::Count {
                    outside(agg);
                }
                let count = match &agg.expr {
                    None => members.len(),
                    Some(e) => {
                        let values = members.iter().filter_map(|row| self.eval(e, row));
                        if agg.distinct {
                            values.collect::<BTreeSet<Id>>().len()
                        } else {
                            values.count()
                        }
                    }
                };
                solution.insert(alias.clone(), Term::integer(count as i64));
            }
            out.push(project(solution, items));
        }
        out
    }

    fn solution(&self, row: &Row) -> Solution {
        (self.vars.iter().zip(row))
            .filter_map(|(v, cell)| Some((v.clone(), self.terms[(*cell)? as usize].clone())))
            .collect()
    }
}

/// `solution` restricted to the projected names.
fn project(solution: Solution, items: &[ProjectionItem]) -> Solution {
    let names: Vec<&str> = items
        .iter()
        .map(|item| match item {
            ProjectionItem::Var(v) => v.as_str(),
            ProjectionItem::Expr(Expr::Aggregate(_), v) => v.as_str(),
            other => outside(other),
        })
        .collect();
    solution
        .into_iter()
        .filter(|(v, _)| names.contains(&v.as_str()))
        .collect()
}

/// Binds `id` at `pos`: true when the position is a constant or cell
/// already holding `id`, or a free cell.
fn bind(row: &mut Row, pos: Pos, id: Id) -> bool {
    match pos {
        Pos::Const(c) => c == id,
        Pos::Var(i) => match row[i] {
            Some(v) => v == id,
            None => {
                row[i] = Some(id);
                true
            }
        },
    }
}

fn compatible(a: &Row, b: &Row) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.is_none() || y.is_none() || x == y)
}

fn merge(a: &Row, b: &Row) -> Row {
    a.iter().zip(b).map(|(x, y)| x.or(*y)).collect()
}

fn join(left: &[Row], right: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if compatible(l, r) {
                out.push(merge(l, r));
            }
        }
    }
    out
}

fn literal(l: &LiteralPattern) -> Term {
    Term::Literal(match (&l.language, &l.datatype) {
        (Some(lang), _) => Literal::lang(l.lexical.clone(), lang.clone()),
        (None, Some(dt)) => Literal::typed(l.lexical.clone(), Iri::new(dt.clone())),
        (None, None) => Literal::simple(l.lexical.clone()),
    })
}

/// A plain or language-tagged string: its text and tag.
fn string(l: &Literal) -> Option<(&str, Option<&str>)> {
    let plain = l.datatype().as_str() == xsd::STRING || l.datatype().as_str() == rdf::LANG_STRING;
    plain.then(|| (l.lexical_form(), l.language()))
}

/// `a op b`: numbers by value, booleans by truth, strings by text, and
/// any other pair of terms by identity, for `=` / `!=` only.
fn compare(op: CompareOp, a: &Term, b: &Term) -> Option<bool> {
    let (la, lb) = (a.as_literal(), b.as_literal());
    let order = if let (Some(x), Some(y)) = (
        la.and_then(Literal::as_double),
        lb.and_then(Literal::as_double),
    ) {
        x.partial_cmp(&y)
    } else if let (Some(x), Some(y)) =
        (la.and_then(Literal::as_bool), lb.and_then(Literal::as_bool))
    {
        Some(x.cmp(&y))
    } else if let (Some(x), Some(y)) = (la.and_then(string), lb.and_then(string)) {
        match op {
            CompareOp::Eq => return Some(x == y),
            CompareOp::Ne => return Some(x != y),
            _ => Some(x.0.cmp(y.0)),
        }
    } else {
        None
    };
    let Some(order) = order else {
        return match op {
            CompareOp::Eq => Some(a == b),
            CompareOp::Ne => Some(a != b),
            _ => None,
        };
    };
    Some(match op {
        CompareOp::Eq => order.is_eq(),
        CompareOp::Ne => order.is_ne(),
        CompareOp::Lt => order.is_lt(),
        CompareOp::Le => order.is_le(),
        CompareOp::Gt => order.is_gt(),
        CompareOp::Ge => order.is_ge(),
    })
}
