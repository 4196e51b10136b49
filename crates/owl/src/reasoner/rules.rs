//! The TBox compiled to one rule program.
//!
//! Every axiom becomes conjunctive rules over triple patterns (DaRLing's
//! reading of OWL 2 RL). A class expression on the left of an axiom is
//! unfolded into the bodies that witness it: `∃p.(B ⊓ ∃q.C)` is the one
//! body `x p y, y a B, y q z, z a C`, a union gives one body per arm,
//! and an enumeration binds the root to each of its members. One on the
//! right is applied as heads: one rule per conjunct of an intersection,
//! `∀p.F` adds the edge to the body and applies `F` to its object,
//! `hasValue` and a singleton `oneOf` assert a triple, and `¬D` is a ⊥
//! rule whose body also holds `x ∈ D`. Domain and range expressions are
//! applied the same way to the subject or object of a property edge.
//! Nothing else is ever derived, so no auxiliary predicate is needed.

use std::collections::{BTreeMap, BTreeSet};

use feo_rdf::hash::FxMap;
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{GraphStore, GraphView, Term, TermId};

use super::InconsistencyKind::{self, *};
use crate::axiom::{Axiom, ClassExpr, Ontology};
use crate::extract::extract_axioms;

/// The terms a rule's variables are bound to, by variable.
pub(super) type Binding = [Option<TermId>];

/// A subject or object position of an atom: a rule variable or a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Slot {
    Var(usize),
    Id(TermId),
}

impl Slot {
    /// The term at this slot under the binding `b`.
    pub(super) fn value(self, b: &Binding) -> Option<TermId> {
        match self {
            Slot::Var(v) => b[v],
            Slot::Id(id) => Some(id),
        }
    }
}

/// A triple pattern. Every predicate the TBox names is a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Atom {
    pub s: Slot,
    pub p: TermId,
    pub o: Slot,
}

impl Atom {
    fn new(s: Slot, p: TermId, o: Slot) -> Atom {
        Atom { s, p, o }
    }

    /// The key a matching triple is found under: the predicate, with the
    /// object when it is fixed (a class of `rdf:type`, or a value).
    fn key(&self) -> (TermId, Option<TermId>) {
        match self.o {
            Slot::Id(o) => (self.p, Some(o)),
            Slot::Var(_) => (self.p, None),
        }
    }

    /// The triple this atom stands for under the binding `b`.
    pub(super) fn triple(&self, b: &Binding) -> Option<[TermId; 3]> {
        Some([self.s.value(b)?, self.p, self.o.value(b)?])
    }
}

/// A condition on a body's bindings besides its atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Check {
    /// The two variables are bound to different terms.
    Distinct(usize, usize),
    /// The variable is bound to an IRI or a blank node.
    Resource(usize),
}

impl Check {
    pub(super) fn holds<V: GraphView + ?Sized>(self, g: &V, b: &Binding) -> bool {
        match self {
            Check::Distinct(x, y) => b[x] != b[y],
            Check::Resource(x) => b[x].is_some_and(|x| g.term(x).is_resource()),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Head {
    Triple(Atom),
    /// ⊥: one violation per kind, group (an axiom, or the property of
    /// prp-irp and prp-asyp) and key (the terms named, in store order).
    Bottom(InconsistencyKind, usize, Vec<Slot>),
}

/// `head ← body, checks`, named for the OWL 2 RL/RDF rule it instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Rule {
    pub name: &'static str,
    pub body: Vec<Atom>,
    pub checks: Vec<Check>,
    pub head: Head,
    /// Variables are below this; every one the head names is bound by
    /// some body atom.
    pub vars: usize,
    /// Per body position, the order the other atoms are joined in once
    /// that one is bound.
    pub orders: Vec<Vec<usize>>,
}

/// The rule atoms a triple with one key matches, as `(rule, position)`:
/// those of rules of one atom or whose atoms and head share one
/// predicate (prp-trp, a chain `p∘p ⊑ p`, `A ⊓ B ⊑ C`), then those of
/// the other joins. `left` when one of the latter is left of another
/// atom, where it reads only older triples.
#[derive(Debug, Clone, Default)]
pub(super) struct Entry {
    pub atoms: [Vec<(usize, usize)>; 2],
    pub left: bool,
}

/// The rule program compiled once from a graph's TBox, reusable by any
/// closure over a store sharing that graph's id space (the graph itself,
/// or [`feo_rdf::Overlay`]s based on it).
#[derive(Debug, Clone)]
pub struct CompiledRules {
    rdf_type: TermId,
    pub(super) same_as: TermId,
    /// The program. A rule with an empty body is a fact: a pair of the
    /// schema closure, or an enumerated member's class.
    pub(super) rules: Vec<Rule>,
    pub(super) index: FxMap<(TermId, Option<TermId>), Entry>,
    /// `owl:Nothing` while cls-nothing2 waits for a closed store naming it.
    unnamed_nothing: Option<Term>,
    axiom_count: usize,
    pub(super) warnings: Vec<String>,
}

/// The triples a reader can see: every triple whose predicate is in
/// `predicates` (`rdf:type` there stands for every typing), and the
/// `rdf:type` triples whose class is in `classes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    pub predicates: BTreeSet<TermId>,
    pub classes: BTreeSet<TermId>,
}

impl ReadSet {
    /// Whether some triple `atom` matches can be seen.
    fn sees(&self, rdf_type: TermId, atom: &Atom) -> bool {
        self.predicates.contains(&atom.p)
            || atom.p == rdf_type
                && match atom.o {
                    Slot::Id(c) => self.classes.contains(&c),
                    Slot::Var(_) => !self.classes.is_empty(),
                }
    }
}

impl CompiledRules {
    /// Extracts axioms from the store and compiles them. `&mut` only to
    /// intern the vocabulary the rules derive with (`rdf:type`,
    /// `owl:sameAs`, `rdfs:subClassOf`, `rdfs:subPropertyOf`), so a
    /// store that names it later uses the same ids; no triple is added.
    pub fn compile(g: &mut impl GraphStore) -> Self {
        let ontology = extract_axioms(g);
        Self::from_ontology(g, &ontology)
    }

    /// Compiles an already-extracted [`Ontology`].
    pub fn from_ontology(g: &mut impl GraphStore, ontology: &Ontology) -> Self {
        let (rdf_type, same_as) = (g.intern_iri(rdf::TYPE), g.intern_iri(owl::SAME_AS));
        let sco = g.intern_iri(rdfs::SUB_CLASS_OF);
        let spo = g.intern_iri(rdfs::SUB_PROPERTY_OF);
        let mut c = Compiler {
            rdf_type,
            same_as,
            rules: Vec::new(),
            vars: 0,
            axiom: 0,
        };
        let (mut classes, mut properties) = (BTreeMap::new(), BTreeMap::new());
        for axiom in &ontology.axioms {
            let (map, a, b, both) = match axiom {
                Axiom::SubClassOf(a, b) => (&mut classes, a.as_named(), b.as_named(), false),
                Axiom::EquivalentClasses(a, b) => (&mut classes, a.as_named(), b.as_named(), true),
                Axiom::SubPropertyOf(a, b) => (&mut properties, Some(*a), Some(*b), false),
                Axiom::EquivalentProperties(a, b) => (&mut properties, Some(*a), Some(*b), true),
                _ => continue,
            };
            if let (Some(a), Some(b)) = (a, b) {
                map.entry(a).or_insert_with(BTreeSet::new).insert(b);
                if both {
                    map.entry(b).or_insert_with(BTreeSet::new).insert(a);
                }
            }
        }
        // scm-sco and cax-sco, scm-spo and prp-spo1: a fact and a rule
        // per pair of the transitive closure.
        let (x, id) = (Slot::Var(0), Slot::Id);
        for (a, b) in transitive_close(classes) {
            c.fact("scm-sco", Atom::new(id(a), sco, id(b)));
            let typed = |c| Atom::new(x, rdf_type, id(c));
            c.rule("cax-sco", &[typed(a)], &[], Head::Triple(typed(b)));
        }
        for (p, q) in transitive_close(properties) {
            c.fact("scm-spo", Atom::new(id(p), spo, id(q)));
            c.rule("prp-spo1", &[edge(0, p, 1)], &[], head(0, q, 1));
        }
        for (i, axiom) in ontology.axioms.iter().enumerate() {
            c.axiom = i;
            c.compile(axiom);
        }
        let program = CompiledRules {
            rdf_type,
            same_as,
            rules: c.rules,
            index: FxMap::default(),
            unnamed_nothing: Some(Term::iri(owl::NOTHING)),
            axiom_count: ontology.axioms.len(),
            warnings: ontology.warnings.clone(),
        };
        program.for_store(&*g).unwrap_or_else(|| program.indexed())
    }

    /// This program with cls-nothing2, when it lacks the rule and `g`
    /// names `owl:Nothing` (a store that does not has no instance of it).
    pub(super) fn for_store(&self, g: &impl GraphView) -> Option<CompiledRules> {
        let nothing = g.lookup(self.unnamed_nothing.as_ref()?)?;
        let (mut program, x) = (self.clone(), Slot::Var(0));
        program.rules.push(Rule {
            name: "cls-nothing2",
            body: vec![Atom::new(x, self.rdf_type, Slot::Id(nothing))],
            checks: Vec::new(),
            head: Head::Bottom(NothingHasInstance, 0, vec![x]),
            vars: 1,
            orders: vec![Vec::new()],
        });
        program.unnamed_nothing = None;
        Some(program.indexed())
    }

    /// The program with its index built.
    fn indexed(mut self) -> Self {
        self.index.clear();
        for (r, rule) in self.rules.iter().enumerate() {
            let closes =
                matches!(&rule.head, Head::Triple(h) if rule.body.iter().all(|a| a.p == h.p));
            let join = usize::from(rule.body.len() > 1 && !closes);
            for (pos, atom) in rule.body.iter().enumerate() {
                let entry = self.index.entry(atom.key()).or_default();
                entry.atoms[join].push((r, pos));
                entry.left |= join == 1 && pos + 1 < rule.body.len();
            }
        }
        self
    }

    /// Number of axioms the rules were compiled from.
    pub fn axiom_count(&self) -> usize {
        self.axiom_count
    }

    /// The rules that can derive a triple `reads` sees: the relevance
    /// step of query rewriting (DaRLing; Gottlob, Orsi and Pieris), a
    /// walk back from what is read over each rule's head to its body.
    /// Every derivation of a read triple uses these rules only, so a
    /// closure under them, over a base closed under every rule, derives
    /// on the read set what every rule would. `owl:sameAs` is always
    /// read, as eq-rep copies every triple along it. No ⊥ rule is kept.
    pub fn relevant_to(&self, reads: &ReadSet) -> CompiledRules {
        let mut read = reads.clone();
        read.predicates.insert(self.same_as);
        let mut kept = BTreeSet::new();
        while let Some(r) = (0..self.rules.len()).find(|r| {
            !kept.contains(r)
                && matches!(&self.rules[*r].head, Head::Triple(h) if read.sees(self.rdf_type, h))
        }) {
            kept.insert(r);
            for atom in &self.rules[r].body {
                match atom.o {
                    Slot::Id(c) if atom.p == self.rdf_type => read.classes.insert(c),
                    _ => read.predicates.insert(atom.p),
                };
            }
        }
        let mut program = self.clone();
        program.rules = kept.into_iter().map(|r| self.rules[r].clone()).collect();
        program.unnamed_nothing = None;
        program.indexed()
    }
}

/// The atom `?s p ?o`.
fn edge(s: usize, p: TermId, o: usize) -> Atom {
    Atom::new(Slot::Var(s), p, Slot::Var(o))
}

/// The head `?s p ?o`.
fn head(s: usize, p: TermId, o: usize) -> Head {
    Head::Triple(edge(s, p, o))
}

/// One way an individual satisfies a class expression: the atoms that
/// witness it, and the members an enumeration binds variables to.
#[derive(Debug, Clone, Default)]
struct Body(Vec<Atom>, Vec<(usize, TermId)>);

impl Body {
    fn of(atom: Atom) -> Body {
        Body(vec![atom], vec![])
    }

    fn and(&self, other: &Body) -> Body {
        let atoms = [&self.0[..], &other.0].concat();
        Body(atoms, [&self.1[..], &other.1].concat())
    }
}

struct Compiler {
    rdf_type: TermId,
    same_as: TermId,
    rules: Vec<Rule>,
    /// The next free variable of the axiom being compiled.
    vars: usize,
    /// The position of the axiom being compiled: its violations' group.
    axiom: usize,
}

impl Compiler {
    /// The rules of one axiom. Variables 0 and 1 are the subject and
    /// object of its first edge, or 0 the individual a class expression
    /// is tested on.
    fn compile(&mut self, axiom: &Axiom) {
        let (x, y, group) = (Slot::Var(0), Slot::Var(1), self.axiom);
        let distinct = [Check::Distinct(0, 1)];
        self.vars = 2;
        match *axiom {
            Axiom::SubClassOf(ref sub, ref sup) => self.subclass(sub, sup),
            Axiom::EquivalentClasses(ref a, ref b) => {
                self.subclass(a, b);
                self.subclass(b, a);
            }
            Axiom::InverseOf(p, q) => {
                self.rule("prp-inv", &[edge(0, p, 1)], &[], head(1, q, 0));
                self.rule("prp-inv", &[edge(0, q, 1)], &[], head(1, p, 0));
            }
            Axiom::SymmetricProperty(p) => {
                self.rule("prp-symp", &[edge(0, p, 1)], &[], head(1, p, 0))
            }
            Axiom::TransitiveProperty(p) => {
                let body = [edge(0, p, 1), edge(1, p, 2)];
                self.rule("prp-trp", &body, &[], head(0, p, 2));
            }
            Axiom::Domain(p, ref c) => self.apply(x, c, &Body::of(edge(0, p, 1))),
            Axiom::Range(p, ref c) => self.apply(x, c, &Body::of(edge(1, p, 0))),
            Axiom::FunctionalProperty(p) => {
                let body = [edge(2, p, 0), edge(2, p, 1)];
                let checks = [distinct[0], Check::Resource(0), Check::Resource(1)];
                self.rule("prp-fp", &body, &checks, head(0, self.same_as, 1));
            }
            Axiom::InverseFunctionalProperty(p) => {
                let body = [edge(0, p, 2), edge(1, p, 2)];
                self.rule("prp-ifp", &body, &distinct, head(0, self.same_as, 1));
            }
            Axiom::PropertyChain(ref chain, q) => {
                let body: Vec<Atom> = (chain.iter().enumerate())
                    .map(|(k, &p)| edge(k, p, k + 1))
                    .collect();
                self.rule("prp-spo2", &body, &[], head(0, q, chain.len()));
            }
            Axiom::DisjointClasses(ref a, ref b) => {
                self.vars = 1;
                let (a, b) = (self.holds(x, a), self.holds(x, b));
                for body in a.iter().flat_map(|a| b.iter().map(move |b| a.and(b))) {
                    let bottom = Head::Bottom(DisjointClassesViolation, group, vec![x]);
                    self.push("cax-dw", &body, &[], bottom);
                }
            }
            Axiom::DisjointProperties(p, q) => {
                let key = vec![y, x, Slot::Id(p), Slot::Id(q)];
                let bottom = Head::Bottom(DisjointPropertiesViolation, group, key);
                self.rule("prp-pdw", &[edge(0, p, 1), edge(0, q, 1)], &[], bottom);
            }
            Axiom::IrreflexiveProperty(p) => {
                let bottom = Head::Bottom(IrreflexiveViolation, p.index(), vec![x, Slot::Id(p)]);
                self.rule("prp-irp", &[edge(0, p, 0)], &[], bottom);
            }
            Axiom::AsymmetricProperty(p) => {
                let body = [edge(0, p, 1), edge(1, p, 0)];
                let bottom = Head::Bottom(AsymmetricViolation, p.index(), vec![y, x, Slot::Id(p)]);
                self.rule("prp-asyp", &body, &distinct, bottom);
            }
            Axiom::DifferentFrom(a, b) => {
                // eq-sym derives the reverse of every sameAs triple, so
                // one direction finds every violation.
                let (a, b) = (Slot::Id(a), Slot::Id(b));
                let bottom = Head::Bottom(SameAndDifferent, group, vec![a, b]);
                self.rule("eq-diff1", &[Atom::new(a, self.same_as, b)], &[], bottom);
            }
            // Compiled with the class and property hierarchies; asserted
            // sameAs pairs are seed triples like any other.
            Axiom::SubPropertyOf(..) | Axiom::EquivalentProperties(..) | Axiom::SameAs(..) => {}
        }
    }

    fn var(&mut self) -> Slot {
        self.vars += 1;
        Slot::Var(self.vars - 1)
    }

    /// `sub ⊑ sup` with a complex side (named pairs are the hierarchy's):
    /// every body of `sub` asserts `sup`.
    fn subclass(&mut self, sub: &ClassExpr, sup: &ClassExpr) {
        if sub.as_named().is_none() || sup.as_named().is_none() {
            self.vars = 1;
            for body in self.holds(Slot::Var(0), sub) {
                self.apply(Slot::Var(0), sup, &body);
            }
        }
    }

    /// The bodies in which `x` satisfies `expr`; none for a universal or
    /// a complement, whose membership OWL 2 RL never derives.
    fn holds(&mut self, x: Slot, expr: &ClassExpr) -> Vec<Body> {
        let atom = |p, o| vec![Body::of(Atom::new(x, p, Slot::Id(o)))];
        match expr {
            ClassExpr::Named(c) => atom(self.rdf_type, *c),
            ClassExpr::HasValue { property, value } => atom(*property, *value),
            ClassExpr::SomeValuesFrom { property, filler } => {
                let y = self.var();
                let edge = Body::of(Atom::new(x, *property, y));
                let fillers = self.holds(y, filler);
                fillers.iter().map(|body| edge.and(body)).collect()
            }
            ClassExpr::IntersectionOf(es) => es.iter().fold(vec![Body::default()], |acc, e| {
                let arms = self.holds(x, e);
                let both = |a: &Body| arms.iter().map(|b| a.and(b)).collect::<Vec<_>>();
                acc.iter().flat_map(both).collect()
            }),
            ClassExpr::UnionOf(es) => es.iter().flat_map(|e| self.holds(x, e)).collect(),
            ClassExpr::OneOf(ids) => (ids.iter())
                .filter_map(|&id| match x {
                    Slot::Var(v) => Some(Body(vec![], vec![(v, id)])),
                    Slot::Id(x) => (x == id).then(Body::default),
                })
                .collect(),
            ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => Vec::new(),
        }
    }

    /// The rules asserting `x ∈ expr` when `body` holds. A named class is
    /// asserted as `cls`, under a domain or range too (the name proofs
    /// show); the other heads are named for their own rule. No
    /// existential is introduced and nothing follows from a union or an
    /// enumeration of more than one member (OWL 2 RL).
    fn apply(&mut self, x: Slot, expr: &ClassExpr, body: &Body) {
        let head = |p, o| Head::Triple(Atom::new(x, p, Slot::Id(o)));
        match expr {
            ClassExpr::Named(c) => self.push("cls", body, &[], head(self.rdf_type, *c)),
            ClassExpr::HasValue { property, value } => {
                self.push("cls-hv1", body, &[], head(*property, *value))
            }
            ClassExpr::OneOf(ids) if ids.len() == 1 => {
                self.push("cls-oo", body, &[], head(self.same_as, ids[0]))
            }
            ClassExpr::IntersectionOf(es) => es.iter().for_each(|e| self.apply(x, e, body)),
            ClassExpr::AllValuesFrom { property, filler } => {
                let y = self.var();
                let body = body.and(&Body::of(Atom::new(x, *property, y)));
                self.apply(y, filler, &body);
            }
            ClassExpr::ComplementOf(d) => {
                // cls-com: `x ∈ ¬D` and `x ∈ D` clash.
                let bottom = Head::Bottom(DisjointClassesViolation, self.axiom, vec![x]);
                for inside in self.holds(x, d) {
                    self.push("cls-com", &body.and(&inside), &[], bottom.clone());
                }
            }
            ClassExpr::SomeValuesFrom { .. } | ClassExpr::UnionOf(_) | ClassExpr::OneOf(_) => {}
        }
    }

    fn fact(&mut self, name: &'static str, head: Atom) {
        self.rule(name, &[], &[], Head::Triple(head));
    }

    fn rule(&mut self, name: &'static str, atoms: &[Atom], checks: &[Check], head: Head) {
        self.push(name, &Body(atoms.to_vec(), vec![]), checks, head);
    }

    /// Adds `head ← body, checks` with the body's enumeration binds
    /// substituted. A rule whose binds disagree never fires, and one
    /// whose head names a variable no atom binds (a left-hand side of no
    /// atoms, like an empty intersection) fires on nothing a closure
    /// could see: both are dropped, as is a rule the program has.
    fn push(&mut self, name: &'static str, body: &Body, checks: &[Check], head: Head) {
        let mut fixed: BTreeMap<usize, TermId> = BTreeMap::new();
        if (body.1.iter()).any(|&(v, id)| *fixed.entry(v).or_insert(id) != id) {
            return;
        }
        let fix = |s: Slot| match s {
            Slot::Var(v) => fixed.get(&v).map_or(s, |&id| Slot::Id(id)),
            id => id,
        };
        let fix_atom = |a: &Atom| Atom::new(fix(a.s), a.p, fix(a.o));
        let atoms: Vec<Atom> = body.0.iter().map(fix_atom).collect();
        let (head, named) = match head {
            Head::Triple(a) => (Head::Triple(fix_atom(&a)), vec![fix(a.s), fix(a.o)]),
            Head::Bottom(kind, group, key) => {
                let key: Vec<Slot> = key.into_iter().map(fix).collect();
                (Head::Bottom(kind, group, key.clone()), key)
            }
        };
        let bound: BTreeSet<usize> = atoms.iter().flat_map(vars).collect();
        if named
            .iter()
            .any(|s| matches!(s, Slot::Var(v) if !bound.contains(v)))
        {
            return;
        }
        let rule = Rule {
            name,
            vars: bound.last().map_or(0, |v| v + 1),
            orders: (0..atoms.len()).map(|i| join_order(&atoms, i)).collect(),
            body: atoms,
            checks: checks.to_vec(),
            head,
        };
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
        }
    }
}

/// The variables of an atom.
fn vars(atom: &Atom) -> impl Iterator<Item = usize> {
    [atom.s, atom.o]
        .into_iter()
        .filter_map(|s| if let Slot::Var(v) = s { Some(v) } else { None })
}

/// The order the atoms other than `first` are joined in once `first` is
/// bound: a fully bound atom as soon as there is one (a lookup), then an
/// atom reached through a bound variable or a fixed subject (a scan of
/// one node's edges), and only then anything else.
fn join_order(body: &[Atom], first: usize) -> Vec<usize> {
    let mut bound: Vec<usize> = vars(&body[first]).collect();
    let mut left: Vec<usize> = (0..body.len()).filter(|&j| j != first).collect();
    let mut order = Vec::new();
    while !left.is_empty() {
        let rank = |(at, &j): (usize, &usize)| {
            let free = vars(&body[j]).filter(|v| !bound.contains(v)).count();
            let reached = free < vars(&body[j]).count() || matches!(body[j].s, Slot::Id(_));
            (free == 0, reached, std::cmp::Reverse(at))
        };
        let pick = (left.iter().enumerate()).max_by_key(|&e| rank(e));
        let j = left.remove(pick.map_or(0, |(at, _)| at));
        bound.extend(vars(&body[j]));
        order.push(j);
    }
    order
}

/// The pairs of the transitive closure of `map`. A node reaches itself
/// only where it was asserted to.
fn transitive_close(map: BTreeMap<TermId, BTreeSet<TermId>>) -> Vec<(TermId, TermId)> {
    let mut pairs = Vec::new();
    for (&a, direct) in &map {
        let (mut seen, mut todo) = (BTreeSet::new(), Vec::from_iter(direct.iter().copied()));
        while let Some(b) = todo.pop() {
            if seen.insert(b) {
                todo.extend(map.get(&b).into_iter().flatten());
            }
        }
        let reached = seen.into_iter().filter(|&b| b != a || direct.contains(&a));
        pairs.extend(reached.map(|b| (a, b)));
    }
    pairs
}
