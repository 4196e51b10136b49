//! A naive fixpoint reasoner: the reference `Reasoner::materialize` is
//! checked against.
//!
//! It applies every rule `feo-owl` implements to the whole set of
//! triples, again and again, until a round derives nothing new: no
//! worklist, no triggers, no fresh-triple bookkeeping, and no code shared
//! with the engine beyond reading the axioms out of the graph (the syntax
//! layer). The only structure is the triple set's own (s, p, o) order.
//! Slow on purpose — every round re-derives everything.

use std::collections::BTreeSet;

use feo_owl::{extract_axioms, Axiom, ClassExpr, InconsistencyKind};
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphStore, GraphView, TermId};

/// A term, as its dictionary index.
type Id = u32;
type Triple = [Id; 3];

fn id(t: TermId) -> Id {
    t.index() as Id
}

/// A class expression over [`Id`]s.
enum Class {
    Named(Id),
    And(Vec<Class>),
    Or(Vec<Class>),
    Some(Id, Box<Class>),
    All(Id, Box<Class>),
    Value(Id, Id),
    OneOf(Vec<Id>),
    Not(Box<Class>),
}

impl Class {
    fn of(e: &ClassExpr) -> Class {
        let all = |es: &[ClassExpr]| es.iter().map(Class::of).collect();
        match e {
            ClassExpr::Named(c) => Class::Named(id(*c)),
            ClassExpr::IntersectionOf(es) => Class::And(all(es)),
            ClassExpr::UnionOf(es) => Class::Or(all(es)),
            ClassExpr::SomeValuesFrom { property, filler } => {
                Class::Some(id(*property), Box::new(Class::of(filler)))
            }
            ClassExpr::AllValuesFrom { property, filler } => {
                Class::All(id(*property), Box::new(Class::of(filler)))
            }
            ClassExpr::HasValue { property, value } => Class::Value(id(*property), id(*value)),
            ClassExpr::OneOf(ids) => Class::OneOf(ids.iter().map(|&t| id(t)).collect()),
            ClassExpr::ComplementOf(c) => Class::Not(Box::new(Class::of(c))),
        }
    }
}

/// The TBox as plain lists.
#[derive(Default)]
struct Tbox {
    /// Named subclass pairs (equivalences both ways), transitively closed.
    sub_class: BTreeSet<(Id, Id)>,
    sub_prop: BTreeSet<(Id, Id)>,
    /// Subclass pairs with a complex side, with the position of the
    /// axiom they come from.
    complex: Vec<(usize, Class, Class)>,
    inverse: Vec<(Id, Id)>,
    transitive: Vec<Id>,
    symmetric: Vec<Id>,
    asymmetric: Vec<Id>,
    functional: Vec<Id>,
    inverse_functional: Vec<Id>,
    irreflexive: Vec<Id>,
    /// Domain and range expressions, with the position of their axiom.
    domain: Vec<(usize, Id, Class)>,
    range: Vec<(usize, Id, Class)>,
    chains: Vec<(Vec<Id>, Id)>,
    disjoint_classes: Vec<(Class, Class)>,
    disjoint_properties: Vec<(Id, Id)>,
    different: Vec<(Id, Id)>,
}

impl Tbox {
    fn of(g: &Graph) -> Tbox {
        let ontology = extract_axioms(g);
        let mut t = Tbox::default();
        for (i, axiom) in ontology.axioms.iter().enumerate() {
            let pairs = match axiom {
                Axiom::SubClassOf(a, b) => vec![(a, b)],
                Axiom::EquivalentClasses(a, b) => vec![(a, b), (b, a)],
                _ => vec![],
            };
            for (sub, sup) in pairs {
                match (sub.as_named(), sup.as_named()) {
                    (Some(a), Some(b)) => _ = t.sub_class.insert((id(a), id(b))),
                    _ => t.complex.push((i, Class::of(sub), Class::of(sup))),
                }
            }
            match axiom {
                Axiom::SubPropertyOf(a, b) => _ = t.sub_prop.insert((id(*a), id(*b))),
                Axiom::EquivalentProperties(a, b) => {
                    t.sub_prop.insert((id(*a), id(*b)));
                    t.sub_prop.insert((id(*b), id(*a)));
                }
                Axiom::InverseOf(a, b) => {
                    t.inverse.push((id(*a), id(*b)));
                    t.inverse.push((id(*b), id(*a)));
                }
                Axiom::TransitiveProperty(p) => t.transitive.push(id(*p)),
                Axiom::SymmetricProperty(p) => t.symmetric.push(id(*p)),
                Axiom::AsymmetricProperty(p) => t.asymmetric.push(id(*p)),
                Axiom::FunctionalProperty(p) => t.functional.push(id(*p)),
                Axiom::InverseFunctionalProperty(p) => t.inverse_functional.push(id(*p)),
                Axiom::IrreflexiveProperty(p) => t.irreflexive.push(id(*p)),
                Axiom::Domain(p, c) => t.domain.push((i, id(*p), Class::of(c))),
                Axiom::Range(p, c) => t.range.push((i, id(*p), Class::of(c))),
                Axiom::PropertyChain(chain, p) => t
                    .chains
                    .push((chain.iter().map(|&s| id(s)).collect(), id(*p))),
                Axiom::DisjointClasses(a, b) => {
                    t.disjoint_classes.push((Class::of(a), Class::of(b)))
                }
                Axiom::DisjointProperties(a, b) => t.disjoint_properties.push((id(*a), id(*b))),
                Axiom::DifferentFrom(a, b) => t.different.push((id(*a), id(*b))),
                _ => {}
            }
        }
        for pairs in [&mut t.sub_class, &mut t.sub_prop] {
            // scm-sco / scm-spo: a chain of two pairs is a pair, except
            // back to where it started.
            loop {
                let more: Vec<(Id, Id)> = pairs
                    .iter()
                    .flat_map(|&(a, b)| {
                        pairs
                            .range((b, 0)..=(b, Id::MAX))
                            .map(move |&(_, c)| (a, c))
                    })
                    .filter(|&(a, c)| a != c && !pairs.contains(&(a, c)))
                    .collect();
                if more.is_empty() {
                    break;
                }
                pairs.extend(more);
            }
        }
        t
    }
}

/// One round over a fixed set of facts.
struct Round<'f> {
    facts: &'f BTreeSet<Triple>,
    tbox: &'f Tbox,
    graph: &'f Graph,
    ids: &'f [TermId],
    rdf_type: Id,
    same_as: Id,
    nothing: Option<Id>,
}

impl Round<'_> {
    fn objects(&self, s: Id, p: Id) -> impl Iterator<Item = Id> + '_ {
        self.facts.range([s, p, 0]..=[s, p, Id::MAX]).map(|t| t[2])
    }

    fn has(&self, t: Triple) -> bool {
        self.facts.contains(&t)
    }

    fn holds(&self, x: Id, c: &Class) -> bool {
        match c {
            Class::Named(c) => self.has([x, self.rdf_type, *c]),
            Class::And(cs) => cs.iter().all(|c| self.holds(x, c)),
            Class::Or(cs) => cs.iter().any(|c| self.holds(x, c)),
            Class::Some(p, f) => self.objects(x, *p).any(|y| self.holds(y, f)),
            Class::Value(p, v) => self.has([x, *p, *v]),
            Class::OneOf(members) => members.contains(&x),
            Class::All(..) | Class::Not(_) => false,
        }
    }

    /// What `x ∈ c` entails: triples, and the individuals found in a
    /// class as well as in its complement (cls-com).
    fn apply(&self, x: Id, c: &Class, out: &mut Vec<Triple>, clashes: &mut Vec<Id>) {
        match c {
            Class::Named(c) => out.push([x, self.rdf_type, *c]),
            Class::And(cs) => cs.iter().for_each(|c| self.apply(x, c, out, clashes)),
            Class::Value(p, v) => out.push([x, *p, *v]),
            Class::All(p, f) => {
                for y in self.objects(x, *p) {
                    self.apply(y, f, out, clashes);
                }
            }
            Class::OneOf(members) if members.len() == 1 => out.push([x, self.same_as, members[0]]),
            Class::Not(d) if self.holds(x, d) => clashes.push(x),
            Class::Or(_) | Class::Some(..) | Class::OneOf(_) | Class::Not(_) => {}
        }
    }

    fn is_resource(&self, x: Id) -> bool {
        self.graph.term(self.ids[x as usize]).is_resource()
    }

    /// Every triple any rule derives from the facts, and the
    /// individuals a class axiom or a domain or range puts in a
    /// complement of a class they are in, with the axiom's position.
    fn consequences(&self) -> (Vec<Triple>, BTreeSet<(usize, Id)>) {
        let t = self.tbox;
        let (ty, same) = (self.rdf_type, self.same_as);
        let mut out = Vec::new();
        let mut clashes = BTreeSet::new();
        let mut apply = |axiom: usize, x: Id, c: &Class, out: &mut Vec<Triple>| {
            let mut found = Vec::new();
            self.apply(x, c, out, &mut found);
            clashes.extend(found.into_iter().map(|x| (axiom, x)));
        };
        for &[s, p, o] in self.facts {
            // eq-rep: every triple but a sameAs one holds of an alias.
            if p != same {
                out.extend(self.objects(s, same).map(|a| [a, p, o]));
                out.extend(self.objects(o, same).map(|a| [s, p, a]));
            }
            if p == ty {
                // cax-sco
                out.extend(
                    t.sub_class
                        .iter()
                        .filter(|&&(c, _)| c == o)
                        .map(|&(_, d)| [s, ty, d]),
                );
                continue;
            }
            if p == same {
                // eq-sym, eq-trans
                out.push([o, same, s]);
                out.extend(
                    self.objects(o, same)
                        .filter(|&z| z != s)
                        .map(|z| [s, same, z]),
                );
                continue;
            }
            // prp-spo1, prp-inv, prp-symp, prp-trp
            out.extend(
                t.sub_prop
                    .iter()
                    .filter(|&&(q, _)| q == p)
                    .map(|&(_, r)| [s, r, o]),
            );
            out.extend(
                t.inverse
                    .iter()
                    .filter(|&&(q, _)| q == p)
                    .map(|&(_, r)| [o, r, s]),
            );
            if t.symmetric.contains(&p) {
                out.push([o, p, s]);
            }
            if t.transitive.contains(&p) {
                out.extend(self.objects(o, p).map(|z| [s, p, z]));
            }
            // prp-dom, prp-rng
            for (i, _, c) in t.domain.iter().filter(|(_, q, _)| *q == p) {
                apply(*i, s, c, &mut out);
            }
            for (i, _, c) in t.range.iter().filter(|(_, q, _)| *q == p) {
                apply(*i, o, c, &mut out);
            }
            // prp-fp, prp-ifp
            if t.functional.contains(&p) {
                for o2 in self.objects(s, p) {
                    if o2 != o && self.is_resource(o) && self.is_resource(o2) {
                        out.push([o, same, o2]);
                    }
                }
            }
            if t.inverse_functional.contains(&p) {
                for &[s2, q, o2] in self.facts {
                    if q == p && o2 == o && s2 != s {
                        out.push([s, same, s2]);
                    }
                }
            }
        }
        // Class axioms with a complex side, on every individual.
        for x in self.individuals() {
            for (i, sub, sup) in &t.complex {
                if self.holds(x, sub) {
                    apply(*i, x, sup, &mut out);
                }
            }
        }
        // prp-spo2: every instance of every chain.
        for (chain, q) in &t.chains {
            let mut ends: Vec<(Id, Id)> = self
                .facts
                .iter()
                .filter(|f| f[1] == chain[0])
                .map(|f| (f[0], f[2]))
                .collect();
            for &p in &chain[1..] {
                ends = ends
                    .into_iter()
                    .flat_map(|(x, y)| self.objects(y, p).map(move |z| (x, z)))
                    .collect();
            }
            out.extend(ends.into_iter().map(|(x, z)| [x, *q, z]));
        }
        (out, clashes)
    }

    fn individuals(&self) -> BTreeSet<Id> {
        self.facts.iter().flat_map(|&[s, _, o]| [s, o]).collect()
    }

    fn name(&self, x: Id) -> String {
        self.graph.term_name(self.ids[x as usize])
    }

    /// Every violation of the consistency rules in the facts, given the
    /// complement clashes of their consequences.
    fn inconsistencies(&self, clashes: &BTreeSet<(usize, Id)>) -> Vec<(InconsistencyKind, String)> {
        use InconsistencyKind::*;
        let t = self.tbox;
        let n = |x| self.name(x);
        let mut out = Vec::new();
        for &(_, x) in clashes {
            let detail = format!("{} is an instance of disjoint classes", n(x));
            out.push((DisjointClassesViolation, detail));
        }
        for (a, b) in &t.disjoint_classes {
            for x in self.individuals() {
                if self.holds(x, a) && self.holds(x, b) {
                    let detail = format!("{} is an instance of disjoint classes", n(x));
                    out.push((DisjointClassesViolation, detail));
                }
            }
        }
        for &[x, p, y] in self.facts {
            for &(p1, q) in &t.disjoint_properties {
                if p == p1 && self.has([x, q, y]) {
                    let detail = format!(
                        "disjoint properties {} and {} both relate {} to {}",
                        n(p),
                        n(q),
                        n(x),
                        n(y)
                    );
                    out.push((DisjointPropertiesViolation, detail));
                }
            }
            if p == self.rdf_type && Some(y) == self.nothing {
                out.push((
                    NothingHasInstance,
                    format!("{} is an instance of owl:Nothing", n(x)),
                ));
            }
            if t.irreflexive.contains(&p) && x == y {
                let detail = format!("irreflexive property {} relates {} to itself", n(p), n(x));
                out.push((IrreflexiveViolation, detail));
            }
            if t.asymmetric.contains(&p) && x != y && self.has([y, p, x]) {
                let detail = format!(
                    "asymmetric property {} holds in both directions between {} and {}",
                    n(p),
                    n(x),
                    n(y)
                );
                out.push((AsymmetricViolation, detail));
            }
        }
        for &(a, b) in &t.different {
            if self.has([a, self.same_as, b]) || self.has([b, self.same_as, a]) {
                let detail = format!("{} and {} are both sameAs and differentFrom", n(a), n(b));
                out.push((SameAndDifferent, detail));
            }
        }
        out.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
        out
    }
}

/// Closes `g` in place with the naive fixpoint and returns the
/// inconsistencies of the closure, sorted.
pub fn close(g: &mut Graph) -> Vec<(InconsistencyKind, String)> {
    let tbox = Tbox::of(g);
    let rdf_type = id(g.intern_iri(rdf::TYPE));
    let same_as = id(g.intern_iri(owl::SAME_AS));
    let sco = id(g.intern_iri(rdfs::SUB_CLASS_OF));
    let spo = id(g.intern_iri(rdfs::SUB_PROPERTY_OF));
    let nothing = g.lookup_iri(owl::NOTHING).map(id);
    let ids: Vec<TermId> = g.iter_terms().map(|(t, _)| t).collect();
    let mut facts: BTreeSet<Triple> = g.iter_ids().map(|t| t.map(id)).collect();
    facts.extend(tbox.sub_class.iter().map(|&(a, b)| [a, sco, b]));
    facts.extend(tbox.sub_prop.iter().map(|&(a, b)| [a, spo, b]));
    loop {
        let round = Round {
            facts: &facts,
            tbox: &tbox,
            graph: g,
            ids: &ids,
            rdf_type,
            same_as,
            nothing,
        };
        let (derived, clashes) = round.consequences();
        if derived.iter().all(|t| facts.contains(t)) {
            // A round that derives nothing ran over the closure: its
            // clashes are the closure's.
            let inconsistencies = round.inconsistencies(&clashes);
            for &[s, p, o] in &facts {
                g.insert_ids(ids[s as usize], ids[p as usize], ids[o as usize]);
            }
            return inconsistencies;
        }
        facts.extend(derived);
    }
}
