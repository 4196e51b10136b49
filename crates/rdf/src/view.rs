//! Read/write abstraction over triple stores: the [`GraphView`] read
//! trait, the [`GraphStore`] mutation trait, and [`Overlay`] — an
//! immutable base snapshot plus a mutable delta.
//!
//! The engine's hot path is "materialize one base graph, then answer
//! many independent questions". Each question adds a handful of ABox
//! triples (the question individual, a hypothesis, a population), reads
//! the result, and must not leak into the next question. `Overlay`
//! gives every question a private write layer over a shared `&Graph`
//! (or any other view) without cloning the base: reads union the base
//! indexes with the delta indexes, writes go to the delta only, and
//! newly seen terms spill into a private dictionary whose ids start at
//! `base.term_count()` so base ids stay valid verbatim.
//!
//! Every view answers the planner's statistics (`predicate_stats`,
//! `class_instance_count`) from [`GraphStats`] its store counted once
//! (see [`crate::stats`]). An `Overlay` counts its delta on each such
//! read and adds its base's answer; the product plans over epoch views
//! only, so only tests pay for that.

use crate::graph::IdTriple;
use crate::index::TripleIndex;
use crate::intern::{Interner, TermId};
use crate::stats::{GraphStats, PredicateStats};
use crate::term::{Iri, Term, Triple};
use crate::vocab::rdf;

/// Read-only view of a triple store with an interned dictionary.
///
/// Implemented by [`Graph`](crate::Graph), [`Overlay`], and references to either, so
/// query-shaped code can run over a plain graph, a snapshot + delta, or
/// `&mut` borrows call sites already hold.
pub trait GraphView {
    /// Number of triples.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct terms in the dictionary. Also the smallest id
    /// not in use: dictionaries are dense, so layering (overlay spills,
    /// evaluator scratch ids) allocates from here up.
    fn term_count(&self) -> usize;

    /// Looks up a term without interning it.
    fn lookup(&self, term: &Term) -> Option<TermId>;

    /// Looks up an IRI string without interning it.
    fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.lookup(&Term::iri(iri))
    }

    /// Resolves an id back to its term.
    fn term(&self, id: TermId) -> &Term;

    /// Pretty form of a term for messages: local name for IRIs, lexical
    /// form for literals, `_:label` for blank nodes.
    fn term_name(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Iri(i) => i.local_name().to_string(),
            Term::BlankNode(b) => format!("_:{}", b.as_str()),
            Term::Literal(l) => l.lexical_form().to_string(),
        }
    }

    /// Does the view contain this interned triple?
    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool;

    /// Does the view contain this term-level triple?
    fn contains(&self, triple: &Triple) -> bool {
        match (
            self.lookup(&triple.subject),
            self.lookup(&triple.predicate),
            self.lookup(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.contains_ids(s, p, o),
            _ => false,
        }
    }

    /// All triples matching a pattern of optionally-bound positions.
    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple>;

    /// Objects of all `s p ?o` triples.
    fn objects(&self, s: TermId, p: TermId) -> Vec<TermId> {
        self.match_pattern(Some(s), Some(p), None)
            .into_iter()
            .map(|t| t[2])
            .collect()
    }

    /// The first object of `s p ?o`, if any.
    fn object(&self, s: TermId, p: TermId) -> Option<TermId> {
        self.match_pattern(Some(s), Some(p), None)
            .first()
            .map(|t| t[2])
    }

    /// Subjects of all `?s p o` triples.
    fn subjects(&self, p: TermId, o: TermId) -> Vec<TermId> {
        self.match_pattern(None, Some(p), Some(o))
            .into_iter()
            .map(|t| t[0])
            .collect()
    }

    /// All subjects with `rdf:type` `class_id`.
    fn instances_of(&self, class_id: TermId) -> Vec<TermId> {
        match self.lookup_iri(rdf::TYPE) {
            Some(ty) => self.subjects(ty, class_id),
            None => Vec::new(),
        }
    }

    /// Distribution counters for one predicate, used by the SPARQL
    /// planner's selectivity estimates. Every store answers from the
    /// [`GraphStats`] it counted; a stack sums its layers'.
    fn predicate_stats(&self, p: TermId) -> PredicateStats;

    /// Number of `rdf:type` triples whose object is `class_id` — the
    /// exact cardinality of a `?x rdf:type <C>` pattern, from the same
    /// counted statistics.
    fn class_instance_count(&self, class_id: TermId) -> u64;

    /// Iterates all triples as interned ids.
    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_>;

    /// Iterates all triples as term-level [`Triple`]s (clones terms).
    fn iter_triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        Box::new(self.iter_ids().map(move |[s, p, o]| Triple {
            subject: self.term(s).clone(),
            predicate: self.term(p).clone(),
            object: self.term(o).clone(),
        }))
    }

    /// Reads an RDF collection (`rdf:first`/`rdf:rest` list) rooted at
    /// `head`, returning its members in order. Returns `None` when the
    /// node is not a well-formed list.
    fn read_list(&self, head: TermId) -> Option<Vec<TermId>> {
        let first = self.lookup_iri(rdf::FIRST)?;
        let rest = self.lookup_iri(rdf::REST)?;
        let nil = self.lookup_iri(rdf::NIL)?;
        let mut members = Vec::new();
        let mut node = head;
        let mut steps = 0usize;
        while node != nil {
            members.push(self.object(node, first)?);
            node = self.object(node, rest)?;
            steps += 1;
            if steps > self.len() + 1 {
                return None; // cyclic list
            }
        }
        Some(members)
    }
}

/// Mutation over a triple store: interning plus insert. Removal is
/// deliberately absent — the reasoner and the explanation pipeline are
/// insert-only, and overlays discard their delta wholesale instead.
pub trait GraphStore: GraphView {
    /// Interns a term into the writable dictionary (the spill, for an
    /// overlay whose base already lacks it).
    fn intern(&mut self, term: &Term) -> TermId;

    /// Interns an owned term; stores override it to skip the clone a
    /// new term costs [`Self::intern`].
    fn intern_owned(&mut self, term: Term) -> TermId {
        self.intern(&term)
    }

    /// Interns an IRI string.
    fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern_owned(Term::iri(iri))
    }

    /// A fresh blank node unique within this store.
    fn fresh_bnode(&mut self) -> TermId;

    /// Inserts an interned triple. Returns true when newly added.
    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool;

    /// Interns the terms of `triple` and inserts it.
    fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.intern(&triple.subject);
        let p = self.intern(&triple.predicate);
        let o = self.intern(&triple.object);
        self.insert_ids(s, p, o)
    }

    /// Convenience: insert three terms.
    fn insert_terms(&mut self, s: impl Into<Term>, p: impl Into<Term>, o: impl Into<Term>) -> bool
    where
        Self: Sized,
    {
        let s = self.intern_owned(s.into());
        let p = self.intern_owned(p.into());
        let o = self.intern_owned(o.into());
        self.insert_ids(s, p, o)
    }

    /// Convenience: insert a triple of IRI strings.
    fn insert_iris(&mut self, s: &str, p: &str, o: &str) -> bool
    where
        Self: Sized,
    {
        self.insert_terms(Iri::new(s), Iri::new(p), Iri::new(o))
    }

    /// Writes `items` as an RDF collection, returning the head node
    /// (`rdf:nil` for an empty list).
    fn write_list(&mut self, items: &[TermId]) -> TermId {
        let first = self.intern_iri(rdf::FIRST);
        let rest = self.intern_iri(rdf::REST);
        let nil = self.intern_iri(rdf::NIL);
        let mut head = nil;
        for &item in items.iter().rev() {
            let node = self.fresh_bnode();
            self.insert_ids(node, first, item);
            self.insert_ids(node, rest, head);
            head = node;
        }
        head
    }
}

// ---- trait impls for references ----------------------------------------

macro_rules! deref_graph_view {
    ($($ref_ty:ty),*) => {$(
        impl<T: GraphView> GraphView for $ref_ty {
            fn len(&self) -> usize { (**self).len() }
            fn term_count(&self) -> usize { (**self).term_count() }
            fn lookup(&self, term: &Term) -> Option<TermId> { (**self).lookup(term) }
            fn term(&self, id: TermId) -> &Term { (**self).term(id) }
            fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
                (**self).contains_ids(s, p, o)
            }
            fn match_pattern(
                &self,
                s: Option<TermId>,
                p: Option<TermId>,
                o: Option<TermId>,
            ) -> Vec<IdTriple> {
                (**self).match_pattern(s, p, o)
            }
            fn predicate_stats(&self, p: TermId) -> PredicateStats {
                (**self).predicate_stats(p)
            }
            fn class_instance_count(&self, class_id: TermId) -> u64 {
                (**self).class_instance_count(class_id)
            }
            fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
                (**self).iter_ids()
            }
        }
    )*};
}

deref_graph_view!(&T, &mut T, std::sync::Arc<T>, Box<T>, std::rc::Rc<T>);

impl<T: GraphStore> GraphStore for &mut T {
    fn intern(&mut self, term: &Term) -> TermId {
        (**self).intern(term)
    }
    fn intern_owned(&mut self, term: Term) -> TermId {
        (**self).intern_owned(term)
    }
    fn fresh_bnode(&mut self) -> TermId {
        (**self).fresh_bnode()
    }
    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        (**self).insert_ids(s, p, o)
    }
}

// ---- Overlay -------------------------------------------------------------

/// An immutable base snapshot plus a private mutable delta.
///
/// `B` is any [`GraphView`] — typically `&Graph` (a session borrowing a
/// shared materialized base) or `Arc<Graph>`. All writes land in the
/// delta; the base is never touched, so any number of overlays can
/// share one base concurrently. Term ids are unified: ids below
/// `base.term_count()` (frozen at construction) resolve in the base,
/// ids at or above it in the overlay's spill dictionary.
#[derive(Debug, Clone)]
pub struct Overlay<B> {
    base: B,
    /// Terms the base lacks, from id `base.term_count()` up.
    spill: Interner,
    /// Triples the base lacks.
    delta: TripleIndex,
    /// Delta triples in insertion order (for semi-naïve seeding).
    log: Vec<IdTriple>,
    next_bnode: u64,
}

impl<B: GraphView> Overlay<B> {
    pub fn new(base: B) -> Self {
        Overlay {
            spill: Interner::starting_at(base.term_count()),
            delta: TripleIndex::default(),
            base,
            log: Vec::new(),
            next_bnode: 0,
        }
    }

    /// The wrapped base view.
    pub fn base(&self) -> &B {
        &self.base
    }

    /// Number of triples in the delta only.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Delta triples in insertion order. Triples already present in the
    /// base never enter the delta.
    pub fn delta_log(&self) -> &[IdTriple] {
        &self.log
    }

    /// Consumes the overlay, returning the spill dictionary (term `i`
    /// holds overlay id `base.term_count() + i`) and the delta triples
    /// in SPO order. Because the base interner also assigns dense
    /// sequential ids, interning the spill terms into the base **in
    /// this order** re-creates the exact same ids — so the returned id
    /// triples (and anything referencing them, e.g. derivation records)
    /// stay valid after merging the delta into the base.
    pub fn into_delta(self) -> (Vec<Term>, Vec<IdTriple>) {
        let ids = self.delta.iter().collect();
        (self.spill.into_terms(), ids)
    }

    /// The delta's statistics, counted afresh, with `rdf:type` as the
    /// base or spill names it.
    fn delta_stats(&self) -> GraphStats {
        self.delta.count_stats(self.lookup_iri(rdf::TYPE))
    }

    /// Drops every delta triple and spill term, returning the overlay to
    /// a pristine view of the base.
    pub fn clear_delta(&mut self) {
        self.spill = Interner::starting_at(self.spill.first());
        self.delta.clear();
        self.log.clear();
        self.next_bnode = 0;
    }
}

impl<B: GraphView> GraphView for Overlay<B> {
    fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    fn term_count(&self) -> usize {
        self.spill.first() + self.spill.len()
    }

    fn lookup(&self, term: &Term) -> Option<TermId> {
        self.base.lookup(term).or_else(|| self.spill.lookup(term))
    }

    fn term(&self, id: TermId) -> &Term {
        if id.index() < self.spill.first() {
            self.base.term(id)
        } else {
            self.spill.term(id)
        }
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.base.contains_ids(s, p, o) || self.delta.contains([s, p, o])
    }

    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        let mut out = self.base.match_pattern(s, p, o);
        if !self.delta.is_empty() {
            self.delta.matches_into(&mut out, s, p, o);
        }
        out
    }

    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        self.base.predicate_stats(p) + self.delta_stats().predicate(p)
    }

    fn class_instance_count(&self, class_id: TermId) -> u64 {
        self.base.class_instance_count(class_id) + self.delta_stats().class_instances(class_id)
    }

    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        Box::new(self.base.iter_ids().chain(self.delta.iter()))
    }
}

impl<B: GraphView> GraphStore for Overlay<B> {
    fn intern(&mut self, term: &Term) -> TermId {
        match self.base.lookup(term) {
            Some(id) => id,
            None => self.spill.intern(term),
        }
    }

    fn intern_owned(&mut self, term: Term) -> TermId {
        match self.base.lookup(&term) {
            Some(id) => id,
            None => self.spill.intern_owned(term),
        }
    }

    fn fresh_bnode(&mut self) -> TermId {
        loop {
            // `s` prefix ("session") keeps overlay bnodes disjoint from the
            // base graph's `g` prefix by construction.
            let label = format!("s{}", self.next_bnode);
            self.next_bnode += 1;
            let t = Term::bnode(label);
            if self.lookup(&t).is_none() {
                return self.intern_owned(t);
            }
        }
    }

    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if self.base.contains_ids(s, p, o) || !self.delta.insert([s, p, o]) {
            return false;
        }
        self.log.push([s, p, o]);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn base() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/b", "http://e/p", "http://e/c");
        g.insert_iris("http://e/a", rdf::TYPE, "http://e/C");
        g
    }

    #[test]
    fn overlay_reads_union_base_and_delta() {
        let g = base();
        let mut ov = Overlay::new(&g);
        assert_eq!(GraphView::len(&ov), 3);
        ov.insert_iris("http://e/c", "http://e/p", "http://e/d");
        assert_eq!(GraphView::len(&ov), 4);
        assert_eq!(ov.delta_len(), 1);

        let p = GraphView::lookup_iri(&ov, "http://e/p").unwrap();
        assert_eq!(GraphView::match_pattern(&ov, None, Some(p), None).len(), 3);
        let c = GraphView::lookup_iri(&ov, "http://e/c").unwrap();
        let d = GraphView::lookup_iri(&ov, "http://e/d").unwrap();
        assert!(GraphView::contains_ids(&ov, c, p, d));
        assert_eq!(GraphView::objects(&ov, c, p), vec![d]);
        // The base graph itself is untouched.
        assert_eq!(g.len(), 3);
        assert!(g.lookup_iri("http://e/d").is_none());
    }

    #[test]
    fn spill_ids_extend_base_id_space() {
        let g = base();
        let n = g.term_count();
        let mut ov = Overlay::new(&g);
        let known = ov.intern(&Term::iri("http://e/a"));
        assert_eq!(known, g.lookup_iri("http://e/a").unwrap());
        let novel = ov.intern(&Term::iri("http://e/new"));
        assert_eq!(novel.index(), n);
        assert_eq!(GraphView::term(&ov, novel), &Term::iri("http://e/new"));
        assert_eq!(GraphView::term_count(&ov), n + 1);
        // Idempotent.
        assert_eq!(ov.intern(&Term::iri("http://e/new")), novel);
        // Base lookups still resolve below the split point.
        assert!(
            GraphView::lookup(&ov, &Term::iri("http://e/b"))
                .unwrap()
                .index()
                < n
        );
    }

    #[test]
    fn inserting_base_triples_is_a_noop() {
        let g = base();
        let mut ov = Overlay::new(&g);
        assert!(!ov.insert_iris("http://e/a", "http://e/p", "http://e/b"));
        assert_eq!(ov.delta_len(), 0);
        assert!(ov.delta_log().is_empty());
        // Duplicate delta inserts dedupe too.
        assert!(ov.insert_iris("http://e/x", "http://e/p", "http://e/y"));
        assert!(!ov.insert_iris("http://e/x", "http://e/p", "http://e/y"));
        assert_eq!(ov.delta_len(), 1);
        assert_eq!(ov.delta_log().len(), 1);
    }

    #[test]
    fn clear_delta_restores_pristine_view() {
        let g = base();
        let mut ov = Overlay::new(&g);
        ov.insert_iris("http://e/x", "http://e/p", "http://e/y");
        let b = ov.fresh_bnode();
        let p = ov.intern_iri("http://e/p");
        let a = GraphView::lookup_iri(&ov, "http://e/a").unwrap();
        ov.insert_ids(b, p, a);
        assert!(GraphView::len(&ov) > 3);
        ov.clear_delta();
        assert_eq!(GraphView::len(&ov), 3);
        assert_eq!(GraphView::term_count(&ov), g.term_count());
        assert!(GraphView::lookup_iri(&ov, "http://e/x").is_none());
    }

    #[test]
    fn overlay_over_overlay_stacks() {
        let g = base();
        let mut inner = Overlay::new(&g);
        inner.insert_iris("http://e/c", "http://e/p", "http://e/d");
        let mut outer = Overlay::new(&inner);
        outer.insert_iris("http://e/d", "http://e/p", "http://e/e");
        assert_eq!(GraphView::len(&outer), 5);
        let d = GraphView::lookup_iri(&outer, "http://e/d").unwrap();
        let p = GraphView::lookup_iri(&outer, "http://e/p").unwrap();
        let e = GraphView::lookup_iri(&outer, "http://e/e").unwrap();
        assert!(GraphView::contains_ids(&outer, d, p, e));
        // Inner delta visible through the outer view.
        let c = GraphView::lookup_iri(&outer, "http://e/c").unwrap();
        assert!(GraphView::contains_ids(&outer, c, p, d));
    }

    #[test]
    fn list_round_trip_through_overlay() {
        let g = base();
        let mut ov = Overlay::new(&g);
        let items: Vec<_> = (0..4)
            .map(|i| ov.intern_iri(&format!("http://e/i{i}")))
            .collect();
        let head = ov.write_list(&items);
        assert_eq!(GraphView::read_list(&ov, head), Some(items));
    }

    #[test]
    fn instances_of_sees_both_layers() {
        let g = base();
        let mut ov = Overlay::new(&g);
        ov.insert_iris("http://e/z", rdf::TYPE, "http://e/C");
        let class = GraphView::lookup_iri(&ov, "http://e/C").unwrap();
        assert_eq!(GraphView::instances_of(&ov, class).len(), 2);
    }
}
