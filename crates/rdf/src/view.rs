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

use std::collections::{BTreeSet, HashMap};

use crate::graph::{Graph, IdTriple};
use crate::intern::TermId;
use crate::stats::{GraphStats, PredicateStats};
use crate::term::{Iri, Term, Triple};
use crate::vocab::rdf;

/// Computes [`PredicateStats`] by scanning: the fallback used by views
/// with no incrementally-maintained counters.
pub(crate) fn scan_predicate_stats<G: GraphView + ?Sized>(g: &G, p: TermId) -> PredicateStats {
    let matches = g.match_pattern(None, Some(p), None);
    let mut subjects: BTreeSet<u32> = BTreeSet::new();
    let mut objects: BTreeSet<u32> = BTreeSet::new();
    for t in &matches {
        subjects.insert(t[0].0);
        objects.insert(t[2].0);
    }
    PredicateStats {
        triples: matches.len() as u64,
        distinct_subjects: subjects.len() as u64,
        distinct_objects: objects.len() as u64,
    }
}

/// Read-only view of a triple store with an interned dictionary.
///
/// Implemented by [`Graph`], [`Overlay`], and references to either, so
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

    /// Incrementally-maintained whole-view counters, when this view
    /// keeps them. Flat stores ([`Graph`], disk segments, ledger bases)
    /// return theirs; layered views return `None` and instead override
    /// the derived methods to sum per-layer stats.
    fn maintained_stats(&self) -> Option<&GraphStats> {
        None
    }

    /// Distribution counters for one predicate, used by the SPARQL
    /// planner's selectivity estimates. Answered in O(1) from
    /// [`Self::maintained_stats`] when available; the scanning fallback
    /// only runs for views with no maintained counters.
    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        match self.maintained_stats() {
            Some(st) => st.predicate(p),
            None => scan_predicate_stats(self, p),
        }
    }

    /// Number of `rdf:type` triples whose object is `class_id` — the
    /// exact cardinality of a `?x rdf:type <C>` pattern. O(1) wherever
    /// [`Self::maintained_stats`] answers.
    fn class_instance_count(&self, class_id: TermId) -> u64 {
        match self.maintained_stats() {
            Some(st) => st.class_instances(class_id),
            None => self.instances_of(class_id).len() as u64,
        }
    }

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

    /// Reads an RDF collection rooted at `head` (see [`Graph::read_list`]).
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

    /// Interns an IRI string.
    fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern(&Term::iri(iri))
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
        let s = self.intern(&s.into());
        let p = self.intern(&p.into());
        let o = self.intern(&o.into());
        self.insert_ids(s, p, o)
    }

    /// Convenience: insert a triple of IRI strings.
    fn insert_iris(&mut self, s: &str, p: &str, o: &str) -> bool
    where
        Self: Sized,
    {
        self.insert_terms(Iri::new(s), Iri::new(p), Iri::new(o))
    }

    /// Writes `items` as an RDF collection, returning the head node.
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

// ---- trait impls for Graph and references -------------------------------

impl GraphView for Graph {
    fn len(&self) -> usize {
        Graph::len(self)
    }
    fn term_count(&self) -> usize {
        Graph::term_count(self)
    }
    fn lookup(&self, term: &Term) -> Option<TermId> {
        Graph::lookup(self, term)
    }
    fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        Graph::lookup_iri(self, iri)
    }
    fn term(&self, id: TermId) -> &Term {
        Graph::term(self, id)
    }
    fn term_name(&self, id: TermId) -> String {
        Graph::term_name(self, id)
    }
    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        Graph::contains_ids(self, s, p, o)
    }
    fn contains(&self, triple: &Triple) -> bool {
        Graph::contains(self, triple)
    }
    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        Graph::match_pattern(self, s, p, o)
    }
    fn maintained_stats(&self) -> Option<&GraphStats> {
        Some(Graph::stats(self))
    }
    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        Box::new(Graph::iter_ids(self))
    }
    fn read_list(&self, head: TermId) -> Option<Vec<TermId>> {
        Graph::read_list(self, head)
    }
}

impl GraphStore for Graph {
    fn intern(&mut self, term: &Term) -> TermId {
        Graph::intern(self, term)
    }
    fn intern_iri(&mut self, iri: &str) -> TermId {
        Graph::intern_iri(self, iri)
    }
    fn fresh_bnode(&mut self) -> TermId {
        Graph::fresh_bnode(self)
    }
    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        Graph::insert_ids(self, s, p, o)
    }
    fn write_list(&mut self, items: &[TermId]) -> TermId {
        Graph::write_list(self, items)
    }
}

macro_rules! deref_graph_view {
    ($($ref_ty:ty),*) => {$(
        impl<T: GraphView> GraphView for $ref_ty {
            fn len(&self) -> usize { (**self).len() }
            fn term_count(&self) -> usize { (**self).term_count() }
            fn lookup(&self, term: &Term) -> Option<TermId> { (**self).lookup(term) }
            fn lookup_iri(&self, iri: &str) -> Option<TermId> { (**self).lookup_iri(iri) }
            fn term(&self, id: TermId) -> &Term { (**self).term(id) }
            fn term_name(&self, id: TermId) -> String { (**self).term_name(id) }
            fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
                (**self).contains_ids(s, p, o)
            }
            fn contains(&self, triple: &Triple) -> bool { (**self).contains(triple) }
            fn match_pattern(
                &self,
                s: Option<TermId>,
                p: Option<TermId>,
                o: Option<TermId>,
            ) -> Vec<IdTriple> {
                (**self).match_pattern(s, p, o)
            }
            fn maintained_stats(&self) -> Option<&GraphStats> {
                (**self).maintained_stats()
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
            fn read_list(&self, head: TermId) -> Option<Vec<TermId>> {
                (**self).read_list(head)
            }
        }
    )*};
}

deref_graph_view!(&T, &mut T, std::sync::Arc<T>, Box<T>, std::rc::Rc<T>);

impl<T: GraphStore> GraphStore for &mut T {
    fn intern(&mut self, term: &Term) -> TermId {
        (**self).intern(term)
    }
    fn intern_iri(&mut self, iri: &str) -> TermId {
        (**self).intern_iri(iri)
    }
    fn fresh_bnode(&mut self) -> TermId {
        (**self).fresh_bnode()
    }
    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        (**self).insert_ids(s, p, o)
    }
    fn write_list(&mut self, items: &[TermId]) -> TermId {
        (**self).write_list(items)
    }
}

// ---- Overlay -------------------------------------------------------------

/// Matches `[a, b, *]` / `[a, *, *]` / `[*, *, *]` prefixes in a
/// permuted index, mirroring `Graph::match_pattern`'s range scans.
fn range3<'a>(
    set: &'a BTreeSet<[u32; 3]>,
    a: Option<u32>,
    b: Option<u32>,
) -> impl Iterator<Item = &'a [u32; 3]> + 'a {
    let (lo, hi) = match (a, b) {
        (Some(a), Some(b)) => ([a, b, 0], [a, b, u32::MAX]),
        (Some(a), None) => ([a, 0, 0], [a, u32::MAX, u32::MAX]),
        (None, _) => ([0, 0, 0], [u32::MAX, u32::MAX, u32::MAX]),
    };
    set.range(lo..=hi)
}

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
    /// `base.term_count()` at construction, the split point of id space.
    base_terms: u32,
    spill_terms: Vec<Term>,
    spill_ids: HashMap<Term, TermId>,
    spo: BTreeSet<[u32; 3]>,
    pos: BTreeSet<[u32; 3]>,
    osp: BTreeSet<[u32; 3]>,
    /// Delta triples in insertion order (for semi-naïve seeding).
    log: Vec<IdTriple>,
    next_bnode: u64,
    /// Counters over the delta only; reads sum them with the base's.
    delta_stats: GraphStats,
}

impl<B: GraphView> Overlay<B> {
    pub fn new(base: B) -> Self {
        let base_terms = u32::try_from(base.term_count()).expect("interner overflow: >4G terms");
        let mut delta_stats = GraphStats::new();
        delta_stats.set_rdf_type_id(base.lookup_iri(rdf::TYPE));
        Overlay {
            base,
            base_terms,
            spill_terms: Vec::new(),
            spill_ids: HashMap::new(),
            spo: BTreeSet::new(),
            pos: BTreeSet::new(),
            osp: BTreeSet::new(),
            log: Vec::new(),
            next_bnode: 0,
            delta_stats,
        }
    }

    /// The wrapped base view.
    pub fn base(&self) -> &B {
        &self.base
    }

    /// Number of triples in the delta only.
    pub fn delta_len(&self) -> usize {
        self.spo.len()
    }

    /// Delta triples in insertion order. Triples already present in the
    /// base never enter the delta.
    pub fn delta_log(&self) -> &[IdTriple] {
        &self.log
    }

    /// Delta triples in SPO order.
    pub fn delta_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo
            .iter()
            .map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)])
    }

    /// Consumes the overlay, returning the spill dictionary (term `i`
    /// holds overlay id `base_terms + i`) and the delta triples in SPO
    /// order. Because the base interner also assigns dense sequential
    /// ids, interning the spill terms into the base **in this order**
    /// re-creates the exact same ids — so the returned id triples (and
    /// anything referencing them, e.g. derivation records) stay valid
    /// after merging the delta into the base.
    pub fn into_delta(self) -> (Vec<Term>, Vec<IdTriple>) {
        let ids = self
            .spo
            .iter()
            .map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)])
            .collect();
        (self.spill_terms, ids)
    }

    /// Drops every delta triple and spill term, returning the overlay to
    /// a pristine view of the base.
    pub fn clear_delta(&mut self) {
        self.spill_terms.clear();
        self.spill_ids.clear();
        self.spo.clear();
        self.pos.clear();
        self.osp.clear();
        self.log.clear();
        self.next_bnode = 0;
        self.delta_stats.clear();
    }

    fn delta_match(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        let id = |x: TermId| x.0;
        match (s.map(id), p.map(id), o.map(id)) {
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&[s, p, o]) {
                    vec![[TermId(s), TermId(p), TermId(o)]]
                } else {
                    Vec::new()
                }
            }
            (Some(s), p, None) => range3(&self.spo, Some(s), p)
                .map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)])
                .collect(),
            (None, Some(p), o) => range3(&self.pos, Some(p), o)
                .map(|&[p, o, s]| [TermId(s), TermId(p), TermId(o)])
                .collect(),
            (Some(s), None, Some(o)) => range3(&self.osp, Some(o), Some(s))
                .map(|&[o, s, p]| [TermId(s), TermId(p), TermId(o)])
                .collect(),
            (None, None, Some(o)) => range3(&self.osp, Some(o), None)
                .map(|&[o, s, p]| [TermId(s), TermId(p), TermId(o)])
                .collect(),
            (None, None, None) => self
                .spo
                .iter()
                .map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)])
                .collect(),
        }
    }
}

impl<B: GraphView> GraphView for Overlay<B> {
    fn len(&self) -> usize {
        self.base.len() + self.spo.len()
    }

    fn term_count(&self) -> usize {
        self.base_terms as usize + self.spill_terms.len()
    }

    fn lookup(&self, term: &Term) -> Option<TermId> {
        self.base
            .lookup(term)
            .or_else(|| self.spill_ids.get(term).copied())
    }

    fn term(&self, id: TermId) -> &Term {
        if id.0 < self.base_terms {
            self.base.term(id)
        } else {
            &self.spill_terms[(id.0 - self.base_terms) as usize]
        }
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.base.contains_ids(s, p, o) || self.spo.contains(&[s.0, p.0, o.0])
    }

    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        let mut out = self.base.match_pattern(s, p, o);
        if !self.spo.is_empty() {
            out.extend(self.delta_match(s, p, o));
        }
        out
    }

    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        let base = self.base.predicate_stats(p);
        let delta = self.delta_stats.predicate(p);
        // Distinct counts add across layers (delta triples are never
        // duplicates of base triples, but a subject/object can recur),
        // so these are upper bounds — fine for join-order estimates.
        PredicateStats {
            triples: base.triples + delta.triples,
            distinct_subjects: base.distinct_subjects + delta.distinct_subjects,
            distinct_objects: base.distinct_objects + delta.distinct_objects,
        }
    }

    fn class_instance_count(&self, class_id: TermId) -> u64 {
        self.base.class_instance_count(class_id) + self.delta_stats.class_instances(class_id)
    }

    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        Box::new(self.base.iter_ids().chain(self.delta_ids()))
    }
}

impl<B: GraphView> GraphStore for Overlay<B> {
    fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.base.lookup(term) {
            return id;
        }
        if let Some(&id) = self.spill_ids.get(term) {
            return id;
        }
        let raw = self.base_terms as usize + self.spill_terms.len();
        let id = TermId(u32::try_from(raw).expect("interner overflow: >4G terms"));
        self.spill_terms.push(term.clone());
        self.spill_ids.insert(term.clone(), id);
        self.delta_stats.note_new_term(id, term);
        id
    }

    fn fresh_bnode(&mut self) -> TermId {
        loop {
            // `s` prefix ("session") keeps overlay bnodes disjoint from the
            // base graph's `g` prefix by construction.
            let label = format!("s{}", self.next_bnode);
            self.next_bnode += 1;
            let t = Term::bnode(label);
            if self.lookup(&t).is_none() {
                return self.intern(&t);
            }
        }
    }

    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if self.base.contains_ids(s, p, o) {
            return false;
        }
        if !self.spo.insert([s.0, p.0, o.0]) {
            return false;
        }
        let new_sp = self
            .spo
            .range([s.0, p.0, 0]..=[s.0, p.0, u32::MAX])
            .nth(1)
            .is_none();
        let new_po = self
            .pos
            .range([p.0, o.0, 0]..=[p.0, o.0, u32::MAX])
            .next()
            .is_none();
        self.pos.insert([p.0, o.0, s.0]);
        self.osp.insert([o.0, s.0, p.0]);
        self.log.push([s, p, o]);
        self.delta_stats.record_insert(s, p, o, new_sp, new_po);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
