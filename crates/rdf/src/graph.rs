//! An in-memory indexed triple store.
//!
//! Triples are stored as interned-id triples in the crate's one B-tree
//! index: three orderings (SPO, POS, OSP) so that every triple pattern
//! with at least one bound position resolves to a contiguous range scan
//! ([`access_path`](crate::access_path)). This
//! mirrors the classic Hexastore layout trimmed to the three orders
//! sufficient for the access paths our SPARQL evaluator and reasoner use.
//! The read and write surface beyond ids (term-level triples, lists,
//! convenience lookups) comes from [`GraphView`] and [`GraphStore`].

use std::borrow::Cow;

use crate::index::TripleIndex;
use crate::intern::{Interner, TermId};
use crate::stats::GraphStats;
use crate::term::{Term, Triple};
use crate::view::{GraphStore, GraphView};

/// An interned triple: `[subject, predicate, object]` ids.
pub type IdTriple = [TermId; 3];

/// An in-memory RDF graph with its own term dictionary.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    dict: Interner,
    index: TripleIndex,
    next_bnode: u64,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of distinct terms in the dictionary.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Incrementally-maintained statistics (see [`GraphStats`]).
    pub fn stats(&self) -> &GraphStats {
        self.index.stats()
    }

    // ---- dictionary access ----------------------------------------------

    /// Interns a term into this graph's dictionary.
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.index.intern(&mut self.dict, Cow::Borrowed(term))
    }

    /// Looks up a term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.dict.lookup(term)
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// Iterates all `(id, term)` pairs of the dictionary in id order.
    /// Ids are dense, so this enumerates every id the graph has ever
    /// handed out (terms are never evicted).
    pub fn iter_terms(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.dict.iter()
    }

    /// A fresh blank node unique within this graph.
    pub fn fresh_bnode(&mut self) -> TermId {
        loop {
            let label = format!("g{}", self.next_bnode);
            self.next_bnode += 1;
            let t = Term::bnode(label);
            if self.dict.lookup(&t).is_none() {
                return self.intern_owned(t);
            }
        }
    }

    // ---- mutation --------------------------------------------------------

    /// Inserts an interned triple. Returns true when newly added.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        self.index.insert([s, p, o])
    }

    /// Removes an interned triple. Returns true when it was present.
    pub fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        self.index.remove([s, p, o])
    }

    /// Removes a term-level triple if present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        match (
            self.dict.lookup(&triple.subject),
            self.dict.lookup(&triple.predicate),
            self.dict.lookup(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.remove_ids(s, p, o),
            _ => false,
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Does the graph contain this interned triple?
    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.index.contains([s, p, o])
    }

    /// All triples matching a pattern of optionally-bound positions, as
    /// interned id triples. Each returned triple is `[s, p, o]`.
    pub fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        let mut out = Vec::new();
        self.index.matches_into(&mut out, s, p, o);
        out
    }

    /// Iterates all triples as interned ids in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.index.iter()
    }

    /// The triple index, read by the segment writer.
    pub(crate) fn index(&self) -> &TripleIndex {
        &self.index
    }

    /// Checks the three indexes agree; used by tests and debug assertions.
    pub fn check_index_coherence(&self) -> bool {
        self.index.is_coherent()
    }
}

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
    fn term(&self, id: TermId) -> &Term {
        Graph::term(self, id)
    }
    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        Graph::contains_ids(self, s, p, o)
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
}

impl GraphStore for Graph {
    fn intern(&mut self, term: &Term) -> TermId {
        Graph::intern(self, term)
    }
    fn intern_owned(&mut self, term: Term) -> TermId {
        self.index.intern(&mut self.dict, Cow::Owned(term))
    }
    fn fresh_bnode(&mut self) -> TermId {
        Graph::fresh_bnode(self)
    }
    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        Graph::insert_ids(self, s, p, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::vocab::rdf;

    fn g3() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/a", "http://e/p", "http://e/c");
        g.insert_iris("http://e/b", "http://e/q", "http://e/c");
        g
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        assert!(g.insert_iris("http://e/a", "http://e/p", "http://e/b"));
        assert!(!g.insert_iris("http://e/a", "http://e/p", "http://e/b"));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn pattern_matching_all_shapes() {
        let g = g3();
        let a = g.lookup_iri("http://e/a").unwrap();
        let p = g.lookup_iri("http://e/p").unwrap();
        let q = g.lookup_iri("http://e/q").unwrap();
        let b = g.lookup_iri("http://e/b").unwrap();
        let c = g.lookup_iri("http://e/c").unwrap();

        assert_eq!(g.match_pattern(Some(a), Some(p), None).len(), 2);
        assert_eq!(g.match_pattern(Some(a), None, None).len(), 2);
        assert_eq!(g.match_pattern(None, Some(p), None).len(), 2);
        assert_eq!(g.match_pattern(None, Some(q), Some(c)).len(), 1);
        assert_eq!(g.match_pattern(None, None, Some(c)).len(), 2);
        assert_eq!(g.match_pattern(Some(a), None, Some(b)).len(), 1);
        assert_eq!(g.match_pattern(None, None, None).len(), 3);
        assert_eq!(g.match_pattern(Some(a), Some(q), Some(b)).len(), 0);
    }

    #[test]
    fn removal_updates_all_indexes() {
        let mut g = g3();
        let t = Triple::new(
            Term::iri("http://e/a"),
            Term::iri("http://e/p"),
            Term::iri("http://e/b"),
        );
        assert!(g.remove(&t));
        assert!(!g.remove(&t));
        assert_eq!(g.len(), 2);
        assert!(g.check_index_coherence());
        assert!(!g.contains(&t));
    }

    #[test]
    fn objects_and_subjects_helpers() {
        let g = g3();
        let a = g.lookup_iri("http://e/a").unwrap();
        let p = g.lookup_iri("http://e/p").unwrap();
        let c = g.lookup_iri("http://e/c").unwrap();
        assert_eq!(g.objects(a, p).len(), 2);
        assert_eq!(g.subjects(p, c), vec![a]);
    }

    #[test]
    fn list_round_trip() {
        let mut g = Graph::new();
        let items: Vec<_> = (0..5)
            .map(|i| g.intern_iri(&format!("http://e/i{i}")))
            .collect();
        let head = g.write_list(&items);
        assert_eq!(g.read_list(head), Some(items));
    }

    #[test]
    fn empty_list_is_nil() {
        let mut g = Graph::new();
        let head = g.write_list(&[]);
        assert_eq!(g.term(head), &Term::iri(rdf::NIL));
        assert_eq!(g.read_list(head), Some(vec![]));
    }

    #[test]
    fn fresh_bnodes_are_distinct() {
        let mut g = Graph::new();
        let b1 = g.fresh_bnode();
        let b2 = g.fresh_bnode();
        assert_ne!(b1, b2);
    }

    #[test]
    fn instances_of_uses_rdf_type() {
        let mut g = Graph::new();
        g.insert_iris("http://e/apple", rdf::TYPE, "http://e/Food");
        g.insert_iris("http://e/kale", rdf::TYPE, "http://e/Food");
        let food = g.lookup_iri("http://e/Food").unwrap();
        assert_eq!(g.instances_of(food).len(), 2);
    }
}
