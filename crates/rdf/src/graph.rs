//! An in-memory indexed triple store.
//!
//! Triples are stored as interned-id triples in three B-tree orderings
//! (SPO, POS, OSP) so that every triple pattern with at least one bound
//! position resolves to a contiguous range scan. This mirrors the classic
//! Hexastore layout trimmed to the three orders sufficient for the access
//! paths our SPARQL evaluator and reasoner use.

use std::collections::BTreeSet;

use crate::intern::{Interner, TermId};
use crate::stats::GraphStats;
use crate::term::{Iri, Term, Triple};
use crate::vocab::rdf;

/// An interned triple: `[subject, predicate, object]` ids.
pub type IdTriple = [TermId; 3];

/// An in-memory RDF graph with its own term dictionary.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    dict: Interner,
    spo: BTreeSet<[u32; 3]>,
    pos: BTreeSet<[u32; 3]>,
    osp: BTreeSet<[u32; 3]>,
    next_bnode: u64,
    stats: GraphStats,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Number of distinct terms in the dictionary.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Incrementally-maintained statistics (see [`GraphStats`]).
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    // ---- dictionary access ----------------------------------------------

    /// Interns a term into this graph's dictionary.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let before = self.dict.len();
        let id = self.dict.intern(term);
        if self.dict.len() > before {
            self.stats.note_new_term(id, term);
        }
        id
    }

    /// Interns an owned term without cloning when it is new.
    fn intern_owned(&mut self, term: Term) -> TermId {
        let before = self.dict.len();
        let id = self.dict.intern_owned(term);
        if self.dict.len() > before {
            self.stats.note_new_term(id, self.dict.term(id));
        }
        id
    }

    /// Interns an IRI string.
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern_owned(Term::iri(iri))
    }

    /// Looks up a term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.dict.lookup(term)
    }

    /// Looks up an IRI string without interning it.
    pub fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.dict.lookup(&Term::iri(iri))
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// Pretty form of a term for messages: local name for IRIs, lexical
    /// form for literals, `_:label` for blank nodes.
    pub fn term_name(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Iri(i) => i.local_name().to_string(),
            Term::BlankNode(b) => format!("_:{}", b.as_str()),
            Term::Literal(l) => l.lexical_form().to_string(),
        }
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
        if !self.spo.insert([s.0, p.0, o.0]) {
            return false;
        }
        // First-seen flags for the stats, read off the indexes before
        // the secondary inserts: (s,p) pair is new iff the SPO range for
        // it holds only the triple just added; likewise (p,o) in POS.
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
        self.stats.record_insert(s, p, o, new_sp, new_po);
        true
    }

    /// Interns the terms of `triple` and inserts it.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.intern(&triple.subject);
        let p = self.intern(&triple.predicate);
        let o = self.intern(&triple.object);
        self.insert_ids(s, p, o)
    }

    /// Convenience: insert three terms.
    pub fn insert_terms(
        &mut self,
        s: impl Into<Term>,
        p: impl Into<Term>,
        o: impl Into<Term>,
    ) -> bool {
        let s = self.intern_owned(s.into());
        let p = self.intern_owned(p.into());
        let o = self.intern_owned(o.into());
        self.insert_ids(s, p, o)
    }

    /// Convenience: insert a triple of IRI strings.
    pub fn insert_iris(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.insert_terms(Iri::new(s), Iri::new(p), Iri::new(o))
    }

    /// Removes an interned triple. Returns true when it was present.
    pub fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let removed = self.spo.remove(&[s.0, p.0, o.0]);
        if removed {
            self.pos.remove(&[p.0, o.0, s.0]);
            self.osp.remove(&[o.0, s.0, p.0]);
            let last_sp = self
                .spo
                .range([s.0, p.0, 0]..=[s.0, p.0, u32::MAX])
                .next()
                .is_none();
            let last_po = self
                .pos
                .range([p.0, o.0, 0]..=[p.0, o.0, u32::MAX])
                .next()
                .is_none();
            self.stats.record_remove(s, p, o, last_sp, last_po);
        }
        removed
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

    /// Copies every triple of `other` into `self` (dictionaries may differ;
    /// terms are re-interned).
    pub fn extend_from(&mut self, other: &Graph) {
        for t in other.iter_triples() {
            self.insert(&t);
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Does the graph contain this interned triple?
    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo.contains(&[s.0, p.0, o.0])
    }

    /// Does the graph contain this term-level triple?
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.dict.lookup(&triple.subject),
            self.dict.lookup(&triple.predicate),
            self.dict.lookup(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.contains_ids(s, p, o),
            _ => false,
        }
    }

    /// All triples matching a pattern of optionally-bound positions, as
    /// interned id triples. Each returned triple is `[s, p, o]`.
    pub fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
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

    /// Objects of all `s p ?o` triples.
    pub fn objects(&self, s: TermId, p: TermId) -> Vec<TermId> {
        self.match_pattern(Some(s), Some(p), None)
            .into_iter()
            .map(|t| t[2])
            .collect()
    }

    /// The first object of `s p ?o`, if any (deterministic: lowest id).
    pub fn object(&self, s: TermId, p: TermId) -> Option<TermId> {
        self.match_pattern(Some(s), Some(p), None)
            .first()
            .map(|t| t[2])
    }

    /// Subjects of all `?s p o` triples.
    pub fn subjects(&self, p: TermId, o: TermId) -> Vec<TermId> {
        self.match_pattern(None, Some(p), Some(o))
            .into_iter()
            .map(|t| t[0])
            .collect()
    }

    /// All subjects with `rdf:type` `class_id`.
    pub fn instances_of(&self, class_id: TermId) -> Vec<TermId> {
        match self.lookup_iri(rdf::TYPE) {
            Some(ty) => self.subjects(ty, class_id),
            None => Vec::new(),
        }
    }

    /// Iterates all triples as interned ids in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo
            .iter()
            .map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)])
    }

    /// Iterates all triples as term-level [`Triple`]s (clones terms).
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_ids().map(move |[s, p, o]| Triple {
            subject: self.term(s).clone(),
            predicate: self.term(p).clone(),
            object: self.term(o).clone(),
        })
    }

    /// Reads an RDF collection (`rdf:first`/`rdf:rest` list) rooted at
    /// `head`, returning its members in order. Returns `None` when the node
    /// is not a well-formed list.
    pub fn read_list(&self, head: TermId) -> Option<Vec<TermId>> {
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

    /// Writes `items` as an RDF collection, returning the head node
    /// (`rdf:nil` for an empty list).
    pub fn write_list(&mut self, items: &[TermId]) -> TermId {
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

    /// Checks the three indexes agree; used by tests and debug assertions.
    pub fn check_index_coherence(&self) -> bool {
        if self.spo.len() != self.pos.len() || self.spo.len() != self.osp.len() {
            return false;
        }
        self.spo
            .iter()
            .all(|&[s, p, o]| self.pos.contains(&[p, o, s]) && self.osp.contains(&[o, s, p]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

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
    fn extend_from_reinterns() {
        let mut g1 = g3();
        let g2 = g3();
        g1.extend_from(&g2);
        assert_eq!(g1.len(), 3); // identical triples deduplicate
        let mut g4 = Graph::new();
        g4.insert_iris("http://e/x", "http://e/p", "http://e/y");
        g1.extend_from(&g4);
        assert_eq!(g1.len(), 4);
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
