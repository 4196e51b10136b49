//! Term interning: maps [`Term`]s to dense `u32` ids.
//!
//! All graph storage and all SPARQL/reasoner joins operate on `TermId`s, so
//! equality is a word compare and triples fit in 12 bytes. Ids are stable
//! for the lifetime of the interner (terms are never evicted), which lets
//! downstream layers cache vocabulary ids.

use std::collections::HashMap;

use crate::term::Term;

/// A dense handle for an interned [`Term`]. Only meaningful together with
/// the [`Interner`] (or [`crate::graph::Graph`]) that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The raw index. Exposed for dense side-tables keyed by term id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional Term ↔ TermId dictionary. Ids are dense from a
/// first id: 0 for a graph's own dictionary, the term count of what
/// lies beneath for a dictionary layered over another (an overlay's
/// spill, a committed layer's terms).
#[derive(Debug, Default, Clone)]
pub struct Interner {
    first: usize,
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

impl Interner {
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty dictionary whose first id is `first`.
    pub(crate) fn starting_at(first: usize) -> Self {
        Interner {
            first,
            ..Interner::default()
        }
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> TermId {
        match self.ids.get(term) {
            Some(&id) => id,
            None => self.intern_owned(term.clone()),
        }
    }

    /// Interns an owned term without cloning when it is new.
    pub fn intern_owned(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.ids.get(&term) {
            return id;
        }
        let raw = self.first + self.terms.len();
        let id = TermId(u32::try_from(raw).expect("interner overflow: >4G terms"));
        self.terms.push(term.clone());
        self.ids.insert(term, id);
        id
    }

    /// Looks up an already-interned term.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Resolves an id back to its term.
    ///
    /// # Panics
    /// Panics if `id` did not come from this interner.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index() - self.first]
    }

    /// The first id this dictionary hands out.
    pub(crate) fn first(&self) -> usize {
        self.first
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The interned terms in id order: term `i` has id `first() + i`.
    pub(crate) fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The interned terms in id order, consuming the dictionary.
    pub(crate) fn into_terms(self) -> Vec<Term> {
        self.terms
    }

    /// Iterates over all (id, term) pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId((self.first + i) as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Literal, Term};

    #[test]
    fn interning_is_idempotent() {
        let mut d = Interner::new();
        let a1 = d.intern(&Term::iri("http://e/a"));
        let a2 = d.intern(&Term::iri("http://e/a"));
        let b = d.intern(&Term::iri("http://e/b"));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lookup_and_resolve_round_trip() {
        let mut d = Interner::new();
        let t = Term::Literal(Literal::lang("bonjour", "fr"));
        let id = d.intern(&t);
        assert_eq!(d.lookup(&t), Some(id));
        assert_eq!(d.term(id), &t);
        assert_eq!(d.lookup(&Term::simple("bonjour")), None);
    }

    #[test]
    fn distinct_literal_forms_get_distinct_ids() {
        let mut d = Interner::new();
        let plain = d.intern(&Term::simple("42"));
        let typed = d.intern(&Term::integer(42));
        assert_ne!(plain, typed);
    }

    #[test]
    fn a_layered_dictionary_starts_at_its_first_id() {
        let mut d = Interner::starting_at(7);
        let a = d.intern(&Term::iri("http://e/a"));
        assert_eq!(a.index(), 7);
        assert_eq!(d.term(a), &Term::iri("http://e/a"));
        assert_eq!(d.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![a]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Interner::new();
        let ids: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|l| d.intern(&Term::iri(format!("http://e/{l}"))))
            .collect();
        let seen: Vec<_> = d.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, seen);
    }
}
