//! Incrementally-maintained graph statistics for cost-based planning.
//!
//! The SPARQL planner orders joins by estimated cardinality, which it
//! derives from three families of counters: per-predicate triple counts
//! with distinct-subject/object counts (fan-out estimates for bound
//! subject or object lookups), class-instance counts (exact
//! cardinalities for `?x rdf:type <C>` patterns), and the total triple
//! count. [`Graph`](crate::Graph) and [`Overlay`](crate::Overlay)
//! maintain a [`GraphStats`] on every insert/remove, so reading a
//! counter is O(1) at plan time — no scan ever runs just to cost one.
//!
//! Distinct counts are exact for a single store. An overlay reports the
//! sum of its base's counts and its delta's counts, which can overcount
//! a subject or object present in both layers; estimates only steer
//! join order, so an upper bound is acceptable there.

use std::collections::HashMap;

use crate::intern::TermId;
use crate::term::Term;
use crate::vocab::rdf;

/// Distribution counters for a single predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of triples with this predicate.
    pub triples: u64,
    /// Distinct subjects among those triples.
    pub distinct_subjects: u64,
    /// Distinct objects among those triples.
    pub distinct_objects: u64,
}

impl PredicateStats {
    /// Average number of objects per bound subject (fan-out of an
    /// `s p ?o` lookup). Zero when the predicate is absent.
    pub fn objects_per_subject(&self) -> f64 {
        if self.distinct_subjects == 0 {
            0.0
        } else {
            self.triples as f64 / self.distinct_subjects as f64
        }
    }

    /// Average number of subjects per bound object (fan-in of a
    /// `?s p o` lookup). Zero when the predicate is absent.
    pub fn subjects_per_object(&self) -> f64 {
        if self.distinct_objects == 0 {
            0.0
        } else {
            self.triples as f64 / self.distinct_objects as f64
        }
    }
}

/// The counters of a stack of layers: the sum of each layer's. Delta
/// triples never duplicate a lower layer's, so `triples` is exact, but
/// a subject or object can recur across layers, so the distinct counts
/// are upper bounds — fine for join-order estimates.
impl std::ops::Add for PredicateStats {
    type Output = PredicateStats;

    fn add(self, other: PredicateStats) -> PredicateStats {
        PredicateStats {
            triples: self.triples + other.triples,
            distinct_subjects: self.distinct_subjects + other.distinct_subjects,
            distinct_objects: self.distinct_objects + other.distinct_objects,
        }
    }
}

/// Aggregate statistics over one triple store (or one overlay delta).
///
/// Maintained by the owning store: [`note_new_term`](Self::note_new_term)
/// on every dictionary allocation, [`record_insert`](Self::record_insert)
/// / [`record_remove`](Self::record_remove) on every index mutation. The
/// first-seen/last-seen flags come from the store, which can read them
/// off its B-tree indexes in O(log n) before mutating.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    predicates: HashMap<u32, PredicateStats>,
    class_instances: HashMap<u32, u64>,
    rdf_type: Option<TermId>,
    total: u64,
}

impl GraphStats {
    pub fn new() -> Self {
        GraphStats::default()
    }

    /// Total triples recorded.
    pub fn total_triples(&self) -> u64 {
        self.total
    }

    /// Counters for one predicate (zeroes when never seen).
    pub fn predicate(&self, p: TermId) -> PredicateStats {
        self.predicates.get(&p.0).copied().unwrap_or_default()
    }

    /// Number of `rdf:type` triples whose object is `class`.
    pub fn class_instances(&self, class: TermId) -> u64 {
        self.class_instances.get(&class.0).copied().unwrap_or(0)
    }

    /// The interned id of `rdf:type` in the owning store's dictionary,
    /// once it has been interned there.
    pub fn rdf_type_id(&self) -> Option<TermId> {
        self.rdf_type
    }

    /// Pre-seeds the `rdf:type` id (an overlay copies it from its base
    /// so base-id type triples in the delta are classified correctly).
    pub fn set_rdf_type_id(&mut self, id: Option<TermId>) {
        if self.rdf_type.is_none() {
            self.rdf_type = id;
        }
    }

    /// Must be called whenever the owning dictionary allocates a fresh
    /// id, so `rdf:type` is recognized without a lookup per insert.
    pub fn note_new_term(&mut self, id: TermId, term: &Term) {
        if self.rdf_type.is_none() {
            if let Term::Iri(iri) = term {
                if iri.as_str() == rdf::TYPE {
                    self.rdf_type = Some(id);
                }
            }
        }
    }

    /// Records a newly-inserted triple. `new_subject` / `new_object` say
    /// whether this is the first triple with this (subject, predicate) /
    /// (predicate, object) pair.
    pub fn record_insert(&mut self, s: TermId, p: TermId, o: TermId, new_sp: bool, new_po: bool) {
        let _ = s;
        self.total += 1;
        let e = self.predicates.entry(p.0).or_default();
        e.triples += 1;
        if new_sp {
            e.distinct_subjects += 1;
        }
        if new_po {
            e.distinct_objects += 1;
        }
        if self.rdf_type == Some(p) {
            *self.class_instances.entry(o.0).or_insert(0) += 1;
        }
    }

    /// Records a removed triple. `last_sp` / `last_po` say whether the
    /// store no longer holds any triple with this (subject, predicate) /
    /// (predicate, object) pair.
    pub fn record_remove(&mut self, s: TermId, p: TermId, o: TermId, last_sp: bool, last_po: bool) {
        let _ = s;
        self.total = self.total.saturating_sub(1);
        if let Some(e) = self.predicates.get_mut(&p.0) {
            e.triples = e.triples.saturating_sub(1);
            if last_sp {
                e.distinct_subjects = e.distinct_subjects.saturating_sub(1);
            }
            if last_po {
                e.distinct_objects = e.distinct_objects.saturating_sub(1);
            }
            if e.triples == 0 {
                self.predicates.remove(&p.0);
            }
        }
        if self.rdf_type == Some(p) {
            if let Some(n) = self.class_instances.get_mut(&o.0) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.class_instances.remove(&o.0);
                }
            }
        }
    }

    /// Forgets everything (overlay `clear_delta`). The `rdf:type` id is
    /// kept: dictionary ids are never evicted, so it stays valid.
    pub fn clear(&mut self) {
        self.predicates.clear();
        self.class_instances.clear();
        self.total = 0;
    }

    /// All per-predicate counters as `(raw id, counters)` pairs sorted
    /// by id — the canonical order used by the on-disk segment format.
    pub fn predicate_entries(&self) -> Vec<(u32, PredicateStats)> {
        let mut v: Vec<(u32, PredicateStats)> =
            self.predicates.iter().map(|(&p, &s)| (p, s)).collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }

    /// All class-instance counters as `(raw id, count)` pairs sorted by
    /// id — the canonical order used by the on-disk segment format.
    pub fn class_entries(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.class_instances.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_unstable_by_key(|&(c, _)| c);
        v
    }

    /// Rebuilds a stats object from serialized counters — the inverse of
    /// [`predicate_entries`](Self::predicate_entries) /
    /// [`class_entries`](Self::class_entries) plus
    /// [`rdf_type_id`](Self::rdf_type_id) and
    /// [`total_triples`](Self::total_triples).
    pub fn from_entries(
        rdf_type: Option<TermId>,
        total: u64,
        predicates: Vec<(u32, PredicateStats)>,
        class_instances: Vec<(u32, u64)>,
    ) -> GraphStats {
        GraphStats {
            predicates: predicates.into_iter().collect(),
            class_instances: class_instances.into_iter().collect(),
            rdf_type,
            total,
        }
    }

    /// Folds `other`'s counters into `self` (overlay reads: base stats
    /// plus delta stats). Distinct counts add, so a term present in
    /// both layers is double-counted — the result is an upper bound.
    pub fn merged_with(&self, other: &GraphStats) -> GraphStats {
        let mut out = self.clone();
        out.total += other.total;
        for (&p, &ps) in &other.predicates {
            let e = out.predicates.entry(p).or_default();
            *e = *e + ps;
        }
        for (&c, &n) in &other.class_instances {
            *out.class_instances.entry(c).or_insert(0) += n;
        }
        if out.rdf_type.is_none() {
            out.rdf_type = other.rdf_type;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::view::{GraphStore, GraphView, Overlay};

    #[test]
    fn graph_maintains_predicate_counters() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/a", "http://e/p", "http://e/c");
        g.insert_iris("http://e/d", "http://e/p", "http://e/c");
        let p = g.lookup_iri("http://e/p").unwrap();
        let ps = g.stats().predicate(p);
        assert_eq!(ps.triples, 3);
        assert_eq!(ps.distinct_subjects, 2);
        assert_eq!(ps.distinct_objects, 2);
        assert_eq!(g.stats().total_triples(), 3);
        // Duplicate insert changes nothing.
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        assert_eq!(g.stats().predicate(p).triples, 3);
    }

    #[test]
    fn graph_counts_class_instances() {
        let mut g = Graph::new();
        g.insert_iris("http://e/x", rdf::TYPE, "http://e/Food");
        g.insert_iris("http://e/y", rdf::TYPE, "http://e/Food");
        g.insert_iris("http://e/y", rdf::TYPE, "http://e/Plant");
        let food = g.lookup_iri("http://e/Food").unwrap();
        let plant = g.lookup_iri("http://e/Plant").unwrap();
        assert_eq!(g.stats().class_instances(food), 2);
        assert_eq!(g.stats().class_instances(plant), 1);
        assert_eq!(g.stats().rdf_type_id(), g.lookup_iri(rdf::TYPE));
    }

    #[test]
    fn removal_reverses_counters() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/a", "http://e/p", "http://e/c");
        g.insert_iris("http://e/x", rdf::TYPE, "http://e/Food");
        let a = g.lookup_iri("http://e/a").unwrap();
        let p = g.lookup_iri("http://e/p").unwrap();
        let b = g.lookup_iri("http://e/b").unwrap();
        let c = g.lookup_iri("http://e/c").unwrap();
        g.remove_ids(a, p, b);
        let ps = g.stats().predicate(p);
        assert_eq!(ps.triples, 1);
        assert_eq!(ps.distinct_subjects, 1, "a still has (a,p,c)");
        assert_eq!(ps.distinct_objects, 1);
        g.remove_ids(a, p, c);
        assert_eq!(g.stats().predicate(p), PredicateStats::default());
        let x = g.lookup_iri("http://e/x").unwrap();
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let food = g.lookup_iri("http://e/Food").unwrap();
        g.remove_ids(x, ty, food);
        assert_eq!(g.stats().class_instances(food), 0);
    }

    #[test]
    fn overlay_sums_base_and_delta() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/x", rdf::TYPE, "http://e/Food");
        let mut ov = Overlay::new(&g);
        ov.insert_iris("http://e/c", "http://e/p", "http://e/d");
        ov.insert_iris("http://e/z", rdf::TYPE, "http://e/Food");
        let p = GraphView::lookup_iri(&ov, "http://e/p").unwrap();
        let food = GraphView::lookup_iri(&ov, "http://e/Food").unwrap();
        assert_eq!(GraphView::predicate_stats(&ov, p).triples, 2);
        assert_eq!(GraphView::class_instance_count(&ov, food), 2);
        // Base untouched.
        assert_eq!(g.stats().predicate(p).triples, 1);
        assert_eq!(g.stats().class_instances(food), 1);
    }

    #[test]
    fn overlay_with_spilled_rdf_type_counts_classes() {
        // Base has no rdf:type at all; the overlay interns it into the
        // spill and must still classify type triples.
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        let mut ov = Overlay::new(&g);
        ov.insert_iris("http://e/x", rdf::TYPE, "http://e/Food");
        let food = GraphView::lookup_iri(&ov, "http://e/Food").unwrap();
        assert_eq!(GraphView::class_instance_count(&ov, food), 1);
    }

    #[test]
    fn clear_delta_resets_overlay_stats() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        let mut ov = Overlay::new(&g);
        ov.insert_iris("http://e/c", "http://e/p", "http://e/d");
        ov.clear_delta();
        let p = GraphView::lookup_iri(&ov, "http://e/p").unwrap();
        assert_eq!(GraphView::predicate_stats(&ov, p).triples, 1);
    }

    #[test]
    fn default_trait_impl_matches_maintained_counters() {
        // A view without an O(1) override (here: a bare closure over
        // match_pattern via the default trait body) must agree with the
        // incremental counters.
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/a", "http://e/p", "http://e/c");
        g.insert_iris("http://e/d", "http://e/q", "http://e/c");
        let p = g.lookup_iri("http://e/p").unwrap();
        let maintained = g.stats().predicate(p);
        let scanned = crate::view::scan_predicate_stats(&g, p);
        assert_eq!(maintained, scanned);
    }
}
