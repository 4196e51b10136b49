//! Graph statistics for cost-based planning, counted once from a
//! store's sorted runs.
//!
//! The SPARQL planner orders joins by estimated cardinality, which it
//! derives from three families of counters: per-predicate triple counts
//! with distinct-subject/object counts (fan-out estimates for bound
//! subject or object lookups), class-instance counts (exact
//! cardinalities for `?x rdf:type <C>` patterns), and the total triple
//! count. `GraphStats::count` is the one place they are computed: one
//! pass over a store's SPO and POS runs, where each `(s, p)` and each
//! `(p, o)` pair is one contiguous range. Each store counts where its
//! runs are final:
//!
//! - a [`Layer`](crate::Layer) when it is committed;
//! - a [`Segment`](crate::Segment) persists the stats it was written
//!   with (its graph's count, or after a compaction its base's and
//!   layers' folded by [`GraphStats::merged_with`]) and reads them back
//!   at open;
//! - a [`Graph`](crate::Graph) on the first read after its last insert
//!   or removal, so a sealed base counts once;
//! - an [`Overlay`](crate::Overlay) counts its delta on every read,
//!   uncached, and adds its base's counts (no product path plans over
//!   an overlay).
//!
//! Nothing is counted on insert. Distinct counts are exact for a single
//! store. A stack of layers reports the sum of each layer's counts,
//! which can overcount a subject or object present in two layers;
//! estimates only steer join order, so an upper bound is acceptable
//! there.

use std::collections::HashMap;

use crate::intern::TermId;

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

/// Aggregate statistics over one triple store (or one overlay delta),
/// counted by `GraphStats::count`.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    predicates: HashMap<u32, PredicateStats>,
    class_instances: HashMap<u32, u64>,
    rdf_type: Option<TermId>,
    total: u64,
}

impl GraphStats {
    /// Counts a store kept as sorted, deduplicated runs of the same
    /// triples: `spo` as `[s, p, o]` keys, `pos` as `[p, o, s]` keys.
    /// `rdf_type` is `rdf:type`'s id in the store's dictionary, when it
    /// has one. Each run is read once. POS order keeps each predicate's
    /// triples together, each `(p, o)` pair's within them, so a new pair
    /// is a new object of `p` (and, under `rdf:type`, a new class); in
    /// SPO order a new `(s, p)` pair is a new subject of `p`.
    pub(crate) fn count(
        rdf_type: Option<TermId>,
        spo: impl IntoIterator<Item = [u32; 3]>,
        pos: impl IntoIterator<Item = [u32; 3]>,
    ) -> GraphStats {
        let (mut predicates, mut classes) = (Vec::<(u32, PredicateStats)>::new(), Vec::new());
        let (mut total, mut last) = (0, None);
        for [p, o, _] in pos {
            total += 1;
            if predicates.last().is_none_or(|&(q, _)| q != p) {
                predicates.push((p, PredicateStats::default()));
            }
            if let Some((_, e)) = predicates.last_mut() {
                e.triples += 1;
                e.distinct_objects += u64::from(last != Some([p, o]));
            }
            last = Some([p, o]);
            if rdf_type == Some(TermId(p)) {
                match classes.last_mut() {
                    Some((c, n)) if *c == o => *n += 1,
                    _ => classes.push((o, 1)),
                }
            }
        }
        let mut last = None;
        for [s, p, _] in spo {
            if last != Some([s, p]) {
                last = Some([s, p]);
                if let Ok(i) = predicates.binary_search_by_key(&p, |&(q, _)| q) {
                    predicates[i].1.distinct_subjects += 1;
                }
            }
        }
        GraphStats::from_entries(rdf_type, total, predicates, classes)
    }

    /// Total triples counted.
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

    /// The id of `rdf:type` in the counted store's dictionary, when it
    /// has one.
    pub fn rdf_type_id(&self) -> Option<TermId> {
        self.rdf_type
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

    /// Folds `other`'s counters into `self`: a compaction persists its
    /// base's stats folded with each layer's. Distinct counts add, so a
    /// term present in both is double-counted — the result is an upper
    /// bound, as a stack of layers reports it.
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
    use crate::vocab::rdf;

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

    /// A read counts once; every later insert, removal or new term is
    /// seen by the next read.
    #[test]
    fn graph_recounts_after_each_mutation() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/c", "http://e/q", "http://e/b");
        let p = g.lookup_iri("http://e/p").unwrap();
        assert_eq!(g.stats().predicate(p).triples, 1);
        // Known terms only: the insert alone must drop the count.
        g.insert_iris("http://e/c", "http://e/p", "http://e/b");
        assert_eq!(g.stats().predicate(p).distinct_subjects, 2);
        let a = g.lookup_iri("http://e/a").unwrap();
        let b = g.lookup_iri("http://e/b").unwrap();
        g.remove_ids(a, p, b);
        assert_eq!(g.stats().total_triples(), 2);
        assert_eq!(g.stats().rdf_type_id(), None);
        let ty = g.intern_iri(rdf::TYPE);
        assert_eq!(g.stats().rdf_type_id(), Some(ty));
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
}
