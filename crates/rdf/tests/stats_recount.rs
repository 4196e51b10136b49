//! Differential property test for [`GraphStats`] incremental
//! maintenance: after any interleaved sequence of inserts, removes, and
//! overlay commits (delta absorbed into the base), the incrementally
//! maintained counters must equal a from-scratch recount of the store.

use std::collections::{BTreeMap, BTreeSet};

use feo_rdf::vocab::rdf;
use feo_rdf::{Graph, GraphStore, GraphView, Overlay};
use proptest::prelude::*;

/// A from-scratch recount of everything `GraphStats` tracks, keyed by
/// term id so it can be compared against the incremental counters.
#[derive(Debug, Default, PartialEq, Eq)]
struct Recount {
    total: u64,
    /// predicate → (triples, distinct subjects, distinct objects)
    predicates: BTreeMap<u32, (u64, u64, u64)>,
    /// class → rdf:type triple count
    classes: BTreeMap<u32, u64>,
}

fn recount(g: &Graph) -> Recount {
    let mut per_pred: BTreeMap<u32, (u64, BTreeSet<u32>, BTreeSet<u32>)> = BTreeMap::new();
    let mut classes: BTreeMap<u32, u64> = BTreeMap::new();
    let ty = g.lookup_iri(rdf::TYPE);
    let mut total = 0u64;
    for [s, p, o] in g.iter_ids() {
        total += 1;
        let e = per_pred.entry(p.index() as u32).or_default();
        e.0 += 1;
        e.1.insert(s.index() as u32);
        e.2.insert(o.index() as u32);
        if Some(p) == ty {
            *classes.entry(o.index() as u32).or_insert(0) += 1;
        }
    }
    Recount {
        total,
        predicates: per_pred
            .into_iter()
            .map(|(p, (n, ss, os))| (p, (n, ss.len() as u64, os.len() as u64)))
            .collect(),
        classes,
    }
}

/// Reads the incrementally-maintained stats into the same shape.
fn maintained(g: &Graph) -> Recount {
    let stats = g.stats();
    let mut predicates = BTreeMap::new();
    let mut classes = BTreeMap::new();
    // Probe every term id ever interned; ids are dense so this covers
    // every possible key the stat maps could hold.
    for (id, _) in g.iter_terms() {
        let raw = id.index() as u32;
        let ps = stats.predicate(id);
        if ps.triples > 0 || ps.distinct_subjects > 0 || ps.distinct_objects > 0 {
            predicates.insert(raw, (ps.triples, ps.distinct_subjects, ps.distinct_objects));
        }
        let n = stats.class_instances(id);
        if n > 0 {
            classes.insert(raw, n);
        }
    }
    Recount {
        total: stats.total_triples(),
        predicates,
        classes,
    }
}

/// Small closed vocabularies keep collision rates high enough that the
/// random walk actually exercises duplicate inserts, removals of absent
/// triples, last-subject/last-object transitions, and rdf:type churn.
fn node(i: u64) -> String {
    format!("http://e/n{}", i % 12)
}

fn pred(i: u64, type_bias: bool) -> String {
    if type_bias {
        rdf::TYPE.to_string()
    } else {
        format!("http://e/p{}", i % 4)
    }
}

/// Drives one random interleaving. Ops (from a u64 stream):
/// insert, remove, and "commit" — open an overlay, apply a few inserts
/// there, then merge the delta into the base store (intern spill in
/// order, insert delta), the raw-graph analogue of what the epoch
/// ledger freezes into a layer on `EngineBase::commit`.
fn run_walk(ops: &[u64]) -> Graph {
    let mut g = Graph::new();
    let mut i = ops.iter().copied();
    while let Some(op) = i.next() {
        let a = i.next().unwrap_or(1);
        let b = i.next().unwrap_or(2);
        match op % 4 {
            0 | 1 => {
                g.insert_iris(&node(a), &pred(b, a.is_multiple_of(3)), &node(a ^ b));
            }
            2 => {
                let t = feo_rdf::Triple::new(
                    feo_rdf::Term::iri(node(a)),
                    feo_rdf::Term::iri(pred(b, a.is_multiple_of(3))),
                    feo_rdf::Term::iri(node(a ^ b)),
                );
                g.remove(&t);
            }
            _ => {
                let mut ov = Overlay::new(&g);
                for k in 0..(b % 5) {
                    ov.insert_iris(
                        &node(a.wrapping_add(k)),
                        &pred(b.wrapping_add(k), k == 0),
                        // Mix in fresh spill terms so the commit also
                        // exercises dictionary growth on absorb.
                        &format!("http://e/s{}", (a ^ b).wrapping_add(k) % 20),
                    );
                }
                let (spill, delta) = ov.into_delta();
                for term in &spill {
                    g.intern(term);
                }
                for [s, p, o] in delta {
                    g.insert_ids(s, p, o);
                }
            }
        }
    }
    g
}

proptest! {
    #[test]
    fn stats_equal_recount_after_interleaved_ops(
        ops in prop::collection::vec(any::<u64>(), 0..400)
    ) {
        let g = run_walk(&ops);
        prop_assert_eq!(maintained(&g), recount(&g));
        prop_assert!(g.check_index_coherence());
    }

    #[test]
    fn stats_equal_recount_after_remove_everything(
        ops in prop::collection::vec(any::<u64>(), 0..200)
    ) {
        let mut g = run_walk(&ops);
        let all: Vec<_> = g.iter_ids().collect();
        for [s, p, o] in all {
            g.remove_ids(s, p, o);
        }
        let m = maintained(&g);
        prop_assert_eq!(m.total, 0);
        prop_assert!(m.predicates.is_empty());
        prop_assert!(m.classes.is_empty());
    }
}
