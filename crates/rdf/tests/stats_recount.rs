//! Differential property tests for [`GraphStats`]: after any
//! interleaved sequence of inserts, removes, and overlay commits (delta
//! absorbed into the base), a graph's counters must equal a naive
//! recount of the store; so must every layer of a ledger chain, the
//! sums its views report, and an overlay's after its delta is cleared
//! and refilled.

use std::collections::{BTreeMap, BTreeSet};

use feo_rdf::vocab::rdf;
use feo_rdf::{
    EpochId, Graph, GraphStats, GraphStore, GraphView, Ledger, LedgerView, Overlay, PredicateStats,
    TermId,
};
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
    let raw = |id: TermId| id.index() as u32;
    let ty = g.lookup_iri(rdf::TYPE).map(raw);
    recount_raw(ty, g.iter_ids().map(|t| t.map(raw)))
}

/// The recount of `triples` (raw ids), with `ty` as `rdf:type`'s id.
fn recount_raw(ty: Option<u32>, triples: impl Iterator<Item = [u32; 3]>) -> Recount {
    let mut per_pred: BTreeMap<u32, (u64, BTreeSet<u32>, BTreeSet<u32>)> = BTreeMap::new();
    let mut classes: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total = 0u64;
    for [s, p, o] in triples {
        total += 1;
        let e = per_pred.entry(p).or_default();
        e.0 += 1;
        e.1.insert(s);
        e.2.insert(o);
        if Some(p) == ty {
            *classes.entry(o).or_insert(0) += 1;
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

    #[test]
    fn ledger_stats_equal_recount(
        ops in prop::collection::vec(any::<u64>(), 0..300),
        typed_base in any::<bool>(),
    ) {
        check_chain(&ops, typed_base)?;
    }
}

/// The counters of `stats` in recount form.
fn counted(stats: &GraphStats) -> Recount {
    Recount {
        total: stats.total_triples(),
        predicates: stats
            .predicate_entries()
            .into_iter()
            .map(|(p, ps)| (p, (ps.triples, ps.distinct_subjects, ps.distinct_objects)))
            .collect(),
        classes: stats.class_entries().into_iter().collect(),
    }
}

/// Inserts one triple per pair of `ops`: an object that is sometimes a
/// term no store below holds yet, and `rdf:type` as the predicate of
/// about a third when `typed`.
fn fill(store: &mut impl GraphStore, ops: &[u64], typed: bool) {
    for pair in ops.chunks(2) {
        let (a, b) = (pair[0], pair.get(1).copied().unwrap_or(2));
        let object = if b.is_multiple_of(2) {
            node(a ^ b)
        } else {
            format!("http://e/s{}", (a ^ b) % 20)
        };
        store.insert_iris(&node(a), &pred(b, typed && a.is_multiple_of(3)), &object);
    }
}

/// `view`'s statistics must be the sum of `stores`' recounts (the base
/// and each layer it stacks), and its class counts exact.
fn check_sums<R: std::borrow::Borrow<Recount>>(
    view: &impl GraphView,
    stores: &[R],
) -> Result<(), TestCaseError> {
    let ty = view.lookup_iri(rdf::TYPE);
    let triples: Vec<[TermId; 3]> = view.iter_ids().collect();
    for &[_, p, o] in &triples {
        let raw = p.index() as u32;
        let sum = stores.iter().fold(PredicateStats::default(), |acc, r| {
            let (triples, distinct_subjects, distinct_objects) =
                r.borrow().predicates.get(&raw).copied().unwrap_or_default();
            acc + PredicateStats {
                triples,
                distinct_subjects,
                distinct_objects,
            }
        });
        prop_assert_eq!(view.predicate_stats(p), sum);
        if Some(p) == ty {
            let instances = triples.iter().filter(|t| t[1] == p && t[2] == o).count();
            prop_assert_eq!(view.class_instance_count(o), instances as u64);
        }
    }
    Ok(())
}

/// Builds a chain from `ops`: a base graph (typed only when
/// `typed_base`, so a layer may be the first to intern `rdf:type`),
/// then one layer per chunk, written by an overlay over the head. Every
/// layer's counters, every epoch's sums, and a head overlay's after
/// `clear_delta` must equal a recount.
fn check_chain(ops: &[u64], typed_base: bool) -> Result<(), TestCaseError> {
    let (base_ops, layer_ops) = ops.split_at(ops.len() / 3);
    let mut base = Graph::new();
    fill(&mut base, base_ops, typed_base);
    let mut ledger = Ledger::new(base);
    for chunk in layer_ops.chunks(8) {
        let mut ov = Overlay::new(ledger.head_view());
        fill(&mut ov, chunk, true);
        let (terms, delta) = ov.into_delta();
        ledger.commit(terms, delta);
    }

    let raw = |id: TermId| id.index() as u32;
    let head = ledger.head_view();
    let ty = head.lookup_iri(rdf::TYPE).map(raw);
    let base = ledger.base().as_graph().expect("a memory base");
    prop_assert_eq!(counted(base.stats()), recount(base));
    let mut stores = vec![recount(base)];
    check_sums(&ledger.view(EpochId(0)).expect("epoch 0"), &stores)?;
    for (k, layer) in ledger.layers().iter().enumerate() {
        let want = recount_raw(ty, layer.spo_raw().iter().copied());
        prop_assert_eq!(counted(layer.stats()), want);
        stores.push(want);
        let view = ledger.view(EpochId(k as u64 + 1)).expect("committed");
        check_sums(&view, &stores)?;
    }

    // An overlay's delta counters must follow inserts made after a read
    // and drop what `clear_delta` drops.
    let mut ov = Overlay::new(head);
    let check_overlay = |ov: &Overlay<LedgerView<'_>>| {
        let ty = ov.lookup_iri(rdf::TYPE).map(raw);
        let delta = recount_raw(ty, ov.delta_log().iter().map(|t| t.map(raw)));
        let mut all: Vec<&Recount> = stores.iter().collect();
        all.push(&delta);
        check_sums(ov, &all)
    };
    // Other pairs than the layers', so most are new to the head.
    let fresh: Vec<u64> = layer_ops.iter().map(|x| x.rotate_left(17)).collect();
    let (before, after) = fresh.split_at(fresh.len() / 2);
    fill(&mut ov, before, true);
    check_overlay(&ov)?;
    ov.clear_delta();
    check_overlay(&ov)?;
    for half in after.chunks(after.len().div_ceil(2).max(1)) {
        fill(&mut ov, half, true);
        check_overlay(&ov)?;
    }
    Ok(())
}
