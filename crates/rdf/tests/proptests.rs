//! Property-based tests for the RDF substrate: index coherence under
//! arbitrary insert/remove interleavings, Turtle and N-Triples round-trips
//! for arbitrary term shapes, and interner stability.

use std::sync::Arc;

use feo_rdf::disk::segment::write_segment;
use feo_rdf::graph::{Graph, IdTriple};
use feo_rdf::ntriples::{parse_ntriples_into, write_ntriples};
use feo_rdf::term::{Iri, Literal, Term, Triple};
use feo_rdf::turtle::{parse_turtle_into, write_turtle};
use feo_rdf::{BaseStore, GraphStore, GraphView, Ledger, Overlay, Segment};
use proptest::prelude::*;

/// A small pool of IRIs so triples collide often enough to exercise
/// deduplication and removal.
fn arb_iri() -> impl Strategy<Value = Term> {
    (0u8..12).prop_map(|i| Term::iri(format!("http://example.org/resource/r{i}")))
}

fn arb_literal() -> impl Strategy<Value = Term> {
    prop_oneof![
        // Avoid control chars the escaper does not cover; printable ASCII
        // plus a few multibyte chars is representative.
        "[ -~£é😀]{0,12}".prop_map(Term::simple),
        any::<i64>().prop_map(Term::integer),
        any::<bool>().prop_map(Term::boolean),
        ("[a-z]{1,8}", "[a-z]{2}").prop_map(|(s, tag)| Term::Literal(Literal::lang(s, tag))),
    ]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![arb_iri(), arb_literal()]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_iri(), arb_iri(), arb_object()).prop_map(|(s, p, o)| Triple {
        subject: s,
        predicate: p,
        object: o,
    })
}

/// A term every representation interns but no triple uses.
fn absent() -> Term {
    Term::iri("http://example.org/absent")
}

/// Checks that `view` answers every pattern shape — bound to each
/// stored triple's ids, and to an id no triple uses — with the sorted
/// set a naive filter over `triples` gives, and that `contains_ids`
/// agrees with that filter on the fully bound shape.
fn check_shapes<V: GraphView>(
    name: &str,
    view: &V,
    triples: &[Triple],
) -> Result<(), TestCaseError> {
    let id = |t: &Term| view.lookup(t).expect("every term is interned");
    let mut all: Vec<IdTriple> = triples
        .iter()
        .map(|t| [id(&t.subject), id(&t.predicate), id(&t.object)])
        .collect();
    all.sort_unstable();
    all.dedup();
    prop_assert_eq!(view.len(), all.len(), "{}: len", name);
    let none = id(&absent());
    for key in all.iter().copied().chain([[none; 3]]) {
        for mask in 0..8u8 {
            let bound = |i: usize| (mask & (1 << i) != 0).then_some(key[i]);
            let (s, p, o) = (bound(0), bound(1), bound(2));
            let mut got = view.match_pattern(s, p, o);
            got.sort_unstable();
            let want: Vec<IdTriple> = all
                .iter()
                .copied()
                .filter(|t| (0..3).all(|i| bound(i).is_none_or(|x| t[i] == x)))
                .collect();
            if mask == 7 {
                let [s, p, o] = key;
                prop_assert_eq!(
                    view.contains_ids(s, p, o),
                    !want.is_empty(),
                    "{}: contains_ids on {:?}",
                    name,
                    key
                );
            }
            prop_assert_eq!(got, want, "{}: pattern mask {} on {:?}", name, mask, key);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn indexes_stay_coherent_under_inserts_and_removes(
        ops in prop::collection::vec((arb_triple(), any::<bool>()), 0..120)
    ) {
        let mut g = Graph::new();
        let mut reference: std::collections::BTreeSet<Triple> = Default::default();
        for (t, insert) in ops {
            if insert {
                g.insert(&t);
                reference.insert(t);
            } else {
                g.remove(&t);
                reference.remove(&t);
            }
            prop_assert!(g.check_index_coherence());
        }
        prop_assert_eq!(g.len(), reference.len());
        for t in &reference {
            prop_assert!(g.contains(t));
        }
    }

    #[test]
    fn match_pattern_agrees_with_full_scan(
        triples in prop::collection::vec(arb_triple(), 1..60)
    ) {
        // Every representation holds the same triples, split across its
        // layers: a graph, an overlay over a graph, an overlay over an
        // overlay, ledger views of two layers over a memory and a disk
        // base, and a bare segment.
        let (first, rest) = triples.split_at(triples.len() / 3);
        let (second, third) = rest.split_at(rest.len() / 2);
        let graph_of = |ts: &[Triple]| {
            let mut g = Graph::new();
            g.intern(&absent());
            for t in ts {
                g.insert(t);
            }
            g
        };
        let full = graph_of(&triples);
        let base = graph_of(first);
        check_shapes("graph", &full, &triples)?;

        let mut one = Overlay::new(&base);
        for t in rest {
            one.insert(t);
        }
        check_shapes("overlay", &one, &triples)?;

        let mut inner = Overlay::new(&base);
        for t in second {
            inner.insert(t);
        }
        let mut two = Overlay::new(&inner);
        for t in third {
            two.insert(t);
        }
        check_shapes("overlay over overlay", &two, &triples)?;

        let dir = std::env::temp_dir().join(format!("feo-proptest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (base_path, full_path) = (dir.join("base.feo"), dir.join("full.feo"));
        write_segment(&base_path, &base, base.stats(), 0).unwrap();
        write_segment(&full_path, &full, full.stats(), 0).unwrap();
        let disk = BaseStore::Disk(Arc::new(Segment::open(&base_path, true).unwrap()));
        let stores = [("ledger over memory", BaseStore::Mem(base.clone())), ("ledger over disk", disk)];
        for (name, store) in stores {
            let mut ledger = Ledger::from_base(store);
            for layer in [second, third] {
                let mut ov = Overlay::new(ledger.head_view());
                for t in layer {
                    ov.insert(t);
                }
                let (terms, delta) = ov.into_delta();
                ledger.commit(terms, delta);
            }
            check_shapes(name, &ledger.head_view(), &triples)?;
        }
        check_shapes("segment", &Segment::open(&full_path, true).unwrap(), &triples)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ntriples_round_trip(triples in prop::collection::vec(arb_triple(), 0..50)) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert(t);
        }
        let nt = write_ntriples(&g);
        let mut g2 = Graph::new();
        parse_ntriples_into(&nt, &mut g2, &Default::default()).unwrap();
        prop_assert_eq!(g.len(), g2.len());
        for t in g.iter_triples() {
            prop_assert!(g2.contains(&t));
        }
    }

    #[test]
    fn turtle_round_trip_with_prefixes(triples in prop::collection::vec(arb_triple(), 0..50)) {
        let mut g = Graph::new();
        for t in &triples {
            g.insert(t);
        }
        let ttl = write_turtle(&g, &[("ex", "http://example.org/resource/")]);
        let mut g2 = Graph::new();
        parse_turtle_into(&ttl, &mut g2, &Default::default()).unwrap();
        prop_assert_eq!(g.len(), g2.len());
        for t in g.iter_triples() {
            prop_assert!(g2.contains(&t));
        }
    }

    #[test]
    fn interning_via_graph_is_stable(terms in prop::collection::vec(arb_object(), 1..60)) {
        let mut g = Graph::new();
        let ids: Vec<_> = terms.iter().map(|t| g.intern(t)).collect();
        // Re-interning yields identical ids and resolves to equal terms.
        for (t, &id) in terms.iter().zip(&ids) {
            prop_assert_eq!(g.intern(t), id);
            prop_assert_eq!(g.term(id), t);
            prop_assert_eq!(g.lookup(t), Some(id));
        }
    }

    #[test]
    fn literal_display_parses_back(lit in arb_literal()) {
        // Serialize one triple carrying the literal and parse it back.
        let mut g = Graph::new();
        g.insert_terms(
            Iri::new("http://example.org/s"),
            Iri::new("http://example.org/p"),
            lit.clone(),
        );
        let nt = write_ntriples(&g);
        let mut g2 = Graph::new();
        parse_ntriples_into(&nt, &mut g2, &Default::default()).unwrap();
        let got = g2.iter_triples().next().unwrap().object;
        prop_assert_eq!(got, lit);
    }
}
