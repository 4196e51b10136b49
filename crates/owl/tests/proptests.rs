//! Property tests for the reasoner: idempotence, monotonicity, closure
//! correctness against a reference transitive-closure computation, and
//! soundness of inverse/symmetric rules on random graphs.

use std::collections::{BTreeSet, HashMap};

use feo_owl::Reasoner;
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphStore, GraphView};
use proptest::prelude::*;

const N_CLASSES: u8 = 8;
const N_NODES: u8 = 10;

fn class_iri(i: u8) -> String {
    format!("http://t/C{i}")
}

fn node_iri(i: u8) -> String {
    format!("http://t/n{i}")
}

/// Random schema: subclass edges among N_CLASSES classes.
fn arb_subclass_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..N_CLASSES, 0..N_CLASSES), 0..16)
}

/// Random instance typings.
fn arb_typings() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..N_NODES, 0..N_CLASSES), 0..20)
}

/// Random property edges among nodes.
fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..N_NODES, 0..N_NODES), 0..25)
}

fn build(sub: &[(u8, u8)], typings: &[(u8, u8)], edges: &[(u8, u8)], prop_axioms: &str) -> Graph {
    let mut g = Graph::new();
    for (a, b) in sub {
        g.insert_iris(&class_iri(*a), rdfs::SUB_CLASS_OF, &class_iri(*b));
    }
    for (n, c) in typings {
        g.insert_iris(&node_iri(*n), rdf::TYPE, &class_iri(*c));
    }
    for (x, y) in edges {
        g.insert_iris(&node_iri(*x), "http://t/p", &node_iri(*y));
    }
    match prop_axioms {
        "transitive" => {
            g.insert_iris("http://t/p", rdf::TYPE, owl::TRANSITIVE_PROPERTY);
        }
        "symmetric" => {
            g.insert_iris("http://t/p", rdf::TYPE, owl::SYMMETRIC_PROPERTY);
        }
        "inverse" => {
            g.insert_iris("http://t/p", owl::INVERSE_OF, "http://t/q");
        }
        _ => {}
    }
    g
}

/// Reference: reachability closure over the subclass DAG (may be cyclic).
fn reference_superclasses(sub: &[(u8, u8)]) -> HashMap<u8, BTreeSet<u8>> {
    let mut out: HashMap<u8, BTreeSet<u8>> = HashMap::new();
    for c in 0..N_CLASSES {
        let mut seen = BTreeSet::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            for (a, b) in sub {
                if *a == x && *b != c && seen.insert(*b) {
                    stack.push(*b);
                }
            }
        }
        out.insert(c, seen);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn idempotent(sub in arb_subclass_edges(), ty in arb_typings(), e in arb_edges()) {
        let mut g = build(&sub, &ty, &e, "transitive");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let second = Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        prop_assert_eq!(second.added, 0);
    }

    #[test]
    fn type_closure_matches_reference(sub in arb_subclass_edges(), ty in arb_typings()) {
        let mut g = build(&sub, &ty, &[], "");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let reference = reference_superclasses(&sub);
        let rdf_type = g.lookup_iri(rdf::TYPE).unwrap();
        for (n, c) in &ty {
            for sup in &reference[c] {
                let node = g.lookup_iri(&node_iri(*n)).unwrap();
                let class = g.lookup_iri(&class_iri(*sup)).unwrap();
                prop_assert!(
                    g.contains_ids(node, rdf_type, class),
                    "n{n} should be typed C{sup} (asserted C{c})"
                );
            }
        }
    }

    #[test]
    fn transitive_closure_sound_and_complete(e in arb_edges()) {
        let mut g = build(&[], &[], &e, "transitive");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        // Reference reachability.
        let mut reach: BTreeSet<(u8, u8)> = e.iter().copied().collect();
        loop {
            let mut grew = false;
            let snapshot: Vec<(u8, u8)> = reach.iter().copied().collect();
            for (a, b) in &snapshot {
                for (c, d) in &snapshot {
                    if b == c && reach.insert((*a, *d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let p = g.lookup_iri("http://t/p").unwrap();
        // Completeness.
        for (a, b) in &reach {
            let x = g.lookup_iri(&node_iri(*a)).unwrap();
            let y = g.lookup_iri(&node_iri(*b)).unwrap();
            prop_assert!(g.contains_ids(x, p, y), "missing {a}->{b}");
        }
        // Soundness: every derived p-edge is in the reference closure.
        for [s, _, o] in g.match_pattern(None, Some(p), None) {
            let sn: u8 = g.term_name(s).trim_start_matches('n').parse().unwrap();
            let on: u8 = g.term_name(o).trim_start_matches('n').parse().unwrap();
            prop_assert!(reach.contains(&(sn, on)), "unsound edge {sn}->{on}");
        }
    }

    #[test]
    fn symmetric_rule_sound(e in arb_edges()) {
        let mut g = build(&[], &[], &e, "symmetric");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let p = g.lookup_iri("http://t/p").unwrap();
        let mut expected: BTreeSet<(feo_rdf::TermId, feo_rdf::TermId)> = BTreeSet::new();
        for [s, _, o] in g.match_pattern(None, Some(p), None) {
            expected.insert((s, o));
        }
        for &(s, o) in &expected {
            prop_assert!(expected.contains(&(o, s)), "missing mirror edge");
        }
    }

    #[test]
    fn inverse_rule_bijective(e in arb_edges()) {
        let mut g = build(&[], &[], &e, "inverse");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let p = g.lookup_iri("http://t/p").unwrap();
        let q = g.lookup_iri("http://t/q");
        let p_edges: BTreeSet<_> = g
            .match_pattern(None, Some(p), None)
            .into_iter()
            .map(|t| (t[0], t[2]))
            .collect();
        if let Some(q) = q {
            let q_edges: BTreeSet<_> = g
                .match_pattern(None, Some(q), None)
                .into_iter()
                .map(|t| (t[2], t[0]))
                .collect();
            prop_assert_eq!(p_edges, q_edges, "q must be exactly p-inverse");
        } else {
            prop_assert!(e.is_empty());
        }
    }

    /// Monotonicity on random graphs: derived triples survive additions.
    #[test]
    fn monotone(sub in arb_subclass_edges(), ty in arb_typings(), extra in (0..N_NODES, 0..N_CLASSES)) {
        let mut small = build(&sub, &ty, &[], "");
        Reasoner::new().materialize(&mut small, &Default::default()).expect("materialize");

        let mut ty_big = ty.clone();
        ty_big.push(extra);
        let mut big = build(&sub, &ty_big, &[], "");
        Reasoner::new().materialize(&mut big, &Default::default()).expect("materialize");

        for t in small.iter_triples() {
            prop_assert!(big.contains(&t));
        }
    }
}
