//! prp-spo2, the property-chain rule, alone: minimal ontologies whose
//! only axiom is one chain of the shape FEO uses (`p ∘ r ⊑ p`) or a
//! three-step chain, closed from empty and over a closed base with a
//! delta that enters the chain through its left step (a fresh `p`, an
//! old `r`) or its right step (an old `p`, a fresh `r`). Each closure
//! must be the naive oracle's and a hand-written triple set, and with
//! derivations tracked every derived triple must be a prp-spo2
//! conclusion whose premises are an instance of the chain.

mod oracle;

use std::collections::BTreeSet;

use feo_owl::{InferenceResult, MaterializeOptions, Reasoner, ReasonerOptions};
use feo_rdf::turtle::{parse_turtle, parse_turtle_into};
use feo_rdf::{Graph, GraphStore, GraphView, Overlay, TermId};

const PREFIX: &str = "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n@prefix t: <http://t/> .\n";
/// `p ∘ r ⊑ p`.
const TWO_STEPS: &str = "t:p owl:propertyChainAxiom ( t:p t:r ) .\n";
/// `p ∘ r ∘ s ⊑ p`.
const THREE_STEPS: &str = "t:p owl:propertyChainAxiom ( t:p t:r t:s ) .\n";

/// `s p o` triples over `t:`, as Turtle.
fn turtle(triples: &[(&str, &str, &str)]) -> String {
    let lines = triples
        .iter()
        .map(|(s, p, o)| format!("t:{s} t:{p} t:{o} .\n"));
    lines.collect()
}

/// The `t:` local names of `g`'s triples that are not in `asserted`.
fn derived(g: &impl GraphView, asserted: &BTreeSet<String>) -> BTreeSet<String> {
    let local = |id: TermId| {
        g.term(id)
            .to_string()
            .replace("<http://t/", "")
            .replace('>', "")
    };
    (g.iter_ids())
        .map(|[s, p, o]| format!("{} {} {}", local(s), local(p), local(o)))
        .filter(|t| !asserted.contains(t))
        .collect()
}

/// Every derivation is prp-spo2 and its premises walk `chain` from the
/// conclusion's subject to its object.
fn premises_are_chain_instances(g: &impl GraphView, result: &InferenceResult, chain: &[&str]) {
    let id = |name: &str| g.lookup_iri(&format!("http://t/{name}")).expect("named");
    let steps: Vec<TermId> = chain.iter().map(|p| id(p)).collect();
    assert!(!result.derivations.is_empty(), "nothing was derived");
    for ([x, q, z], derivation) in &result.derivations {
        assert_eq!(derivation.rule, "prp-spo2");
        assert_eq!(*q, steps[0], "a chain of this shape implies its first step");
        let premises = &derivation.premises;
        let walked: Vec<TermId> = premises.iter().map(|[_, p, _]| *p).collect();
        assert_eq!(walked, steps, "premises {premises:?}");
        assert_eq!(premises[0][0], *x);
        assert_eq!(premises[premises.len() - 1][2], *z);
        assert!(
            premises.windows(2).all(|w| w[0][2] == w[1][0]),
            "{premises:?}"
        );
    }
}

fn reasoner() -> Reasoner {
    Reasoner::with_options(ReasonerOptions {
        track_derivations: true,
    })
}

/// Closes `axiom` + `abox` from empty.
fn closes_from_empty(axiom: &str, chain: &[&str], abox: &[(&str, &str, &str)], expected: &[&str]) {
    let src = format!("{PREFIX}{axiom}{}", turtle(abox));
    let mut g = Graph::new();
    parse_turtle_into(&src, &mut g, &Default::default()).expect("parses");
    let asserted = derived(&g, &BTreeSet::new());
    let mut reference = g.clone();
    let result = reasoner()
        .materialize(&mut g, &MaterializeOptions::default())
        .expect("unguarded");
    oracle::close(&mut reference);
    assert_eq!(
        derived(&g, &asserted),
        derived(&reference, &asserted),
        "the oracle"
    );
    let expected: BTreeSet<String> = expected.iter().map(|t| t.to_string()).collect();
    assert_eq!(derived(&g, &asserted), expected);
    premises_are_chain_instances(&g, &result, chain);
}

/// Closes `axiom` + `base` from empty, then `delta` over it.
fn closes_a_delta(
    axiom: &str,
    chain: &[&str],
    base: &[(&str, &str, &str)],
    delta: &[(&str, &str, &str)],
    expected: &[&str],
) {
    let src = format!("{PREFIX}{axiom}{}", turtle(base));
    let mut g = Graph::new();
    parse_turtle_into(&src, &mut g, &Default::default()).expect("parses");
    let rules = Reasoner::new().compile(&mut g);
    let opts = MaterializeOptions::with_rules(&rules);
    Reasoner::new()
        .materialize(&mut g, &opts)
        .expect("unguarded");
    let mut reference = g.clone();
    let delta =
        parse_turtle(&format!("{PREFIX}{}", turtle(delta)), &Default::default()).expect("parses");
    let mut world = Overlay::new(&g);
    for triple in &delta {
        world.insert(triple);
        reference.insert(triple);
    }
    let asserted = derived(&world, &BTreeSet::new());
    let result = reasoner()
        .materialize_delta(&mut world, &opts)
        .expect("unguarded");
    oracle::close(&mut reference);
    assert_eq!(
        derived(&world, &asserted),
        derived(&reference, &asserted),
        "the oracle"
    );
    let expected: BTreeSet<String> = expected.iter().map(|t| t.to_string()).collect();
    assert_eq!(derived(&world, &asserted), expected);
    premises_are_chain_instances(&world, &result, chain);
}

#[test]
fn two_step_chain_from_empty() {
    let abox = [
        ("a", "p", "b"),
        ("b", "r", "c"),
        ("c", "r", "d"),
        ("e", "r", "a"),
    ];
    closes_from_empty(TWO_STEPS, &["p", "r"], &abox, &["a p c", "a p d"]);
}

#[test]
fn three_step_chain_from_empty() {
    let abox = [
        ("a", "p", "b"),
        ("b", "r", "c"),
        ("c", "s", "d"),
        ("d", "r", "e"),
        ("e", "s", "f"),
        ("b", "s", "g"),
    ];
    closes_from_empty(THREE_STEPS, &["p", "r", "s"], &abox, &["a p d", "a p f"]);
}

#[test]
fn two_step_chain_delta_through_the_left_step() {
    let base = [("b", "r", "c"), ("c", "r", "d")];
    let delta = [("a", "p", "b")];
    closes_a_delta(TWO_STEPS, &["p", "r"], &base, &delta, &["a p c", "a p d"]);
}

#[test]
fn two_step_chain_delta_through_the_right_step() {
    let base = [("a", "p", "b"), ("b", "r", "c"), ("x", "p", "c")];
    let delta = [("c", "r", "d")];
    closes_a_delta(TWO_STEPS, &["p", "r"], &base, &delta, &["a p d", "x p d"]);
}

#[test]
fn three_step_chain_delta_through_the_left_step() {
    let base = [
        ("b", "r", "c"),
        ("c", "s", "d"),
        ("d", "r", "e"),
        ("e", "s", "f"),
    ];
    let delta = [("a", "p", "b")];
    closes_a_delta(
        THREE_STEPS,
        &["p", "r", "s"],
        &base,
        &delta,
        &["a p d", "a p f"],
    );
}

#[test]
fn three_step_chain_delta_through_the_right_step() {
    let base = [("a", "p", "b"), ("b", "r", "c"), ("d", "r", "e")];
    let delta = [("c", "s", "d"), ("e", "s", "f")];
    closes_a_delta(
        THREE_STEPS,
        &["p", "r", "s"],
        &base,
        &delta,
        &["a p d", "a p f"],
    );
}
