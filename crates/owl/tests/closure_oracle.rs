//! `Reasoner::materialize` against the naive fixpoint in `oracle/`, on
//! small generated ontologies: the subclass edges, typings and property
//! edges of `proptests.rs`, plus a random draw of the other axioms
//! `feo-owl` implements. The engine must derive exactly the oracle's
//! closure and report exactly its inconsistencies.

mod oracle;

use std::collections::BTreeSet;

use feo_owl::Reasoner;
use feo_rdf::turtle::parse_turtle_into;
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::Graph;
use proptest::prelude::*;

const N_CLASSES: u8 = 6;
const N_NODES: u8 = 8;
/// Properties `t:p`, `t:q`, `t:r`.
const PROPERTIES: [&str; 3] = ["p", "q", "r"];

/// One axiom of kind `kind` over classes `C{i}`, `C{j}` and nodes
/// `n{k}`, `n{k + 1}`.
fn axiom(kind: u8, i: u8, j: u8, k: u8) -> String {
    let (ci, cj) = (format!("t:C{i}"), format!("t:C{j}"));
    let (nk, nl) = (format!("t:n{k}"), format!("t:n{}", (k + 1) % N_NODES));
    let some = |p: &str, c: &str| {
        format!("[ a owl:Restriction ; owl:onProperty t:{p} ; owl:someValuesFrom {c} ]")
    };
    match kind {
        0 => "t:p a owl:TransitiveProperty .".into(),
        1 => "t:q a owl:SymmetricProperty .".into(),
        2 => "t:p owl:inverseOf t:q .".into(),
        3 => format!("t:p rdfs:domain {ci} ."),
        4 => format!("t:q rdfs:range {cj} ."),
        5 => "t:p rdfs:subPropertyOf t:r .".into(),
        6 => "t:r owl:propertyChainAxiom ( t:p t:q ) .".into(),
        7 => format!("{ci} owl:equivalentClass {} .", some("p", &cj)),
        8 => format!(
            "{ci} owl:equivalentClass [ a owl:Restriction ; owl:onProperty t:q ; owl:hasValue {nk} ] ."
        ),
        9 => format!(
            "{ci} owl:equivalentClass [ owl:intersectionOf ( {cj} {} ) ] .",
            some("q", &ci)
        ),
        10 => format!("{ci} owl:equivalentClass [ owl:unionOf ( {cj} {} ) ] .", some("r", &cj)),
        11 => format!(
            "{ci} rdfs:subClassOf [ a owl:Restriction ; owl:onProperty t:p ; owl:allValuesFrom {cj} ] ."
        ),
        12 => format!("{ci} owl:equivalentClass [ owl:oneOf ( {nk} {nl} ) ] ."),
        13 => "t:q a owl:FunctionalProperty .".into(),
        14 => format!("{ci} owl:disjointWith {cj} ."),
        15 => "t:p a owl:IrreflexiveProperty .".into(),
        16 => "t:q a owl:AsymmetricProperty .".into(),
        17 => "t:p owl:propertyDisjointWith t:r .".into(),
        18 => format!("{nk} owl:sameAs {nl} ."),
        19 => format!("{nk} owl:differentFrom {nl} ."),
        _ => "t:r a owl:InverseFunctionalProperty .".into(),
    }
}

fn ontology(
    sub: &[(u8, u8)],
    typings: &[(u8, u8)],
    edges: &[(u8, u8, u8)],
    axioms: &[(u8, u8, u8, u8)],
) -> String {
    let mut src = format!(
        "@prefix rdf: <{}> .\n@prefix rdfs: <{}> .\n@prefix owl: <{}> .\n@prefix t: <http://t/> .\n",
        rdf::NS,
        rdfs::NS,
        owl::NS
    );
    for (a, b) in sub {
        src.push_str(&format!("t:C{a} rdfs:subClassOf t:C{b} .\n"));
    }
    for (n, c) in typings {
        src.push_str(&format!("t:n{n} a t:C{c} .\n"));
    }
    for (x, p, y) in edges {
        src.push_str(&format!("t:n{x} t:{} t:n{y} .\n", PROPERTIES[*p as usize]));
    }
    for &(kind, i, j, k) in axioms {
        src.push_str(&axiom(kind, i, j, k));
        src.push('\n');
    }
    src
}

fn triples(g: &Graph) -> BTreeSet<String> {
    g.iter_triples().map(|t| t.to_string()).collect()
}

/// Closes `src` with the engine and with the oracle; `Err` describes the
/// first difference.
fn engine_matches_oracle(src: &str) -> Result<(), String> {
    let mut g = Graph::new();
    parse_turtle_into(src, &mut g, &Default::default()).map_err(|e| e.to_string())?;
    let mut reference = g.clone();
    let result = Reasoner::new()
        .materialize(&mut g, &Default::default())
        .map_err(|e| e.to_string())?;
    let expected = oracle::close(&mut reference);
    let (got, want) = (triples(&g), triples(&reference));
    if got != want {
        return Err(format!(
            "closure differs: only the engine {:?}, only the oracle {:?}",
            got.difference(&want).collect::<Vec<_>>(),
            want.difference(&got).collect::<Vec<_>>()
        ));
    }
    let mut reported: Vec<_> = result
        .inconsistencies
        .into_iter()
        .map(|i| (i.kind, i.detail))
        .collect();
    reported.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
    if reported != expected {
        return Err(format!(
            "inconsistencies differ: engine {reported:?}, oracle {expected:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn materialize_matches_the_naive_fixpoint(
        sub in prop::collection::vec((0..N_CLASSES, 0..N_CLASSES), 0..10),
        typings in prop::collection::vec((0..N_NODES, 0..N_CLASSES), 0..12),
        edges in prop::collection::vec((0..N_NODES, 0..3u8, 0..N_NODES), 0..16),
        axioms in prop::collection::vec((0..21u8, 0..N_CLASSES, 0..N_CLASSES, 0..N_NODES), 0..7),
    ) {
        let src = ontology(&sub, &typings, &edges, &axioms);
        if let Err(diff) = engine_matches_oracle(&src) {
            prop_assert!(false, "{diff}\n{src}");
        }
    }
}

/// Every axiom kind at least once, on one ABox.
#[test]
fn every_axiom_kind_matches_the_naive_fixpoint() {
    let edges: Vec<(u8, u8, u8)> = (0..N_NODES)
        .flat_map(|n| {
            [
                (n, 0, (n + 1) % N_NODES),
                (n, 1, (n + 3) % N_NODES),
                (n, 2, n / 2),
            ]
        })
        .collect();
    let typings: Vec<(u8, u8)> = (0..N_NODES).map(|n| (n, n % N_CLASSES)).collect();
    for kind in 0..21u8 {
        let axioms = [(kind, 1, 2, 3)];
        let src = ontology(&[(0, 1), (1, 2)], &typings, &edges, &axioms);
        if let Err(diff) = engine_matches_oracle(&src) {
            panic!("axiom kind {kind}: {diff}\n{src}");
        }
    }
}
