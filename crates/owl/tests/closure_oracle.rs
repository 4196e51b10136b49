//! `Reasoner::materialize` against the naive fixpoint in `oracle/`, on
//! small generated ontologies: the subclass edges, typings and property
//! edges of `proptests.rs`, plus a random draw of the other axioms
//! `feo-owl` implements. The engine must derive exactly the oracle's
//! closure and report exactly its inconsistencies.
//!
//! The same generator checks goal-directed closure: over a closed
//! ontology, a random ABox delta closed under the rules relevant to a
//! random read set must give, on that read set, exactly what the delta
//! closed under every rule gives.

mod oracle;

use std::collections::BTreeSet;

use feo_owl::{CompiledRules, MaterializeOptions, ReadSet, Reasoner};
use feo_rdf::turtle::{parse_turtle, parse_turtle_into};
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphStore, GraphView, Overlay, TermId};
use proptest::prelude::*;

const N_CLASSES: u8 = 6;
const N_NODES: u8 = 8;
/// Properties `t:p`, `t:q`, `t:r`.
const PROPERTIES: [&str; 3] = ["p", "q", "r"];
/// What a delta edge or a read set can name besides them.
const SAME_AS: u8 = 3;
const RDF_TYPE: u8 = 3;

/// The axiom kinds the oracle knows; the relevance tests also draw a
/// range that is a universal and a singleton enumeration (cls-oo).
const ORACLE_KINDS: u8 = 21;
const KINDS: u8 = 23;

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
        20 => "t:r a owl:InverseFunctionalProperty .".into(),
        21 => format!(
            "t:q rdfs:range [ a owl:Restriction ; owl:onProperty t:p ; owl:allValuesFrom {cj} ] ."
        ),
        _ => format!("{ci} rdfs:subClassOf [ owl:oneOf ( {nk} ) ] ."),
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

/// A delta of typings and edges over `t:p`, `t:q`, `t:r` and
/// `owl:sameAs`, as Turtle.
fn delta(typings: &[(u8, u8)], edges: &[(u8, u8, u8)]) -> String {
    let mut src = format!("@prefix t: <http://t/> .\n@prefix owl: <{}> .\n", owl::NS);
    for (n, c) in typings {
        src.push_str(&format!("t:n{n} a t:C{c} .\n"));
    }
    for &(x, p, y) in edges {
        let p = match p {
            SAME_AS => "owl:sameAs".to_string(),
            p => format!("t:{}", PROPERTIES[p as usize]),
        };
        src.push_str(&format!("t:n{x} {p} t:n{y} .\n"));
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

/// Predicates (`RDF_TYPE` for every typing) and classes read.
type Reads = (Vec<u8>, Vec<u8>);

/// Closes `src`, then closes `delta` over it under every rule and,
/// for each read set, under the rules relevant to it; `Err` describes
/// the first difference on what is read, or a triple only the relevant
/// rules derive.
fn relevant_rules_match_on_the_read_set(
    src: &str,
    delta: &str,
    read_sets: &[Reads],
) -> Result<(), String> {
    let mut g = Graph::new();
    parse_turtle_into(src, &mut g, &Default::default()).map_err(|e| e.to_string())?;
    let rules = CompiledRules::compile(&mut g);
    let reasoner = Reasoner::new();
    reasoner
        .materialize(&mut g, &MaterializeOptions::with_rules(&rules))
        .map_err(|e| e.to_string())?;
    let delta = parse_turtle(delta, &Default::default()).map_err(|e| e.to_string())?;
    let close = |rules: &CompiledRules| -> Result<Vec<(TermId, TermId, String)>, String> {
        let mut world = Overlay::new(&g);
        for triple in &delta {
            world.insert(triple);
        }
        reasoner
            .materialize_delta(&mut world, &MaterializeOptions::with_rules(rules))
            .map_err(|e| e.to_string())?;
        let render = |[s, p, o]: [TermId; 3]| {
            let triple = format!("{} {} {}", world.term(s), world.term(p), world.term(o));
            (p, o, triple)
        };
        Ok(world.iter_ids().map(render).collect())
    };
    let full = close(&rules)?;
    let rdf_type = g.lookup_iri(rdf::TYPE);
    let iri = |name: String| g.lookup_iri(&format!("http://t/{name}"));
    for (predicates, classes) in read_sets {
        let mut reads = ReadSet::default();
        for &p in predicates {
            let id = match p {
                RDF_TYPE => rdf_type,
                p => iri(PROPERTIES[p as usize].to_string()),
            };
            reads.predicates.extend(id);
        }
        reads
            .classes
            .extend(classes.iter().filter_map(|c| iri(format!("C{c}"))));
        let seen = |closure: &[(TermId, TermId, String)]| -> BTreeSet<String> {
            (closure.iter())
                .filter(|(p, o, _)| {
                    reads.predicates.contains(p)
                        || Some(*p) == rdf_type && reads.classes.contains(o)
                })
                .map(|(_, _, triple)| triple.clone())
                .collect()
        };
        let relevant = close(&rules.relevant_to(&reads))?;
        let (want, got) = (seen(&full), seen(&relevant));
        if want != got {
            return Err(format!(
                "reads {predicates:?} {classes:?}: only every rule {:?}, only the relevant rules {:?}",
                want.difference(&got).collect::<Vec<_>>(),
                got.difference(&want).collect::<Vec<_>>()
            ));
        }
        let all: BTreeSet<&String> = full.iter().map(|(_, _, t)| t).collect();
        let unsound: Vec<_> = (relevant.iter())
            .filter(|(_, _, t)| !all.contains(t))
            .collect();
        if !unsound.is_empty() {
            return Err(format!("only the relevant rules derive {unsound:?}"));
        }
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
        axioms in prop::collection::vec((0..ORACLE_KINDS, 0..N_CLASSES, 0..N_CLASSES, 0..N_NODES), 0..7),
    ) {
        let src = ontology(&sub, &typings, &edges, &axioms);
        if let Err(diff) = engine_matches_oracle(&src) {
            prop_assert!(false, "{diff}\n{src}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn relevant_rules_close_a_delta_like_every_rule_on_the_read_set(
        sub in prop::collection::vec((0..N_CLASSES, 0..N_CLASSES), 0..10),
        typings in prop::collection::vec((0..N_NODES, 0..N_CLASSES), 0..12),
        edges in prop::collection::vec((0..N_NODES, 0..3u8, 0..N_NODES), 0..16),
        axioms in prop::collection::vec((0..KINDS, 0..N_CLASSES, 0..N_CLASSES, 0..N_NODES), 0..7),
        delta_typings in prop::collection::vec((0..N_NODES, 0..N_CLASSES), 0..4),
        delta_edges in prop::collection::vec((0..N_NODES, 0..4u8, 0..N_NODES), 0..5),
        predicates in prop::collection::vec(0..4u8, 0..3),
        classes in prop::collection::vec(0..N_CLASSES, 0..3),
    ) {
        let src = ontology(&sub, &typings, &edges, &axioms);
        let delta = delta(&delta_typings, &delta_edges);
        let read_sets = [(predicates, classes)];
        if let Err(diff) = relevant_rules_match_on_the_read_set(&src, &delta, &read_sets) {
            prop_assert!(false, "{diff}\n{src}\ndelta:\n{delta}");
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
    for kind in 0..ORACLE_KINDS {
        let axioms = [(kind, 1, 2, 3)];
        let src = ontology(&[(0, 1), (1, 2)], &typings, &edges, &axioms);
        if let Err(diff) = engine_matches_oracle(&src) {
            panic!("axiom kind {kind}: {diff}\n{src}");
        }
    }
}

/// Every pair of axiom kinds, read through each predicate and each
/// class alone, on a sparse ABox (where an edge the delta derives is
/// still new) and a delta with and without `owl:sameAs`.
#[test]
fn every_pair_of_axiom_kinds_closes_a_delta_like_every_rule_on_the_read_set() {
    let typings: Vec<(u8, u8)> = (0..N_NODES).map(|n| (n, n % N_CLASSES)).collect();
    let edges = [
        (0, 0, 2),
        (3, 0, 4),
        (1, 1, 3),
        (6, 1, 7),
        (4, 2, 1),
        (7, 2, 0),
    ];
    let edges_in = [(2, 0, 5), (5, 1, 0), (6, 1, 2), (7, 2, 1)];
    let deltas = [
        delta(&[(3, 0), (5, 4)], &edges_in),
        delta(&[], &[(4, SAME_AS, 6)]),
    ];
    let read_sets: Vec<Reads> = (0..=RDF_TYPE)
        .map(|p| (vec![p], vec![]))
        .chain((0..N_CLASSES).map(|c| (vec![], vec![c])))
        .collect();
    for a in 0..KINDS {
        for b in 0..KINDS {
            let axioms = [(a, 1, 2, 3), (b, 2, 4, 5)];
            let src = ontology(&[(0, 1), (1, 2)], &typings, &edges, &axioms);
            for delta in &deltas {
                if let Err(diff) = relevant_rules_match_on_the_read_set(&src, delta, &read_sets) {
                    panic!("kinds {a} {b}: {diff}\n{src}\ndelta:\n{delta}");
                }
            }
        }
    }
}

/// A complement applied to an individual that is in the complemented
/// class is a contradiction (cls-com), reported as a disjointness
/// violation: on the right of a subclass axiom, around an existential,
/// under a universal, and as a domain or a range.
#[test]
fn a_complement_superclass_is_inconsistent() {
    use feo_owl::InconsistencyKind;
    let typings = [(0, 1), (0, 2), (1, 3), (2, 2)];
    let edges = [(0, 0, 1), (0, 0, 2), (3, 1, 0)];
    let some_p_c3 = "[ a owl:Restriction ; owl:onProperty t:p ; owl:someValuesFrom t:C3 ]";
    let shapes = [
        "t:C1 rdfs:subClassOf [ owl:complementOf t:C2 ] .".to_string(),
        format!("t:C1 rdfs:subClassOf [ owl:complementOf {some_p_c3} ] ."),
        "t:C1 rdfs:subClassOf [ a owl:Restriction ; owl:onProperty t:p ;\n\
           owl:allValuesFrom [ owl:complementOf t:C2 ] ] ."
            .to_string(),
        "t:p rdfs:domain [ owl:complementOf t:C2 ] .".to_string(),
        "t:q rdfs:range [ owl:complementOf t:C1 ] .".to_string(),
    ];
    for shape in shapes {
        let src = ontology(&[], &typings, &edges, &[]) + &shape;
        if let Err(diff) = engine_matches_oracle(&src) {
            panic!("{diff}\n{src}");
        }
        let mut g = Graph::new();
        parse_turtle_into(&src, &mut g, &Default::default()).expect("parses");
        let result = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("unguarded closure cannot trip");
        let kinds: Vec<_> = result.inconsistencies.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            [InconsistencyKind::DisjointClassesViolation],
            "{src}"
        );
    }
}
