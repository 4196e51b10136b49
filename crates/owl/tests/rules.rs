//! One row per rule of the program `feo-owl` compiles a TBox to, and per
//! rule of its `owl:sameAs` family: a minimal ontology in which that rule
//! alone fires, the triples it derives (the closure less the input) and
//! the inconsistencies it reports, written out by hand. Each row is also
//! closed by the naive fixpoint in `oracle/`, and with derivations
//! tracked every derivation must name the row's rule (see [`recorded`]).

mod oracle;

use std::collections::BTreeSet;

use feo_owl::{Reasoner, ReasonerOptions};
use feo_rdf::turtle::parse_turtle_into;
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphView};

struct Row {
    rule: &'static str,
    ttl: &'static str,
    /// Derived triples as `s p o` local names.
    derived: &'static [&'static str],
    /// Inconsistency details, in reported order.
    violations: &'static [&'static str],
}

const ROWS: &[Row] = &[
    Row {
        rule: "scm-sco",
        ttl: "e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:C .",
        derived: &["A subClassOf C"],
        violations: &[],
    },
    Row {
        rule: "scm-spo",
        ttl: "e:p rdfs:subPropertyOf e:q . e:q rdfs:subPropertyOf e:r .",
        derived: &["p subPropertyOf r"],
        violations: &[],
    },
    Row {
        rule: "cax-sco",
        ttl: "e:A rdfs:subClassOf e:B . e:x a e:A .",
        derived: &["x type B"],
        violations: &[],
    },
    Row {
        rule: "prp-spo1",
        ttl: "e:p rdfs:subPropertyOf e:q . e:x e:p e:y .",
        derived: &["x q y"],
        violations: &[],
    },
    Row {
        rule: "prp-inv",
        ttl: "e:p owl:inverseOf e:q . e:x e:p e:y .",
        derived: &["y q x"],
        violations: &[],
    },
    Row {
        rule: "prp-symp",
        ttl: "e:p a owl:SymmetricProperty . e:x e:p e:y .",
        derived: &["y p x"],
        violations: &[],
    },
    Row {
        rule: "prp-trp",
        ttl: "e:p a owl:TransitiveProperty . e:x e:p e:y . e:y e:p e:z . e:z e:p e:w .",
        derived: &["x p z", "y p w", "x p w"],
        violations: &[],
    },
    Row {
        rule: "prp-dom",
        ttl: "e:p rdfs:domain e:C . e:x e:p e:y .",
        derived: &["x type C"],
        violations: &[],
    },
    Row {
        rule: "prp-rng",
        ttl: "e:p rdfs:range e:C . e:x e:p e:y .",
        derived: &["y type C"],
        violations: &[],
    },
    Row {
        rule: "prp-fp",
        ttl: "e:p a owl:FunctionalProperty . e:s e:p e:a . e:s e:p e:b .",
        derived: &["a sameAs b", "b sameAs a"],
        violations: &[],
    },
    Row {
        rule: "prp-ifp",
        ttl: "e:p a owl:InverseFunctionalProperty . e:a e:p e:o . e:b e:p e:o .",
        derived: &["a sameAs b", "b sameAs a"],
        violations: &[],
    },
    Row {
        rule: "prp-spo2",
        ttl: "e:r owl:propertyChainAxiom ( e:p e:q e:p ) .\n\
              e:x e:p e:y . e:y e:q e:z . e:z e:p e:w .",
        derived: &["x r w"],
        violations: &[],
    },
    Row {
        rule: "cls",
        ttl: "e:C owl:equivalentClass [ owl:intersectionOf ( e:A\n\
                [ a owl:Restriction ; owl:onProperty e:p ; owl:someValuesFrom\n\
                  [ owl:unionOf ( e:D [ owl:oneOf ( e:k ) ] ) ] ] ) ] .\n\
              e:x a e:A ; e:p e:y . e:y a e:D . e:z a e:A ; e:p e:k . e:n e:p e:y .",
        derived: &["x type C", "z type C"],
        violations: &[],
    },
    Row {
        rule: "cls-hv1",
        ttl: "e:C rdfs:subClassOf [ a owl:Restriction ; owl:onProperty e:p ; owl:hasValue e:v ] .\n\
              e:x a e:C .",
        derived: &["x p v"],
        violations: &[],
    },
    Row {
        rule: "cls-oo",
        ttl: "e:C rdfs:subClassOf [ owl:oneOf ( e:x ) ] . e:x a e:C .",
        derived: &["x sameAs x"],
        violations: &[],
    },
    Row {
        rule: "eq-sym",
        ttl: "e:a owl:sameAs e:b .",
        derived: &["b sameAs a"],
        violations: &[],
    },
    Row {
        rule: "eq-trans",
        ttl: "e:a owl:sameAs e:b . e:b owl:sameAs e:a . e:b owl:sameAs e:c . e:c owl:sameAs e:b .",
        derived: &["a sameAs c", "c sameAs a"],
        violations: &[],
    },
    Row {
        rule: "eq-rep-s",
        ttl: "e:a owl:sameAs e:b . e:b owl:sameAs e:a . e:a e:p e:x .",
        derived: &["b p x"],
        violations: &[],
    },
    Row {
        rule: "eq-rep-o",
        ttl: "e:a owl:sameAs e:b . e:b owl:sameAs e:a . e:x e:p e:a .",
        derived: &["x p b"],
        violations: &[],
    },
    Row {
        rule: "cax-dw",
        ttl: "e:A owl:disjointWith [ a owl:Restriction ; owl:onProperty e:p ; owl:someValuesFrom e:B ] .\n\
              e:x a e:A ; e:p e:y . e:y a e:B . e:z a e:A ; e:p e:w .",
        derived: &[],
        violations: &["x is an instance of disjoint classes"],
    },
    Row {
        rule: "cls-com",
        ttl: "e:A rdfs:subClassOf [ owl:complementOf e:B ] . e:x a e:A , e:B . e:y a e:A .",
        derived: &[],
        violations: &["x is an instance of disjoint classes"],
    },
    Row {
        rule: "prp-pdw",
        ttl: "e:p owl:propertyDisjointWith e:q . e:x e:p e:y ; e:q e:y , e:z .",
        derived: &[],
        violations: &["disjoint properties p and q both relate x to y"],
    },
    Row {
        rule: "cls-nothing2",
        ttl: "e:x a owl:Nothing .",
        derived: &[],
        violations: &["x is an instance of owl:Nothing"],
    },
    Row {
        rule: "prp-irp",
        ttl: "e:p a owl:IrreflexiveProperty . e:x e:p e:x . e:x e:p e:y .",
        derived: &[],
        violations: &["irreflexive property p relates x to itself"],
    },
    Row {
        rule: "prp-asyp",
        ttl: "e:p a owl:AsymmetricProperty . e:x e:p e:y . e:y e:p e:x . e:y e:p e:z .",
        derived: &[],
        violations: &[
            "asymmetric property p holds in both directions between y and x",
            "asymmetric property p holds in both directions between x and y",
        ],
    },
    Row {
        rule: "eq-diff1",
        // eq-rep copies the differentFrom triple to every alias pair, so
        // the input holds them all.
        ttl: "e:a owl:sameAs e:b . e:b owl:sameAs e:a .\n\
              e:a owl:differentFrom e:b , e:a . e:b owl:differentFrom e:a , e:b .",
        derived: &[],
        violations: &[
            "b and a are both sameAs and differentFrom",
            "a and b are both sameAs and differentFrom",
        ],
    },
];

/// The name a derivation by `rule` records. Proofs show a domain or
/// range typing as `cls`, like any class expression's named head, and
/// the reverse of a sameAs pair as `eq-trans`, which derives both
/// directions of every alias pair.
fn recorded(rule: &str) -> &str {
    match rule {
        "prp-dom" | "prp-rng" => "cls",
        "eq-sym" => "eq-trans",
        rule => rule,
    }
}

fn graph(ttl: &str) -> Graph {
    let src = format!(
        "@prefix rdf: <{}> .\n@prefix rdfs: <{}> .\n@prefix owl: <{}> .\n@prefix e: <http://e/> .\n{ttl}",
        rdf::NS,
        rdfs::NS,
        owl::NS
    );
    let mut g = Graph::new();
    parse_turtle_into(&src, &mut g, &Default::default()).expect("row parses");
    g
}

fn lines(g: &Graph) -> BTreeSet<String> {
    g.iter_ids()
        .map(|t| t.map(|id| g.term_name(id)).join(" "))
        .collect()
}

#[test]
fn each_rule_fires_alone_and_derives_what_its_row_says() {
    for row in ROWS {
        let input = graph(row.ttl);
        let mut g = input.clone();
        let result = Reasoner::with_options(ReasonerOptions {
            track_derivations: true,
        })
        .materialize(&mut g, &Default::default())
        .expect("unguarded closure cannot trip");
        let derived: BTreeSet<String> = lines(&g).difference(&lines(&input)).cloned().collect();
        let want: BTreeSet<String> = row.derived.iter().map(|s| s.to_string()).collect();
        assert_eq!(derived, want, "{}: derived triples", row.rule);
        let details: Vec<&str> = (result.inconsistencies.iter())
            .map(|i| i.detail.as_str())
            .collect();
        assert_eq!(details, row.violations, "{}: inconsistencies", row.rule);
        for (triple, derivation) in &result.derivations {
            assert_eq!(
                derivation.rule,
                recorded(row.rule),
                "{}: {:?} derived by another rule",
                row.rule,
                triple
            );
        }
        assert_eq!(result.derivations.len(), row.derived.len(), "{}", row.rule);

        let mut reference = input.clone();
        let mut expected = oracle::close(&mut reference);
        assert_eq!(
            lines(&g),
            lines(&reference),
            "{}: the oracle's closure",
            row.rule
        );
        let mut reported: Vec<_> = (result.inconsistencies.into_iter())
            .map(|i| (i.kind, i.detail))
            .collect();
        reported.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
        expected.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
        assert_eq!(
            reported, expected,
            "{}: the oracle's inconsistencies",
            row.rule
        );
    }
}

/// A range typing is proved by the edge whose object it types, and is
/// shown as `cls`; a domain typing by the edge whose subject it types.
#[test]
fn domain_and_range_typings_are_proved_by_their_edge() {
    let mut g = graph("e:p rdfs:domain e:D ; rdfs:range e:R . e:x e:p e:y .");
    let result = Reasoner::with_options(ReasonerOptions {
        track_derivations: true,
    })
    .materialize(&mut g, &Default::default())
    .expect("unguarded closure cannot trip");
    let id = |n: &str| g.lookup_iri(n).expect("named in the input");
    let e = |n: &str| id(&format!("http://e/{n}"));
    let ty = id(rdf::TYPE);
    for (typed, class) in [("y", "R"), ("x", "D")] {
        let node = feo_owl::proof(&result, [e(typed), ty, e(class)]);
        assert_eq!(
            node.render(&g),
            format!("{typed} type {class}   [cls]\n  x p y   [asserted]\n")
        );
    }
}
