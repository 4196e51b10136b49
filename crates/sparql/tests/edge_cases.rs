//! Edge-case tests for the evaluator: operator corner cases the main
//! suite doesn't cover — REDUCED, nested OPTIONALs, pre-bound VALUES
//! joins, CONSTRUCT with blank-node templates, mixed-type ORDER BY,
//! error-value propagation in BIND, string aggregates, and negated
//! property sets with inverse members.

use feo_rdf::turtle::parse_turtle_into;
use feo_rdf::{Graph, GraphView, Term};
use feo_sparql::{query, SolutionTable};

fn graph(src: &str) -> Graph {
    let mut g = Graph::new();
    let prefixed = format!("@prefix e: <http://e/> .\n{src}");
    parse_turtle_into(&prefixed, &mut g, &Default::default()).expect("fixture parses");
    g
}

fn select(g: &mut Graph, q: &str) -> SolutionTable {
    query(
        g,
        &format!("PREFIX e: <http://e/>\n{q}"),
        &Default::default(),
    )
    .expect("query evaluates")
    .expect_solutions()
}

#[test]
fn reduced_is_accepted_and_dedupes() {
    let mut g = graph("e:a e:p e:b . e:c e:p e:b .");
    let t = select(&mut g, "SELECT REDUCED ?o WHERE { ?s e:p ?o }");
    // Our REDUCED behaves like DISTINCT (allowed by spec).
    assert_eq!(t.len(), 1);
}

#[test]
fn nested_optionals() {
    let mut g = graph(
        "e:a e:p e:b .\n\
         e:b e:q e:c .\n\
         e:x e:p e:y .",
    );
    let t = select(
        &mut g,
        "SELECT ?s ?m ?o WHERE { ?s e:p ?m . OPTIONAL { ?m e:q ?o . OPTIONAL { ?o e:r ?z } } }",
    );
    assert_eq!(t.len(), 2);
    let bound_o = t.rows.iter().filter(|r| r[2].is_some()).count();
    assert_eq!(bound_o, 1);
}

#[test]
fn values_joins_prebound_variables() {
    let mut g = graph("e:a e:p e:b . e:c e:p e:d .");
    // VALUES after the triple pattern must act as a join filter.
    let t = select(&mut g, "SELECT ?s WHERE { ?s e:p ?o . VALUES ?s { e:a } }");
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("s", "a"));
}

#[test]
fn construct_with_blank_template_mints_per_row() {
    let mut g = graph("e:a e:p e:b . e:c e:p e:d .");
    let out = query(
        &mut g,
        "PREFIX e: <http://e/> CONSTRUCT { ?s e:via [ e:to ?o ] } WHERE { ?s e:p ?o }",
        &Default::default(),
    )
    .unwrap()
    .expect_graph();
    // 2 rows × 2 template triples; blank nodes distinct per row.
    assert_eq!(out.len(), 4);
    let mut bnodes = std::collections::BTreeSet::new();
    for t in out.iter_triples() {
        if let Term::BlankNode(b) = &t.object {
            bnodes.insert(b.as_str().to_string());
        }
    }
    assert_eq!(bnodes.len(), 2, "one fresh bnode per solution");
}

#[test]
fn order_by_mixed_types_is_total() {
    let mut g = graph(r#"e:a e:v 10 . e:b e:v "text" . e:c e:v e:iri . e:d e:q e:x ."#);
    let t = select(
        &mut g,
        "SELECT ?s ?v WHERE { ?s ?p ?o . OPTIONAL { ?s e:v ?v } } ORDER BY ?v",
    );
    // Must not panic, unbound first.
    assert!(t.rows[0][1].is_none());
}

#[test]
fn bind_error_leaves_unbound() {
    let mut g = graph("e:a e:p e:b .");
    let t = select(
        &mut g,
        "SELECT ?s ?bad WHERE { ?s e:p ?o . BIND (?o + 1 AS ?bad) }",
    );
    assert_eq!(t.len(), 1);
    assert!(t.rows[0][1].is_none(), "IRI + 1 is an error → unbound");
}

#[test]
fn min_max_on_strings() {
    let mut g = graph(r#"e:a e:tag "pear" . e:a e:tag "apple" . e:a e:tag "melon" ."#);
    let t = select(
        &mut g,
        "SELECT (MIN(?t) AS ?min) (MAX(?t) AS ?max) WHERE { e:a e:tag ?t }",
    );
    let rows = t.local_rows();
    assert_eq!(rows[0][0], "apple");
    assert_eq!(rows[0][1], "pear");
}

#[test]
fn sample_returns_some_member() {
    let mut g = graph("e:a e:p e:b , e:c .");
    let t = select(&mut g, "SELECT (SAMPLE(?o) AS ?one) WHERE { e:a e:p ?o }");
    let v = &t.local_rows()[0][0];
    assert!(v == "b" || v == "c");
}

#[test]
fn group_concat_default_separator_is_space() {
    let mut g = graph(r#"e:a e:tag "x" ."#);
    let t = select(
        &mut g,
        "SELECT (GROUP_CONCAT(?t) AS ?all) WHERE { ?s e:tag ?t }",
    );
    assert_eq!(t.local_rows()[0][0], "x");
}

#[test]
fn negated_property_set_with_inverse() {
    let mut g = graph("e:a e:p e:b . e:c e:q e:a .");
    // !(^e:q) from a: steps reachable backwards by anything except q.
    let t = select(&mut g, "SELECT ?x WHERE { e:a !(e:nope|^e:q) ?x }");
    // Forward: any predicate not in {nope} → b. Inverse arm: predicates
    // into a not in {q} → none.
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("x", "b"));
}

#[test]
fn zero_or_more_with_both_ends_bound() {
    let g = graph("e:a e:p e:b . e:b e:p e:c .");
    assert!(query(
        &g,
        "PREFIX e: <http://e/> ASK { e:a (e:p*) e:c }",
        &Default::default()
    )
    .unwrap()
    .expect_boolean());
    assert!(query(
        &g,
        "PREFIX e: <http://e/> ASK { e:a (e:p*) e:a }",
        &Default::default()
    )
    .unwrap()
    .expect_boolean());
    assert!(!query(
        &g,
        "PREFIX e: <http://e/> ASK { e:c (e:p+) e:a }",
        &Default::default()
    )
    .unwrap()
    .expect_boolean());
}

#[test]
fn minus_without_shared_vars_keeps_everything() {
    // Per spec, MINUS rows with disjoint domains are not compatible.
    let mut g = graph("e:a e:p e:b . e:x e:q e:y .");
    let t = select(
        &mut g,
        "SELECT ?s WHERE { ?s e:p ?o . MINUS { ?u e:q ?v } }",
    );
    assert_eq!(t.len(), 1);
}

#[test]
fn filter_references_optional_variable() {
    let mut g = graph("e:a e:p e:b . e:a e:v 5 . e:c e:p e:d .");
    let t = select(
        &mut g,
        "SELECT ?s WHERE { ?s e:p ?o . OPTIONAL { ?s e:v ?v } FILTER (!BOUND(?v) || ?v > 3) }",
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn select_expression_over_aggregate_of_expression() {
    let mut g = graph("e:a e:v 2 . e:b e:v 4 .");
    let t = select(
        &mut g,
        "SELECT (SUM(?v) * 10 AS ?total) WHERE { ?s e:v ?v }",
    );
    assert_eq!(t.local_rows()[0][0], "60");
}

#[test]
fn langmatches_and_lang() {
    let mut g = graph(r#"e:a e:label "colour"@en-GB , "color"@en-US , "couleur"@fr ."#);
    let t = select(
        &mut g,
        r#"SELECT ?l WHERE { e:a e:label ?l . FILTER (LANGMATCHES(LANG(?l), "en")) }"#,
    );
    assert_eq!(t.len(), 2);
    let t = select(
        &mut g,
        r#"SELECT ?l WHERE { e:a e:label ?l . FILTER (LANGMATCHES(LANG(?l), "*")) }"#,
    );
    assert_eq!(t.len(), 3);
}

#[test]
fn strbefore_strafter_substr() {
    let mut g = graph("e:a e:p e:b .");
    let t = select(
        &mut g,
        r#"SELECT (STRBEFORE("butternut-squash", "-") AS ?b)
                  (STRAFTER("butternut-squash", "-") AS ?a)
           WHERE { }"#,
    );
    let r = t.local_rows();
    assert_eq!(r[0][0], "butternut");
    assert_eq!(r[0][1], "squash");
}

#[test]
fn concat_coerces_numbers() {
    let mut g = graph("e:a e:v 42 .");
    let t = select(
        &mut g,
        r#"SELECT (CONCAT("calories: ", STR(?v)) AS ?s) WHERE { e:a e:v ?v }"#,
    );
    assert_eq!(t.local_rows()[0][0], "calories: 42");
}

#[test]
fn variable_predicate_joins_with_path_elsewhere() {
    let mut g = graph("e:a e:p e:b . e:b e:q e:c .");
    let t = select(
        &mut g,
        "SELECT ?pred WHERE { e:a ?pred ?m . ?m (e:q+) e:c }",
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("pred", "p"));
}

#[test]
fn empty_group_in_union_arm() {
    let mut g = graph("e:a e:p e:b .");
    let t = select(
        &mut g,
        "SELECT ?s WHERE { { ?s e:p ?o } UNION { ?s e:missing ?o } }",
    );
    assert_eq!(t.len(), 1);
}

#[test]
fn deeply_nested_groups() {
    let mut g = graph("e:a e:p e:b . e:b e:q e:c .");
    let t = select(
        &mut g,
        "SELECT ?s WHERE { { { { ?s e:p ?m } . { ?m e:q ?o } } } }",
    );
    assert_eq!(t.len(), 1);
}
