//! End-to-end evaluator tests: each test loads a small Turtle graph and
//! checks query results against hand-computed answers.

use feo_rdf::turtle::parse_turtle_into;
use feo_rdf::{Graph, GraphView, Term};
use feo_sparql::{
    execute_seeded, parse_query, plan_seeded, query, QueryOptions, QueryResult, SolutionTable,
};

fn graph(src: &str) -> Graph {
    let mut g = Graph::new();
    let prefixed = format!(
        "@prefix e: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n{src}"
    );
    parse_turtle_into(&prefixed, &mut g, &Default::default()).expect("fixture turtle parses");
    g
}

fn select(g: &mut Graph, q: &str) -> SolutionTable {
    let full = format!(
        "PREFIX e: <http://e/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\nPREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n{q}"
    );
    query(g, &full, &Default::default())
        .expect("query evaluates")
        .expect_solutions()
}

fn food_graph() -> Graph {
    graph(
        r#"
        e:curry a e:Recipe ; e:hasIngredient e:cauliflower , e:potato ; e:calories 450 .
        e:soup a e:Recipe ; e:hasIngredient e:squash ; e:calories 300 .
        e:salad a e:Recipe ; e:hasIngredient e:lettuce ; e:calories 150 .
        e:cauliflower a e:Vegetable ; e:availableIn e:Autumn .
        e:squash a e:Vegetable ; e:availableIn e:Autumn , e:Winter .
        e:potato a e:Vegetable .
        e:lettuce a e:Vegetable ; e:availableIn e:Summer .
        e:alice e:likes e:curry ; e:name "Alice" .
        e:bob e:likes e:soup , e:salad ; e:name "Bob" .
        "#,
    )
}

#[test]
fn basic_bgp_join() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r ?v WHERE { ?r a e:Recipe ; e:hasIngredient ?v . ?v e:availableIn e:Autumn }",
    );
    assert_eq!(t.len(), 2);
    assert!(t.contains_local("r", "curry"));
    assert!(t.contains_local("r", "soup"));
    assert!(!t.contains_local("r", "salad"));
}

#[test]
fn select_star_excludes_blank_slots() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT * WHERE { ?r e:hasIngredient [ a e:Vegetable ] }",
    );
    assert_eq!(t.vars, vec!["r"]);
    assert_eq!(t.len(), 4); // curry x2 ingredients, soup, salad
}

#[test]
fn optional_keeps_unmatched() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?v ?s WHERE { ?v a e:Vegetable . OPTIONAL { ?v e:availableIn ?s } }",
    );
    // potato has no season → one row with unbound ?s.
    let potato_rows: Vec<_> = t
        .rows
        .iter()
        .filter(|r| matches!(&r[0], Some(feo_rdf::Term::Iri(i)) if i.local_name() == "potato"))
        .collect();
    assert_eq!(potato_rows.len(), 1);
    assert!(potato_rows[0][1].is_none());
    // squash appears twice (two seasons).
    assert_eq!(
        t.rows
            .iter()
            .filter(|r| matches!(&r[0], Some(feo_rdf::Term::Iri(i)) if i.local_name() == "squash"))
            .count(),
        2
    );
}

#[test]
fn union_concatenates() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?x WHERE { { ?x e:availableIn e:Summer } UNION { ?x e:availableIn e:Winter } }",
    );
    assert_eq!(t.len(), 2);
    assert!(t.contains_local("x", "lettuce"));
    assert!(t.contains_local("x", "squash"));
}

#[test]
fn minus_removes_compatible() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?v WHERE { ?v a e:Vegetable . MINUS { ?v e:availableIn e:Autumn } }",
    );
    assert_eq!(t.len(), 2);
    assert!(t.contains_local("v", "potato"));
    assert!(t.contains_local("v", "lettuce"));
}

#[test]
fn filter_not_exists() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?v WHERE { ?v a e:Vegetable . FILTER NOT EXISTS { ?v e:availableIn ?s } }",
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("v", "potato"));
}

#[test]
fn filter_exists_positive() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?v WHERE { ?v a e:Vegetable . FILTER EXISTS { ?v e:availableIn e:Autumn } }",
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn numeric_filters_and_arith() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r WHERE { ?r e:calories ?c . FILTER (?c > 200 && ?c < 400) }",
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("r", "soup"));

    let t = select(
        &mut g,
        "SELECT ?r ?half WHERE { ?r e:calories ?c . BIND (?c / 2 AS ?half) . FILTER (?half >= 150) }",
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn bind_extends_rows() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        r#"SELECT ?n WHERE { BIND (CONCAT("user-", "alice") AS ?n) }"#,
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("n", "user-alice"));
}

#[test]
fn bind_of_constant_iri_like_paper_listings() {
    // Listing 1/2 pattern: BIND (feo:Question as ?question).
    let mut g = graph("e:q1 e:hasParameter e:curry .");
    let t = select(
        &mut g,
        "SELECT ?p WHERE { BIND (e:q1 AS ?q) . ?q e:hasParameter ?p }",
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("p", "curry"));
}

#[test]
fn values_single_var() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r ?v WHERE { VALUES ?v { e:squash e:lettuce } ?r e:hasIngredient ?v }",
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn values_multi_var_with_undef() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r ?c WHERE { VALUES (?r ?c) { (e:soup UNDEF) (UNDEF 150) } ?r e:calories ?c }",
    );
    assert_eq!(t.len(), 2);
    assert!(t.contains_local("r", "soup"));
    assert!(t.contains_local("r", "salad"));
}

#[test]
fn distinct_and_limit_offset() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT DISTINCT ?season WHERE { ?v e:availableIn ?season }",
    );
    assert_eq!(t.len(), 3);
    let t = select(
        &mut g,
        "SELECT ?r WHERE { ?r a e:Recipe } ORDER BY ?r LIMIT 2",
    );
    assert_eq!(t.len(), 2);
    let t2 = select(
        &mut g,
        "SELECT ?r WHERE { ?r a e:Recipe } ORDER BY ?r LIMIT 2 OFFSET 2",
    );
    assert_eq!(t2.len(), 1);
}

#[test]
fn order_by_numeric_desc() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r ?c WHERE { ?r e:calories ?c } ORDER BY DESC(?c)",
    );
    let rows = t.local_rows();
    assert_eq!(rows[0][0], "curry");
    assert_eq!(rows[2][0], "salad");
}

#[test]
fn property_path_sequence_and_alternative() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?u ?s WHERE { ?u e:likes/e:hasIngredient/e:availableIn ?s }",
    );
    // alice→curry→cauliflower→Autumn ; bob→soup→squash→{Autumn,Winter} ;
    // bob→salad→lettuce→Summer
    assert_eq!(t.len(), 4);

    let t = select(
        &mut g,
        "SELECT ?x WHERE { e:squash (e:availableIn|e:hasIngredient) ?x }",
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn property_path_inverse() {
    let mut g = food_graph();
    let t = select(&mut g, "SELECT ?r WHERE { e:squash ^e:hasIngredient ?r }");
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("r", "soup"));
}

#[test]
fn property_path_plus_transitive() {
    let mut g =
        graph("e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:C . e:C rdfs:subClassOf e:D .");
    let t = select(&mut g, "SELECT ?sup WHERE { e:A (rdfs:subClassOf+) ?sup }");
    assert_eq!(t.len(), 3);
    let t = select(&mut g, "SELECT ?sup WHERE { e:A (rdfs:subClassOf*) ?sup }");
    assert_eq!(t.len(), 4, "zero-or-more includes A itself");
    let t = select(&mut g, "SELECT ?sub WHERE { ?sub (rdfs:subClassOf+) e:D }");
    assert_eq!(t.len(), 3, "bound object walks backward");
}

#[test]
fn property_path_zero_or_one() {
    let mut g = graph("e:A e:p e:B . e:B e:p e:C .");
    let t = select(&mut g, "SELECT ?x WHERE { e:A (e:p?) ?x }");
    assert_eq!(t.len(), 2); // A itself and B
}

#[test]
fn negated_property_set() {
    let mut g = graph("e:a e:p e:b . e:a e:q e:c .");
    let t = select(&mut g, "SELECT ?o WHERE { e:a !e:p ?o }");
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("o", "c"));
}

#[test]
fn ask_queries() {
    let g = food_graph();
    assert!(query(
        &g,
        "PREFIX e: <http://e/> ASK { e:curry a e:Recipe }",
        &Default::default()
    )
    .unwrap()
    .expect_boolean());
    assert!(!query(
        &g,
        "PREFIX e: <http://e/> ASK { e:curry a e:Vegetable }",
        &Default::default()
    )
    .unwrap()
    .expect_boolean());
}

#[test]
fn construct_builds_graph() {
    let mut g = food_graph();
    let out = query(
        &mut g,
        "PREFIX e: <http://e/> CONSTRUCT { ?v e:inSeason ?s } WHERE { ?v e:availableIn ?s }",
        &Default::default(),
    )
    .unwrap()
    .expect_graph();
    assert_eq!(out.len(), 4);
    assert!(out.lookup_iri("http://e/inSeason").is_some());
}

#[test]
fn aggregates_count_avg_group() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r (COUNT(?v) AS ?n) WHERE { ?r e:hasIngredient ?v } GROUP BY ?r ORDER BY DESC(?n)",
    );
    assert_eq!(t.len(), 3);
    let rows = t.local_rows();
    assert_eq!(rows[0], vec!["curry".to_string(), "2".to_string()]);

    let t = select(
        &mut g,
        "SELECT (AVG(?c) AS ?avg) (MAX(?c) AS ?max) (MIN(?c) AS ?min) (SUM(?c) AS ?sum) WHERE { ?r e:calories ?c }",
    );
    let rows = t.local_rows();
    assert_eq!(rows[0][0], "300.0");
    assert_eq!(rows[0][1], "450");
    assert_eq!(rows[0][2], "150");
    assert_eq!(rows[0][3], "900");
}

#[test]
fn having_filters_groups() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?u (COUNT(?r) AS ?n) WHERE { ?u e:likes ?r } GROUP BY ?u HAVING (COUNT(?r) > 1)",
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("u", "bob"));
}

#[test]
fn count_star_and_distinct() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT (COUNT(*) AS ?n) WHERE { ?s e:availableIn ?o }",
    );
    assert_eq!(t.local_rows()[0][0], "4");
    let t = select(
        &mut g,
        "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s e:availableIn ?o }",
    );
    assert_eq!(t.local_rows()[0][0], "3");
}

#[test]
fn group_concat() {
    let mut g = graph(r#"e:r e:tag "a" , "b" ."#);
    let t = select(
        &mut g,
        r#"SELECT (GROUP_CONCAT(?t ; SEPARATOR=",") AS ?tags) WHERE { e:r e:tag ?t }"#,
    );
    let cell = &t.local_rows()[0][0];
    assert!(cell == "a,b" || cell == "b,a");
}

#[test]
fn string_builtins() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        r#"SELECT ?u WHERE { ?u e:name ?n . FILTER (STRSTARTS(?n, "A")) }"#,
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("u", "alice"));

    let t = select(
        &mut g,
        r#"SELECT ?u WHERE { ?u e:name ?n . FILTER (CONTAINS(LCASE(?n), "ob")) }"#,
    );
    assert!(t.contains_local("u", "bob"));

    let t = select(
        &mut g,
        r#"SELECT (STRLEN("hello") AS ?l) (UCASE("hi") AS ?u) (SUBSTR("potato", 2, 3) AS ?s) WHERE { }"#,
    );
    let r = t.local_rows();
    assert_eq!(
        r[0],
        vec!["5".to_string(), "HI".to_string(), "ota".to_string()]
    );
}

#[test]
fn regex_builtin() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        r#"SELECT ?v WHERE { ?v a e:Vegetable . FILTER (REGEX(STR(?v), "pot|lett")) }"#,
    );
    assert_eq!(t.len(), 2);
    let t = select(
        &mut g,
        r#"SELECT ?u WHERE { ?u e:name ?n . FILTER (REGEX(?n, "^ali", "i")) }"#,
    );
    assert_eq!(t.len(), 1);
}

#[test]
fn str_lang_datatype() {
    let mut g = graph(r#"e:x e:label "plain" . e:y e:label "tagged"@fr . e:z e:num 5 ."#);
    let t = select(
        &mut g,
        r#"SELECT ?s WHERE { ?s e:label ?l . FILTER (LANG(?l) = "fr") }"#,
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("s", "y"));
    let t = select(
        &mut g,
        "SELECT ?s WHERE { ?s e:num ?n . FILTER (DATATYPE(?n) = xsd:integer) }",
    );
    assert_eq!(t.len(), 1);
}

#[test]
fn coalesce_if_bound() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        r#"SELECT ?v ?state WHERE {
             ?v a e:Vegetable .
             OPTIONAL { ?v e:availableIn ?s }
             BIND (IF(BOUND(?s), "seasonal", "always") AS ?state)
           }"#,
    );
    let potato: Vec<_> = t
        .rows
        .iter()
        .filter(|r| matches!(&r[0], Some(feo_rdf::Term::Iri(i)) if i.local_name() == "potato"))
        .collect();
    assert_eq!(potato.len(), 1);
    assert!(
        matches!(&potato[0][1], Some(feo_rdf::Term::Literal(l)) if l.lexical_form() == "always")
    );
}

#[test]
fn in_and_not_in() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r WHERE { ?r e:calories ?c . FILTER (?c IN (150, 450)) }",
    );
    assert_eq!(t.len(), 2);
    let t = select(
        &mut g,
        "SELECT ?r WHERE { ?r e:calories ?c . FILTER (?c NOT IN (150, 450)) }",
    );
    assert_eq!(t.len(), 1);
    assert!(t.contains_local("r", "soup"));
}

#[test]
fn nested_group_and_variable_predicate() {
    let mut g = food_graph();
    let t = select(&mut g, "SELECT DISTINCT ?p WHERE { e:curry ?p ?o }");
    assert_eq!(t.len(), 3); // rdf:type, hasIngredient, calories

    let t = select(
        &mut g,
        "SELECT ?v WHERE { { ?v a e:Vegetable } { ?v e:availableIn e:Autumn } }",
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn sameterm_isiri_isliteral() {
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?o WHERE { e:alice e:likes ?o . FILTER (isIRI(?o)) }",
    );
    assert_eq!(t.len(), 1);
    let t = select(
        &mut g,
        "SELECT ?o WHERE { e:alice e:name ?o . FILTER (isLiteral(?o)) }",
    );
    assert_eq!(t.len(), 1);
    let t = select(
        &mut g,
        "SELECT ?a WHERE { ?a e:likes ?x . ?a e:likes ?y . FILTER (!SAMETERM(?x, ?y)) }",
    );
    assert_eq!(t.len(), 2); // bob with (soup,salad) and (salad,soup)
}

#[test]
fn filter_scopes_to_group() {
    // A filter inside an OPTIONAL applies within the optional group only.
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r ?c WHERE { ?r a e:Recipe . OPTIONAL { ?r e:calories ?c . FILTER (?c > 400) } }",
    );
    assert_eq!(t.len(), 3, "all recipes kept");
    let bound: Vec<_> = t.rows.iter().filter(|r| r[1].is_some()).collect();
    assert_eq!(bound.len(), 1, "only curry keeps its calories binding");
}

#[test]
fn empty_where_yields_single_empty_solution() {
    let mut g = food_graph();
    let t = select(&mut g, "SELECT (1 + 1 AS ?two) WHERE { }");
    assert_eq!(t.len(), 1);
    assert_eq!(t.local_rows()[0][0], "2");
}

#[test]
fn error_value_drops_row_in_filter() {
    // Comparing an IRI numerically is an error → row dropped, not panic.
    let mut g = food_graph();
    let t = select(
        &mut g,
        "SELECT ?r WHERE { ?r a e:Recipe . FILTER (?r > 5) }",
    );
    assert_eq!(t.len(), 0);
}

#[test]
fn query_result_accessors() {
    let g = food_graph();
    let r = query(
        &g,
        "PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Recipe }",
        &Default::default(),
    )
    .unwrap();
    assert!(matches!(r, QueryResult::Solutions(_)));
}

#[test]
fn seeded_execution_binds_parameters_like_bind() {
    let g = food_graph();
    let body = "SELECT ?r ?v WHERE { ?who e:likes ?r . ?r e:hasIngredient ?v } ORDER BY ?r ?v";
    let prepared = parse_query(&format!("PREFIX e: <http://e/>\n{body}")).unwrap();
    let plan = plan_seeded(&g, &prepared, &["who"]);
    let run = |who: &str| {
        execute_seeded(
            &g,
            &prepared,
            &plan,
            &[("who", Term::iri(who))],
            &QueryOptions::default(),
        )
    };
    let bound = |who: &str| {
        let text = body.replacen(
            "WHERE { ",
            &format!("WHERE {{ BIND (<{who}> AS ?who) . "),
            1,
        );
        select(&mut g.clone(), &text)
    };
    for who in ["http://e/alice", "http://e/bob", "http://e/nobody"] {
        assert_eq!(run(who).unwrap().expect_solutions(), bound(who), "{who}");
    }
    assert_eq!(run("http://e/bob").unwrap().expect_solutions().len(), 2);
    assert!(run("http://e/nobody")
        .unwrap()
        .expect_solutions()
        .is_empty());
    let unknown = execute_seeded(
        &g,
        &prepared,
        &plan,
        &[("whom", Term::iri("http://e/bob"))],
        &QueryOptions::default(),
    );
    assert!(unknown.is_err(), "a seed must name a variable of the query");
}
