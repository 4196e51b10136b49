//! The engine against the naive evaluator of `oracle/` on generated
//! queries, and both against hand-written tables for the scoping rules
//! SPARQL gets subtle about.
//!
//! Generated queries join two to four patterns over the FoodKG
//! vocabulary, each sharing a variable with an earlier one, and wrap the
//! tail in `OPTIONAL`, `UNION`, `MINUS` or `FILTER [NOT] EXISTS`. Each
//! runs on a materialized synthetic world held in memory, in an mmap
//! `Segment`, and in an `Overlay` with a delta over the segment, with
//! the planner's join operators and with each operator forced onto
//! every step, ordered by up to three keys and sliced; every run must
//! return the oracle's rows: its `ORDER BY` runs in order, each run as a
//! multiset.

mod oracle;

use feo::core::ecosystem::assemble;
use feo::foodkg::{synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::{food, sparql_prologue};
use feo::owl::Reasoner;
use feo::rdf::disk::segment::{write_segment, Segment};
use feo::rdf::turtle::parse_turtle_into;
use feo::rdf::vocab::rdf;
use feo::rdf::{Graph, GraphStore, GraphView, Overlay, Term};
use feo::sparql::{parse_query, query, JoinAlgo, QueryOptions};
use proptest::prelude::*;

/// What a variable stands for, so a generated chain of patterns can
/// match something.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Recipe,
    Ingredient,
    Nutrient,
    Season,
    Category,
    Number,
}

/// Predicates with the kinds of their subjects and objects.
const EDGES: [(&str, Kind, Kind); 8] = [
    ("food:hasIngredient", Kind::Recipe, Kind::Ingredient),
    ("food:isIngredientOf", Kind::Ingredient, Kind::Recipe),
    ("food:hasNutrient", Kind::Ingredient, Kind::Nutrient),
    ("food:availableInSeason", Kind::Ingredient, Kind::Season),
    ("food:belongsToCategory", Kind::Ingredient, Kind::Category),
    ("food:belongsToCategory", Kind::Recipe, Kind::Category),
    ("food:calories", Kind::Recipe, Kind::Number),
    ("food:priceTier", Kind::Recipe, Kind::Number),
];

/// One pattern of a generated query: which edge (modulo the ones that
/// fit), whether the earlier variable is its subject, and which earlier
/// variable it hangs off (3: close a cycle when one fits).
type PatternSpec = (usize, bool, u8);

/// A generated query: its patterns, how the tail is wrapped (0 plain,
/// 1 `OPTIONAL`, 2 `UNION`, 3 `MINUS`, 4 `NOT EXISTS`, 5 `EXISTS`), an
/// extra (1 `!BOUND` on the last variable, 2 a numeric filter, 3 a type
/// pattern), the projection (0 `*`, 1 `DISTINCT`, 2 `COUNT`), the
/// `ORDER BY` keys (which variable, descending) and the slice (0 none,
/// 1 `LIMIT`, 2 `OFFSET`, 3 both).
type QuerySpec = (Vec<PatternSpec>, u8, u8, u8, Vec<(u8, bool)>, u8);

fn generated_query(spec: &QuerySpec) -> String {
    let (patterns, shape, extra, projection, order, slice) = spec;
    let start = if patterns[0].1 {
        Kind::Recipe
    } else {
        Kind::Ingredient
    };
    let mut kinds = vec![start];
    let mut texts = Vec::new();
    for &(edge, forward, hang) in patterns {
        let from = kinds.len() - 1 - (hang as usize % kinds.len());
        let kind = kinds[from];
        let fits = |forward: bool| -> Vec<(&str, Kind)> {
            EDGES
                .iter()
                .filter(|e| if forward { e.1 == kind } else { e.2 == kind })
                .map(|e| (e.0, if forward { e.2 } else { e.1 }))
                .collect()
        };
        let (forward, choices) = match fits(forward) {
            c if c.is_empty() => (!forward, fits(!forward)),
            c => (forward, c),
        };
        let (predicate, other) = choices[edge % choices.len()];
        let closing = (0..kinds.len()).find(|&v| hang == 3 && v != from && kinds[v] == other);
        let to = closing.unwrap_or_else(|| {
            kinds.push(other);
            kinds.len() - 1
        });
        texts.push(if forward {
            format!("?v{from} {predicate} ?v{to}")
        } else {
            format!("?v{to} {predicate} ?v{from}")
        });
    }
    let (head, tail) = (texts[0].clone(), texts[1..].join(" . "));
    let mut body = match shape {
        1 => format!("{head} OPTIONAL {{ {tail} }}"),
        2 => {
            let other = match texts.len() {
                2 => texts[1].clone(),
                _ => texts[2..].join(" . "),
            };
            format!("{head} {{ {} }} UNION {{ {other} }}", texts[1])
        }
        3 => format!("{head} MINUS {{ {tail} }}"),
        4 => format!("{head} FILTER NOT EXISTS {{ {tail} }}"),
        5 => format!("{head} FILTER EXISTS {{ {tail} }}"),
        _ => format!("{head} . {tail}"),
    };
    let last = kinds.len() - 1;
    match extra {
        1 => body.push_str(&format!(" FILTER (!BOUND(?v{last}))")),
        2 => {
            if let Some(n) = kinds.iter().position(|&k| k == Kind::Number) {
                body.push_str(&format!(" FILTER (?v{n} > 300 || ?v{n} <= 1)"));
            }
        }
        3 => {
            let class = if start == Kind::Recipe {
                "food:Recipe"
            } else {
                "food:Ingredient"
            };
            body = format!("?v0 a {class} . {body}");
        }
        _ => {}
    }
    // A grouped query orders on what it groups and counts; any other on
    // any variable, projected or not.
    let keys: Vec<String> = (order.iter())
        .map(|&(v, descending)| {
            let var = match projection {
                2 if v % 2 == 0 => "?v0".to_string(),
                2 => "?n".to_string(),
                _ => format!("?v{}", v as usize % kinds.len()),
            };
            if descending {
                format!("DESC({var})")
            } else {
                var
            }
        })
        .collect();
    let mut modifiers = String::new();
    if !keys.is_empty() {
        modifiers.push_str(&format!(" ORDER BY {}", keys.join(" ")));
    }
    if slice & 1 == 1 {
        modifiers.push_str(" LIMIT 7");
    }
    if slice & 2 == 2 {
        modifiers.push_str(" OFFSET 3");
    }
    let p = sparql_prologue();
    match projection {
        1 => format!("{p}SELECT DISTINCT ?v0 ?v1 WHERE {{ {body} }}{modifiers}"),
        2 => format!(
            "{p}SELECT ?v0 (COUNT(DISTINCT ?v1) AS ?n) WHERE {{ {body} }} GROUP BY ?v0{modifiers}"
        ),
        _ => format!("{p}SELECT * WHERE {{ {body} }}{modifiers}"),
    }
}

fn world(recipes: usize, seed: u64) -> Graph {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 10,
        seed,
        ..Default::default()
    });
    let user = UserProfile::new("u").likes(&[&kg.recipes[0].id]);
    let mut g = assemble(&kg, &user, &SystemContext::new(Season::Autumn));
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded materialization converges");
    g
}

/// New recipes over the base's most frequent ingredients.
fn delta(overlay: &mut impl GraphStore) {
    for r in 0..4 {
        let recipe = FoodKg::iri(&format!("DeltaRecipe{r}"));
        let ingredient = FoodKg::iri(&format!("SynIngredient{}", r % 2));
        overlay.insert_iris(&recipe, rdf::TYPE, food::RECIPE);
        overlay.insert_iris(&recipe, food::HAS_INGREDIENT, &ingredient);
        overlay.insert_iris(&ingredient, food::IS_INGREDIENT_OF, &recipe);
    }
}

/// `text` on `view` under every join operator choice, against `expected`.
fn engine_matches<G: GraphView + Copy>(
    view: G,
    text: &str,
    expected: &oracle::Ordered,
    backend: &str,
) -> Result<(), TestCaseError> {
    for force in [None, Some(JoinAlgo::Nested), Some(JoinAlgo::Hash)] {
        let opts = QueryOptions {
            force_join: force,
            ..Default::default()
        };
        let t = query(view, text, &opts)
            .map_err(|e| TestCaseError::fail(format!("{backend}: {e}\n{text}")))?
            .expect_solutions();
        expected.check(&t.vars, &t.rows).map_err(|e| {
            TestCaseError::fail(format!(
                "{backend} (force {force:?}) diverged from the oracle: {e}\n{text}"
            ))
        })?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_queries_match_the_oracle_on_memory_segment_and_overlay(
        recipes in 10usize..20,
        seed in 0u64..10_000,
        specs in prop::collection::vec(
            (
                prop::collection::vec((0usize..8, any::<bool>(), 0u8..4), 2..5),
                0u8..6,
                0u8..4,
                0u8..3,
                prop::collection::vec((0u8..5, any::<bool>()), 0..4),
                0u8..4,
            ),
            6..7,
        ),
    ) {
        let g = world(recipes, seed);
        let path = std::env::temp_dir().join(format!(
            "feo-evaluator-oracle-{}-{recipes}-{seed}.seg",
            std::process::id()
        ));
        write_segment(&path, &g, g.stats(), 0).expect("segment writes");
        let seg = Segment::open(&path, true).expect("segment opens");
        let mut overlay = Overlay::new(&seg);
        delta(&mut overlay);
        for spec in &specs {
            let text = generated_query(spec);
            let parsed = parse_query(&text).expect("generated query parses");
            let base = oracle::ordered(g.iter_triples(), &parsed);
            engine_matches(&g, &text, &base, "memory")?;
            engine_matches(&seg, &text, &base, "segment")?;
            let layered = oracle::ordered(overlay.iter_triples(), &parsed);
            engine_matches(&overlay, &text, &layered, "segment+overlay")?;
        }
        drop(overlay);
        drop(seg);
        let _ = std::fs::remove_file(&path);
    }
}

// ---- conformance --------------------------------------------------------

/// A term as a table cell: an IRI's local name, a literal's text, and
/// `_:` for any blank node (the parser picks its label).
fn cell(t: &Term) -> String {
    match t {
        Term::Iri(iri) => iri.local_name().to_string(),
        Term::Literal(l) => l.lexical_form().to_string(),
        Term::BlankNode(_) => "_:".to_string(),
    }
}

/// Solutions as rows of cells, in their order.
fn rows_of(solutions: &[oracle::Solution]) -> Vec<Vec<(String, String)>> {
    solutions
        .iter()
        .map(|s| s.iter().map(|(v, t)| (v.clone(), cell(t))).collect())
        .collect()
}

fn cells(solutions: &[oracle::Solution]) -> Vec<Vec<(String, String)>> {
    let mut out = rows_of(solutions);
    out.sort();
    out
}

/// An expected table as rows of `(variable, cell)` pairs, in its order.
fn expected_rows(expected: &[&[(&str, &str)]]) -> Vec<Vec<(String, String)>> {
    expected
        .iter()
        .map(|row| {
            let mut row: Vec<(String, String)> = (row.iter())
                .map(|(v, c)| (v.to_string(), c.to_string()))
                .collect();
            row.sort();
            row
        })
        .collect()
}

/// A case's data under the prefix `:`.
fn case_graph(data: &str) -> Graph {
    let mut g = Graph::new();
    parse_turtle_into(
        &format!("@prefix : <http://t/> .\n{data}"),
        &mut g,
        &Default::default(),
    )
    .expect("case data parses");
    g
}

/// `(name, data, query, expected solutions)`; data and query share the
/// prefix `:` = `http://t/`.
type Case = (
    &'static str,
    &'static str,
    &'static str,
    &'static [&'static [(&'static str, &'static str)]],
);

const CASES: &[Case] = &[
    (
        "a FILTER inside OPTIONAL is the left join's condition and sees the outer ?n",
        ":a :p 1 ; :q 10 . :b :p 2 ; :q 1 . :c :p 3 .",
        "SELECT ?x ?v WHERE { ?x :p ?n OPTIONAL { ?x :q ?v FILTER (?v > ?n) } }",
        &[&[("x", "a"), ("v", "10")], &[("x", "b")], &[("x", "c")]],
    ),
    (
        "a FILTER after OPTIONAL drops rows it errors on (unbound ?v)",
        ":a :p 1 ; :q 10 . :b :p 2 ; :q 1 . :c :p 3 .",
        "SELECT ?x ?v WHERE { ?x :p ?n OPTIONAL { ?x :q ?v } FILTER (?v > ?n) }",
        &[&[("x", "a"), ("v", "10")]],
    ),
    (
        "!BOUND over OPTIONAL keeps the rows the OPTIONAL left unextended",
        ":a :p 1 ; :q 10 . :b :p 2 ; :q 1 . :c :p 3 .",
        "SELECT ?x WHERE { ?x :p ?n OPTIONAL { ?x :q ?v } FILTER (!BOUND(?v)) }",
        &[&[("x", "c")]],
    ),
    (
        "MINUS with no shared variable removes nothing",
        ":a :b :c .",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o MINUS { ?x ?y ?z } }",
        &[&[("s", "a"), ("p", "b"), ("o", "c")]],
    ),
    (
        "NOT EXISTS with no shared variable removes every row",
        ":a :b :c .",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o FILTER NOT EXISTS { ?x ?y ?z } }",
        &[],
    ),
    (
        "a FILTER inside MINUS cannot see the outer ?n",
        ":a :p 1 ; :q 1 , 2 . :b :p 3 ; :q 4 , 5 .",
        "SELECT ?x ?n WHERE { ?x :p ?n MINUS { ?x :q ?m FILTER (?n = ?m) } }",
        &[&[("x", "a"), ("n", "1")], &[("x", "b"), ("n", "3")]],
    ),
    (
        "a FILTER inside NOT EXISTS sees the outer ?n",
        ":a :p 1 ; :q 1 , 2 . :b :p 3 ; :q 4 , 5 .",
        "SELECT ?x ?n WHERE { ?x :p ?n FILTER NOT EXISTS { ?x :q ?m FILTER (?n = ?m) } }",
        &[&[("x", "b"), ("n", "3")]],
    ),
    (
        "a zero-length * path relates its start to itself",
        ":a :p :b . :b :p :c .",
        "SELECT ?y WHERE { :a :p* ?y }",
        &[&[("y", "a")], &[("y", "b")], &[("y", "c")]],
    ),
    (
        "a zero-length * path relates a constant the graph lacks to itself",
        ":a :p :b . :b :p :c .",
        "SELECT ?x WHERE { ?x :p* :z }",
        &[&[("x", "z")]],
    ),
    (
        "a + path over a cycle reaches every node once, its start included",
        ":a :p :b . :b :p :c . :c :p :a .",
        "SELECT ?y WHERE { :a :p+ ?y }",
        &[&[("y", "a")], &[("y", "b")], &[("y", "c")]],
    ),
    (
        "two + paths to constants, each on its own predicate",
        ":a :p :b . :b :p :c . :x :q :y . :y :q :z .",
        "SELECT ?s ?t WHERE { ?s :p+ :c . ?t :q+ :z }",
        &[
            &[("s", "a"), ("t", "x")],
            &[("s", "a"), ("t", "y")],
            &[("s", "b"), ("t", "x")],
            &[("s", "b"), ("t", "y")],
        ],
    ),
    (
        "a + path over a cycle relates every pair once",
        ":a :p :b . :b :p :c . :c :p :a .",
        "SELECT (COUNT(*) AS ?pairs) WHERE { ?x :p+ ?y }",
        &[&[("pairs", "9")]],
    ),
];

#[test]
fn conformance_cases_match_their_expected_tables() {
    for (name, data, text, expected) in CASES {
        let g = case_graph(data);
        let text = format!("PREFIX : <http://t/>\n{text}");
        let mut want = expected_rows(expected);
        want.sort();
        let reference = oracle::evaluate(g.iter_triples(), &parse_query(&text).expect("parses"));
        assert_eq!(cells(&reference), want, "oracle: {name}");
        let t = query(&g, &text, &QueryOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .expect_solutions();
        assert_eq!(
            cells(&oracle::multiset(&t.vars, &t.rows)),
            want,
            "engine: {name}"
        );
    }
}

/// Cases whose row order is the answer. Ties come from `VALUES`, whose
/// row order is the input order a stable sort keeps.
const ORDERED: &[Case] = &[
    (
        "ORDER BY a computed key: STR of an IRI",
        ":b :p 1 . :a :p 2 . :c :p 3 .",
        "SELECT ?x WHERE { ?x :p ?n } ORDER BY ASC(STR(?x))",
        &[&[("x", "a")], &[("x", "b")], &[("x", "c")]],
    ),
    (
        "ORDER BY a bare builtin call: STR of an IRI",
        ":b :p 1 . :a :p 2 . :c :p 3 .",
        "SELECT ?x WHERE { ?x :p ?n } ORDER BY STR(?x)",
        &[&[("x", "a")], &[("x", "b")], &[("x", "c")]],
    ),
    (
        "ORDER BY a computed key: DESC of a product",
        ":b :p 1 . :a :p 2 . :c :p 3 .",
        "SELECT ?x WHERE { ?x :p ?n } ORDER BY DESC(?n * 2)",
        &[&[("x", "c")], &[("x", "a")], &[("x", "b")]],
    ),
    (
        "an unbound key sorts first",
        ":a :p 1 ; :q 5 . :b :p 2 . :c :p 3 ; :q 1 .",
        "SELECT ?x ?v WHERE { ?x :p ?n OPTIONAL { ?x :q ?v } } ORDER BY ?v",
        &[
            &[("x", "b")],
            &[("x", "c"), ("v", "1")],
            &[("x", "a"), ("v", "5")],
        ],
    ),
    (
        "an unbound key sorts last under DESC",
        ":a :p 1 ; :q 5 . :b :p 2 . :c :p 3 ; :q 1 .",
        "SELECT ?x ?v WHERE { ?x :p ?n OPTIONAL { ?x :q ?v } } ORDER BY DESC(?v)",
        &[
            &[("x", "a"), ("v", "5")],
            &[("x", "c"), ("v", "1")],
            &[("x", "b")],
        ],
    ),
    (
        "blank < IRI < literal, IRIs by text, numbers by value before other literals",
        ":s :p \"b\" , \"a\" , 10 , 7 , :y , :x , [] .",
        "SELECT ?o WHERE { :s :p ?o } ORDER BY ?o",
        &[
            &[("o", "_:")],
            &[("o", "x")],
            &[("o", "y")],
            &[("o", "7")],
            &[("o", "10")],
            &[("o", "a")],
            &[("o", "b")],
        ],
    ),
    (
        "1 and 1.0 tie and keep their input order",
        "",
        "SELECT ?x WHERE { VALUES ?x { \"1.0\"^^<http://www.w3.org/2001/XMLSchema#decimal> 1 0 } } \
         ORDER BY ?x",
        &[&[("x", "0")], &[("x", "1.0")], &[("x", "1")]],
    ),
    (
        "1 and 1.0 tie and keep their input order under DESC",
        "",
        "SELECT ?x WHERE { VALUES ?x { 1 \"1.0\"^^<http://www.w3.org/2001/XMLSchema#decimal> 2 } } \
         ORDER BY DESC(?x)",
        &[&[("x", "2")], &[("x", "1")], &[("x", "1.0")]],
    ),
    (
        "DISTINCT keeps a solution where a non-projected key first puts it",
        ":a :p 3 . :b :p 1 . :a :p 0 . :c :p 2 .",
        "SELECT DISTINCT ?x WHERE { ?x :p ?n } ORDER BY ?n",
        &[&[("x", "a")], &[("x", "b")], &[("x", "c")]],
    ),
    (
        "DISTINCT keeps a solution where a non-projected DESC key first puts it",
        ":a :p 3 . :b :p 1 . :a :p 0 . :c :p 2 .",
        "SELECT DISTINCT ?x WHERE { ?x :p ?n } ORDER BY DESC(?n)",
        &[&[("x", "a")], &[("x", "c")], &[("x", "b")]],
    ),
    (
        "NaN sorts after every other number",
        "",
        "SELECT ?x WHERE { VALUES ?x { \"NaN\"^^<http://www.w3.org/2001/XMLSchema#double> 2 1 } } \
         ORDER BY ?x",
        &[&[("x", "1")], &[("x", "2")], &[("x", "NaN")]],
    ),
    (
        "NaN sorts first under DESC",
        "",
        "SELECT ?x WHERE { VALUES ?x { 1 \"NaN\"^^<http://www.w3.org/2001/XMLSchema#double> 2 } } \
         ORDER BY DESC(?x)",
        &[&[("x", "NaN")], &[("x", "2")], &[("x", "1")]],
    ),
    (
        "OFFSET and LIMIT slice the ordered solutions",
        ":a :p 1 . :b :p 2 . :c :p 3 . :d :p 4 .",
        "SELECT ?x WHERE { ?x :p ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1",
        &[&[("x", "c")], &[("x", "b")]],
    ),
];

#[test]
fn ordered_conformance_cases_match_their_expected_tables_in_order() {
    for (name, data, text, expected) in ORDERED {
        let g = case_graph(data);
        let text = format!("PREFIX : <http://t/>\n{text}");
        let want = expected_rows(expected);
        // The oracle: its runs, sliced, cut the expected table into
        // multisets that are its own.
        let reference = oracle::ordered(g.iter_triples(), &parse_query(&text).expect("parses"));
        let flat: Vec<(usize, &oracle::Solution)> = (reference.runs.iter().enumerate())
            .flat_map(|(i, run)| run.iter().map(move |s| (i, s)))
            .skip(reference.offset)
            .take(reference.limit.unwrap_or(usize::MAX))
            .collect();
        assert_eq!(flat.len(), want.len(), "oracle: {name}");
        let mut at = 0;
        for run in flat.chunk_by(|a, b| a.0 == b.0) {
            let solutions: Vec<oracle::Solution> = run.iter().map(|(_, s)| (*s).clone()).collect();
            let mut chunk = want[at..at + run.len()].to_vec();
            chunk.sort();
            assert_eq!(cells(&solutions), chunk, "oracle: {name}");
            at += run.len();
        }
        // The engine: row for row.
        let t = query(&g, &text, &QueryOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .expect_solutions();
        let got: Vec<oracle::Solution> = (t.rows.iter())
            .map(|row| oracle::multiset(&t.vars, std::slice::from_ref(row)).remove(0))
            .collect();
        assert_eq!(rows_of(&got), want, "engine: {name}");
    }
}
