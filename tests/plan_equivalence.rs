//! The engine against the naive evaluator of `oracle/`: for seeded
//! synthetic KGs (the `feo-foodkg` generator, assembled and materialized
//! exactly as the engine does it) the planned evaluation must return the
//! oracle's solution multiset — and a tripping `Guard` must yield a typed
//! `SparqlError::Exhausted`, never a silently truncated table.

mod oracle;

use feo::core::ecosystem::assemble;
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::sparql_prologue;
use feo::owl::Reasoner;
use feo::rdf::governor::Budget;
use feo::rdf::Graph;
use feo::sparql::{parse_query, query, QueryOptions, SolutionTable, SparqlError};
use proptest::prelude::*;

/// Queries chosen to give the planner real decisions: multi-pattern
/// joins (including an adversarial author order that opens with a
/// cartesian product), OPTIONAL / UNION nodes, a property path, and an
/// aggregate.
fn equivalence_queries() -> Vec<String> {
    let p = sparql_prologue();
    vec![
        // Adversarial author order: the first two patterns share no
        // variable; only the third connects them.
        format!(
            "{p}SELECT ?r ?i ?s WHERE {{\n\
               ?r food:calories ?c .\n\
               ?i food:availableInSeason ?s .\n\
               ?r food:hasIngredient ?i .\n\
               FILTER (?c > 700) .\n\
             }}"
        ),
        // Star join around recipes, type patterns included.
        format!(
            "{p}SELECT ?r ?i ?n WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:hasIngredient ?i .\n\
               ?i food:hasNutrient ?n .\n\
             }}"
        ),
        // OPTIONAL + UNION exercise the non-BGP plan nodes.
        format!(
            "{p}SELECT ?i ?x WHERE {{\n\
               ?i a food:Ingredient .\n\
               OPTIONAL {{ ?i food:availableInSeason ?x }}\n\
             }}"
        ),
        format!(
            "{p}SELECT ?r ?v WHERE {{\n\
               {{ ?r food:hasIngredient ?v }} UNION {{ ?r food:availableInSeason ?v }}\n\
             }}"
        ),
        // Property path over the recipe→ingredient→nutrient chain.
        format!("{p}SELECT ?r ?n WHERE {{ ?r (food:hasIngredient/food:hasNutrient) ?n }}"),
        // Aggregate on top of a join.
        format!(
            "{p}SELECT ?r (COUNT(?i) AS ?k) WHERE {{\n\
               ?r food:hasIngredient ?i .\n\
             }} GROUP BY ?r"
        ),
    ]
}

/// The engine's own pipeline: generate, assemble, materialize.
fn materialized_graph(recipes: usize, seed: u64) -> Graph {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 10,
        seed,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut g = assemble(&kg, &user, &ctx);
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded materialization converges");
    g
}

/// A table as the oracle's multiset.
fn multiset(t: &SolutionTable) -> Vec<oracle::Solution> {
    oracle::multiset(&t.vars, &t.rows)
}

/// The oracle's answer to `q` over `g`.
fn reference(g: &Graph, q: &str) -> Vec<oracle::Solution> {
    oracle::evaluate(g.iter_triples(), &parse_query(q).expect("query parses"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine returns the oracle's multiset for every query over
    /// every generated KG.
    #[test]
    fn planners_return_identical_multisets(
        recipes in 15usize..45,
        seed in 0u64..10_000,
    ) {
        let g = materialized_graph(recipes, seed);
        for q in equivalence_queries() {
            let got = query(&g, &q, &QueryOptions::default())
                .expect("planned evaluation evaluates")
                .expect_solutions();
            prop_assert_eq!(
                multiset(&got),
                reference(&g, &q),
                "the engine diverged from the oracle on seed {} query:\n{}",
                seed, q
            );
        }
    }

    /// Under a guard, the engine either returns exactly the oracle's
    /// multiset or fails with a typed `Exhausted` — never a silently
    /// partial table.
    #[test]
    fn guarded_runs_are_exact_or_exhausted(
        recipes in 15usize..40,
        seed in 0u64..10_000,
        max_solutions in 1u64..400,
    ) {
        let g = materialized_graph(recipes, seed);
        let budget = Budget::new().with_max_solutions(max_solutions);
        for q in equivalence_queries() {
            let guard = budget.start();
            match query(&g, &q, &QueryOptions::guarded(&guard)) {
                Ok(result) => prop_assert_eq!(
                    multiset(&result.expect_solutions()),
                    reference(&g, &q),
                    "a guarded run returned a different table on seed {}",
                    seed
                ),
                Err(SparqlError::Exhausted(_)) => {}
                Err(other) => prop_assert!(
                    false,
                    "a guarded run failed with a non-budget error: {:?}",
                    other
                ),
            }
        }
    }

    /// A guard with headroom is invisible: the guarded table is the
    /// unguarded one, row for row.
    #[test]
    fn generous_guard_is_transparent_for_all_planners(
        recipes in 15usize..40,
        seed in 0u64..10_000,
    ) {
        let g = materialized_graph(recipes, seed);
        let budget = Budget::new().with_max_solutions(50_000_000);
        for q in equivalence_queries() {
            let bare = query(&g, &q, &QueryOptions::default())
                .expect("evaluates")
                .expect_solutions();
            let guard = budget.start();
            let guarded = query(&g, &q, &QueryOptions::guarded(&guard))
                .expect("generous guard never trips")
                .expect_solutions();
            prop_assert_eq!(bare, guarded);
        }
    }
}

// ---- tie-break regression -----------------------------------------------

/// Two disconnected patterns with identical statistics: the planner
/// ties, ties keep author order, and author order pins the exact row
/// sequence (first pattern outer, second inner, both in index order).
#[test]
fn tied_patterns_pin_solution_order() {
    let mut g = Graph::new();
    for i in 1..=2 {
        g.insert_iris(
            &format!("http://e/s{i}"),
            "http://e/p",
            &format!("http://e/o{i}"),
        );
        g.insert_iris(
            &format!("http://e/t{i}"),
            "http://e/q",
            &format!("http://e/u{i}"),
        );
    }
    let q = "SELECT ?a ?b ?c ?d WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d }";
    let expected: Vec<Vec<String>> = vec![
        vec!["s1".into(), "o1".into(), "t1".into(), "u1".into()],
        vec!["s1".into(), "o1".into(), "t2".into(), "u2".into()],
        vec!["s2".into(), "o2".into(), "t1".into(), "u1".into()],
        vec!["s2".into(), "o2".into(), "t2".into(), "u2".into()],
    ];
    let t = query(&g, q, &QueryOptions::default())
        .expect("evaluates")
        .expect_solutions();
    assert_eq!(t.local_rows(), expected, "tied patterns keep author order");
    assert_eq!(multiset(&t), reference(&g, q));
}
