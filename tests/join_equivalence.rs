//! Join-algorithm equivalence: hash and nested joins are alternative
//! *physical operators*, never alternative *semantics* — and not even
//! alternative *orders*: both operators must return the byte-identical
//! row-ordered table for the same plan, on every storage backend
//! (in-memory indexes, mmap segments, overlay deltas stacked on
//! either). A tripping
//! `Guard` must yield a typed `SparqlError::Exhausted`, never a silently
//! truncated table.

use feo::core::ecosystem::assemble;
use feo::foodkg::{synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::sparql_prologue;
use feo::owl::Reasoner;
use feo::rdf::disk::segment::{write_segment, Segment};
use feo::rdf::governor::Budget;
use feo::rdf::{Graph, GraphStore, GraphView, Overlay};
use feo::sparql::{query, JoinAlgo, QueryOptions, QueryResult, SparqlError};
use proptest::prelude::*;
use std::path::PathBuf;

/// `None` is the planner's own choice; the two `Some` entries force
/// each operator onto every join step, whatever its input width.
const FORCES: [Option<JoinAlgo>; 3] = [None, Some(JoinAlgo::Nested), Some(JoinAlgo::Hash)];

/// Queries chosen to give the operators real work: a ground-object star,
/// variable-chain joins probing the hash operator's subject and object
/// indexes, mixed boundness arriving from an OPTIONAL, and an aggregate
/// consuming join output.
fn equivalence_queries() -> Vec<String> {
    let p = sparql_prologue();
    // The generator's Zipf sampling makes the low-index ingredients the
    // most frequent, so this star has large per-member scans and a small
    // intersection.
    let ing0 = FoodKg::iri("SynIngredient0");
    let ing1 = FoodKg::iri("SynIngredient1");
    vec![
        // Star on a shared subject with ground objects: k triple
        // patterns intersecting their subject sets.
        format!(
            "{p}SELECT ?r WHERE {{\n\
               ?r food:hasIngredient <{ing0}> .\n\
               ?r food:hasIngredient <{ing1}> .\n\
               ?r a food:Recipe .\n\
             }}"
        ),
        // Same star but the shared variable is already bound when the
        // star runs: each member acts as a semijoin filter.
        format!(
            "{p}SELECT ?r ?c WHERE {{\n\
               ?r food:calories ?c .\n\
               FILTER (?c > 300) .\n\
               ?r food:hasIngredient <{ing0}> .\n\
               ?r food:hasIngredient <{ing1}> .\n\
               ?r a food:Recipe .\n\
             }}"
        ),
        // Adversarial author order: the first two patterns share no
        // variable; only the third connects them (subject–object join).
        format!(
            "{p}SELECT ?r ?i ?s WHERE {{\n\
               ?r food:calories ?c .\n\
               ?i food:availableInSeason ?s .\n\
               ?r food:hasIngredient ?i .\n\
               FILTER (?c > 700) .\n\
             }}"
        ),
        // Variable chain joining on the subject column and then the
        // object column of the scan.
        format!(
            "{p}SELECT ?r ?i ?n WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:hasIngredient ?i .\n\
               ?i food:hasNutrient ?n .\n\
             }}"
        ),
        // OPTIONAL feeds partially-bound rows into the next join.
        format!(
            "{p}SELECT ?i ?x ?n WHERE {{\n\
               ?i a food:Ingredient .\n\
               OPTIONAL {{ ?i food:availableInSeason ?x }}\n\
               ?i food:hasNutrient ?n .\n\
             }}"
        ),
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

fn segment_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("feo-joineq-{}-{tag}.seg", std::process::id()))
}

/// Extra cross-links layered over a base so overlay-backed scans
/// concatenate a real delta (duplicates against the base are no-ops, so every insert
/// here is chosen to be new).
fn extend_delta(delta: &mut impl GraphStore) {
    let ing0 = FoodKg::iri("SynIngredient0");
    let ing1 = FoodKg::iri("SynIngredient1");
    for r in 0..4 {
        let recipe = FoodKg::iri(&format!("DeltaRecipe{r}"));
        delta.insert_iris(
            &recipe,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "http://purl.org/heals/food#Recipe",
        );
        delta.insert_iris(&recipe, "http://purl.org/heals/food#hasIngredient", &ing0);
        if r % 2 == 0 {
            delta.insert_iris(&recipe, "http://purl.org/heals/food#hasIngredient", &ing1);
        }
    }
}

/// Byte-level table identity: the row *order* must match, not just the
/// multiset — the determinism contract says the physical operator is
/// invisible in the output.
fn rows(result: QueryResult) -> Vec<Vec<String>> {
    result.expect_solutions().local_rows().to_vec()
}

/// Every force mode must reproduce the reference table byte-for-byte on
/// the given view.
fn assert_all_combos_identical<G: GraphView + Copy>(view: G, q: &str, backend: &str) {
    let reference = rows(
        query(
            view,
            q,
            &QueryOptions {
                force_join: Some(JoinAlgo::Hash),
                ..Default::default()
            },
        )
        .expect("hash reference evaluates"),
    );
    for force in FORCES {
        let opts = QueryOptions {
            force_join: force,
            ..Default::default()
        };
        let got = rows(query(view, q, &opts).expect("forced evaluation evaluates"));
        assert_eq!(
            got, reference,
            "{backend}: force={force:?} diverged on:\n{q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forced hash / nested and the planner's own choice return byte-identical row-ordered tables on the in-memory
    /// backend and on overlay deltas stacked over it.
    #[test]
    fn forced_algorithms_match_in_memory(
        recipes in 15usize..45,
        seed in 0u64..10_000,
    ) {
        let g = materialized_graph(recipes, seed);
        let mut overlay = Overlay::new(&g);
        extend_delta(&mut overlay);
        for q in equivalence_queries() {
            assert_all_combos_identical(&g, &q, "memory");
            assert_all_combos_identical(&overlay, &q, "memory+overlay");
        }
    }

    /// The same contract over an mmap segment: the segment's scans and
    /// the overlay's concatenated scans must be order-identical to the
    /// hash path.
    #[test]
    fn forced_algorithms_match_on_segment(
        recipes in 15usize..35,
        seed in 0u64..10_000,
    ) {
        let g = materialized_graph(recipes, seed);
        let path = segment_path(&format!("{recipes}-{seed}"));
        write_segment(&path, &g, g.stats(), 0).expect("segment writes");
        let seg = Segment::open(&path, true).expect("segment opens");
        let mut overlay = Overlay::new(&seg);
        extend_delta(&mut overlay);
        for q in equivalence_queries() {
            assert_all_combos_identical(&seg, &q, "segment");
            assert_all_combos_identical(&overlay, &q, "segment+overlay");
        }
        drop(overlay);
        drop(seg);
        let _ = std::fs::remove_file(&path);
    }

    /// Under a guard, every forced operator either returns exactly the
    /// unguarded table or fails with a typed `Exhausted` — never a
    /// silently partial table. (Operators may legitimately differ in
    /// *whether* they trip, since the budget counts rows as produced.)
    #[test]
    fn guarded_forced_runs_are_exact_or_exhausted(
        recipes in 15usize..40,
        seed in 0u64..10_000,
        max_solutions in 1u64..400,
    ) {
        let g = materialized_graph(recipes, seed);
        let budget = Budget::new().with_max_solutions(max_solutions);
        for q in equivalence_queries() {
            let reference = rows(
                query(&g, &q, &Default::default()).expect("unguarded evaluates"),
            );
            for force in FORCES {
                let guard = budget.start();
                let opts = QueryOptions {
                    guard: Some(&guard),
                    force_join: force,
                    ..Default::default()
                };
                match query(&g, &q, &opts) {
                    Ok(result) => prop_assert_eq!(
                        &rows(result),
                        &reference,
                        "guarded force={:?} returned a different table on seed {}",
                        force, seed
                    ),
                    Err(SparqlError::Exhausted(_)) => {}
                    Err(other) => prop_assert!(
                        false,
                        "force={:?} failed with a non-budget error: {:?}",
                        force, other
                    ),
                }
            }
        }
    }
}

// ---- EXPLAIN determinism ------------------------------------------------

/// The planner pins the join order and algorithm choice: the
/// same query over the same graph renders the same plan twice.
#[test]
fn explain_is_deterministic() {
    let g = materialized_graph(30, 7);
    let q = &equivalence_queries()[0];
    let explain = |g: &Graph| -> String {
        match query(
            g,
            q,
            &QueryOptions {
                explain: true,
                ..Default::default()
            },
        )
        .expect("explain evaluates")
        {
            QueryResult::Plan(p) => p,
            other => panic!("EXPLAIN returned {other:?}"),
        }
    };
    let first = explain(&g);
    let second = explain(&g);
    assert_eq!(first, second, "EXPLAIN must be deterministic");
}
