//! Concurrency stress: budgets and cancellation racing an execution
//! from a second thread must always surface as typed [`Exhausted`]
//! partials — never a panic, never a torn closure, never an incoherent
//! index. Threads exist at one level, the question: `explain_batch`
//! fans a batch across workers, while one closure always runs on the
//! thread that asked for it. Both are raced here. The partial closure
//! a tripped materialization leaves behind must be sound: a superset of
//! the input and a subset of the full fixpoint.

use std::collections::BTreeSet;
use std::thread;
use std::time::Duration;

use feo::core::ecosystem::assemble;
use feo::core::{EngineBase, EngineError, ExplainOptions, Population, Question};
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::owl::{MaterializeOptions, Reasoner, ReasonerError};
use feo::rdf::governor::{Budget, CancelFlag, Resource};
use feo::rdf::{Graph, Parallelism};

fn assembled(recipes: usize, seed: u64) -> Graph {
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
    assemble(&kg, &user, &ctx)
}

/// The full unguarded fixpoint, used as the soundness reference.
fn full_closure(template: &Graph) -> BTreeSet<[u32; 3]> {
    let mut g = template.clone();
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded materialization converges");
    g.iter_ids()
        .map(|[s, p, o]| [s.index() as u32, p.index() as u32, o.index() as u32])
        .collect()
}

fn triples(g: &Graph) -> BTreeSet<[u32; 3]> {
    g.iter_ids()
        .map(|[s, p, o]| [s.index() as u32, p.index() as u32, o.index() as u32])
        .collect()
}

/// Asserts the invariant every interrupted run must uphold: whatever
/// closure fragment survived is coherent, contains the input, and
/// derives nothing outside the true fixpoint.
fn assert_sound_partial(g: &Graph, input: &BTreeSet<[u32; 3]>, full: &BTreeSet<[u32; 3]>) {
    assert!(g.check_index_coherence(), "torn indexes after a trip");
    let partial = triples(g);
    assert!(
        partial.is_superset(input),
        "a trip must never lose asserted triples"
    );
    assert!(
        partial.is_subset(full),
        "a trip must never fabricate triples outside the fixpoint"
    );
}

/// A budget cap hit mid-flight during materialization yields a typed
/// `InferredTriples` trip and a sound partial closure, at several cap
/// positions. (The name predates the removal of intra-closure fan-out;
/// it is kept because the test id is pinned.)
#[test]
fn budget_trips_during_parallel_materialization_are_typed_and_sound() {
    let template = assembled(120, 7);
    let full = full_closure(&template);
    let input = triples(&template);
    for cap in [1u64, 5, 50, 500] {
        let mut g = template.clone();
        let budget = Budget::new().with_max_inferred(cap);
        let guard = budget.start();
        let result = Reasoner::new().materialize(&mut g, &MaterializeOptions::guarded(&guard));
        match result {
            Err(ReasonerError::Exhausted { exhausted, .. }) => {
                assert_eq!(exhausted.resource, Resource::InferredTriples);
            }
            Ok(_) => panic!("cap {cap} should trip on this KG"),
        }
        assert_sound_partial(&g, &input, &full);
    }
}

/// Cancellation raised from a second thread mid-materialization: the
/// reasoner either finishes first (small KG, fast machine) or stops
/// with a typed `Cancelled` trip — and the graph is sound either way.
#[test]
fn cancellation_from_second_thread_during_materialization() {
    let template = assembled(200, 11);
    let full = full_closure(&template);
    let input = triples(&template);
    for delay_us in [0u64, 50, 200, 1000, 5000] {
        let mut g = template.clone();
        let flag = CancelFlag::new();
        let budget = Budget::new().with_cancel(flag.clone());
        let guard = budget.start();
        let canceller = {
            let flag = flag.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_micros(delay_us));
                flag.cancel();
            })
        };
        let result = Reasoner::new().materialize(&mut g, &MaterializeOptions::guarded(&guard));
        canceller.join().expect("canceller panicked");
        match result {
            Ok(_) => assert_eq!(
                triples(&g),
                full,
                "a completed run must be the full fixpoint"
            ),
            Err(ReasonerError::Exhausted { exhausted, .. }) => {
                assert_eq!(exhausted.resource, Resource::Cancelled);
                assert_sound_partial(&g, &input, &full);
            }
        }
    }
}

fn stress_base() -> (EngineBase, Vec<Question>) {
    let kg = synthetic(&SyntheticConfig {
        recipes: 40,
        ingredients: 30,
        seed: 3,
        ..Default::default()
    });
    let population = Population::generate(&kg, 40, 3);
    let names: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
    let user = UserProfile::new("u")
        .likes(&[&names[0]])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let base = EngineBase::new(kg, user, ctx)
        .expect("synthetic world is consistent")
        .with_population(population);
    let questions = (0..24)
        .map(|i| {
            let food = names[i % names.len()].clone();
            match i % 3 {
                0 => Question::WhyEat { food },
                1 => Question::WhyEatOver {
                    preferred: food,
                    alternative: names[(i + 5) % names.len()].clone(),
                },
                _ => Question::WhatOtherUsers { food },
            }
        })
        .collect();
    (base, questions)
}

/// Cancelling a parallel `explain_batch` from a second thread: every
/// slot resolves to a real explanation or a typed `Exhausted` error —
/// no panics, no missing slots — and the shared base is untouched.
#[test]
fn cancellation_from_second_thread_during_explain_batch() {
    let (base, questions) = stress_base();
    let base_triples = base.graph().len();
    let base_terms = base.graph().term_count();
    for delay_us in [0u64, 100, 500, 2000, 10_000] {
        let flag = CancelFlag::new();
        let budget = Budget::new().with_cancel(flag.clone());
        let guard = budget.start();
        let opts = ExplainOptions {
            guard: Some(&guard),
            parallelism: Parallelism::Fixed(4),
        };
        let canceller = {
            let flag = flag.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_micros(delay_us));
                flag.cancel();
            })
        };
        let results = base.explain_batch(&questions, &opts);
        canceller.join().expect("canceller panicked");
        assert_eq!(results.len(), questions.len(), "every slot must resolve");
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(e) => assert!(!e.answer.is_empty(), "slot {i} returned an empty answer"),
                Err(EngineError::Exhausted(exhausted)) => {
                    assert_eq!(exhausted.resource, Resource::Cancelled, "slot {i}");
                }
                Err(other) => panic!("slot {i} failed with a non-budget error: {other:?}"),
            }
        }
        assert_eq!(base.graph().len(), base_triples, "base graph grew");
        assert_eq!(
            base.graph().term_count(),
            base_terms,
            "base dictionary grew"
        );
    }
}

/// The budgeted aggregate: after a mid-batch trip the outcome still
/// partitions the batch exactly into completed + skipped, every
/// returned explanation is complete, and the trip is typed.
#[test]
fn budgeted_batch_degrades_gracefully_under_parallelism() {
    let (base, questions) = stress_base();
    // Generous reference run — must complete everything.
    let outcome = base
        .explain_batch_with_budget(&questions, &Budget::new(), Parallelism::Fixed(4))
        .expect("no hard errors");
    assert!(outcome.is_complete());
    assert_eq!(outcome.explanations.len(), questions.len());

    // Tight solution budgets trip somewhere in the middle.
    for max_solutions in [1u64, 20, 200] {
        let budget = Budget::new().with_max_solutions(max_solutions);
        let outcome = base
            .explain_batch_with_budget(&questions, &budget, Parallelism::Fixed(4))
            .expect("budget trips are not hard errors");
        match outcome.degradation {
            Some(report) => {
                assert_eq!(
                    report.completed.len() + report.skipped.len(),
                    questions.len(),
                    "completed + skipped must cover the batch exactly"
                );
                assert_eq!(outcome.explanations.len(), report.completed.len());
                assert!(!report.skipped.is_empty());
            }
            None => assert_eq!(outcome.explanations.len(), questions.len()),
        }
    }
}

/// Many racing cancellers against many batches: a smoke loop shaking
/// out ordering-dependent panics (poisoned locks, torn counters) that
/// a single race rarely hits.
#[test]
fn repeated_cancel_races_never_panic() {
    let (base, questions) = stress_base();
    for round in 0..8u64 {
        let flag = CancelFlag::new();
        let budget = Budget::new().with_cancel(flag.clone());
        let guard = budget.start();
        let opts = ExplainOptions {
            guard: Some(&guard),
            parallelism: Parallelism::Fixed(4),
        };
        let canceller = {
            let flag = flag.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_micros(round * 300));
                flag.cancel();
            })
        };
        let results = base.explain_batch(&questions[..8], &opts);
        canceller.join().expect("canceller panicked");
        assert_eq!(results.len(), 8);
        // Racing sessions run the prepared templates: the ad-hoc plan
        // cache is never touched.
        let stats = base.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }
}
