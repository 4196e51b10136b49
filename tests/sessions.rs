//! Snapshot + overlay architecture tests: per-question session
//! isolation, concurrent explanation over one shared base, and
//! order-insensitive engine builders.

use std::sync::Arc;
use std::thread;

use feo::core::{EngineBase, ExplainOptions, Hypothesis, Population, Question};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};
use feo::recommender::{HealthCoach, Recommender};

fn paper_user() -> UserProfile {
    UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"])
}

fn base_full() -> EngineBase {
    let kg = curated();
    let user = paper_user();
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let coach_kg = curated();
    let coach = HealthCoach::new(&coach_kg);
    let recs = coach.recommend(&user, &ctx, 10);
    let population = Population::generate(&kg, 150, 42);
    EngineBase::new(kg, user, ctx)
        .unwrap()
        .with_population(population)
        .with_recommendations(recs)
}

fn cq1() -> Question {
    Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    }
}

fn cq2() -> Question {
    Question::WhyEatOver {
        preferred: "ButternutSquashSoup".into(),
        alternative: "BroccoliCheddarSoup".into(),
    }
}

fn cq3() -> Question {
    Question::WhatIf {
        hypothesis: Hypothesis::Pregnant,
    }
}

/// Regression: answering CQ2 first must not change CQ1's bindings.
/// Under the old single-graph engine, question individuals and their
/// inferred classifications accumulated in the shared graph; with
/// per-question sessions the CQ1 result is byte-identical whether or
/// not CQ2 ran before it.
#[test]
fn cq2_then_cq1_bindings_are_byte_identical() {
    let base = base_full();

    let alone = base.explain(&cq1(), &ExplainOptions::default()).unwrap();
    let _ = base.explain(&cq2(), &ExplainOptions::default()).unwrap();
    let after = base.explain(&cq1(), &ExplainOptions::default()).unwrap();

    assert_eq!(alone.answer, after.answer);
    assert_eq!(alone.bindings.rows, after.bindings.rows);
    assert_eq!(
        format!("{:?}", alone.bindings),
        format!("{:?}", after.bindings),
        "CQ1 bindings must be byte-identical with and without a preceding CQ2"
    );
}

/// Sessions write only into their overlay: the shared base graph is
/// bit-for-bit unchanged by explain calls.
#[test]
fn explain_leaves_the_base_untouched() {
    let base = base_full();
    let triples = base.graph().len();
    let terms = base.graph().term_count();
    for q in [cq1(), cq2(), cq3()] {
        base.explain(&q, &ExplainOptions::default()).unwrap();
    }
    assert_eq!(base.graph().len(), triples);
    assert_eq!(base.graph().term_count(), terms);
}

/// CQ1–CQ3 answered concurrently from many threads over one
/// `Arc<EngineBase>` produce exactly the single-threaded answers.
#[test]
fn concurrent_sessions_match_single_threaded() {
    let base = Arc::new(base_full());
    let questions = [cq1(), cq2(), cq3()];
    let expected: Vec<String> = questions
        .iter()
        .map(|q| base.explain(q, &ExplainOptions::default()).unwrap().answer)
        .collect();

    let handles: Vec<_> = (0..9)
        .map(|i| {
            let base = Arc::clone(&base);
            let q = questions[i % 3].clone();
            thread::spawn(move || {
                (0..3)
                    .map(|_| base.explain(&q, &ExplainOptions::default()).unwrap().answer)
                    .collect::<Vec<String>>()
            })
        })
        .collect();

    for (i, h) in handles.into_iter().enumerate() {
        let answers = h.join().expect("thread panicked");
        for a in answers {
            assert_eq!(a, expected[i % 3], "thread {i} diverged");
        }
    }
}

/// `with_population` and `with_recommendations` commute: either order
/// yields the same graph and the same answers for the explanation types
/// that depend on them.
#[test]
fn builder_order_is_insensitive() {
    let make = |pop_first: bool| {
        let kg = curated();
        let user = paper_user();
        let ctx = SystemContext::new(Season::Autumn).region("Florida");
        let coach_kg = curated();
        let coach = HealthCoach::new(&coach_kg);
        let recs = coach.recommend(&user, &ctx, 10);
        let population = Population::generate(&kg, 150, 42);
        let base = EngineBase::new(kg, user, ctx).unwrap();
        if pop_first {
            base.with_population(population).with_recommendations(recs)
        } else {
            base.with_recommendations(recs).with_population(population)
        }
    };
    let a = make(true);
    let b = make(false);
    assert_eq!(a.graph().len(), b.graph().len());
    assert_eq!(a.graph().term_count(), b.graph().term_count());
    let dependents = [
        Question::WhatOtherUsers {
            food: "LentilSoup".into(),
        },
        Question::WhatEvidenceForDiet {
            diet: "Vegetarian".into(),
        },
        Question::WhatSteps {
            food: "ButternutSquashSoup".into(),
        },
    ];
    for q in dependents {
        assert_eq!(
            a.explain(&q, &ExplainOptions::default()).unwrap().answer,
            b.explain(&q, &ExplainOptions::default()).unwrap().answer,
            "{q:?} differs between builder orders"
        );
    }
}
