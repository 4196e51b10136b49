//! Budgeted-explanation tests: `EngineBase::explain_batch_with_budget` must
//! degrade gracefully when a budget trips — returning every completed
//! explanation plus a `DegradationReport` — while non-budget errors stay
//! real errors.

use std::time::Duration;

use feo_core::{EngineBase, EngineError, ExplainOptions, ExplanationType, Parallelism, Question};
use feo_foodkg::{curated, Season, SystemContext, UserProfile};
use feo_rdf::governor::{Budget, CancelFlag, Resource};

fn base() -> EngineBase {
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    EngineBase::new(curated(), user, ctx).unwrap()
}

fn cq_questions() -> Vec<Question> {
    vec![
        Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        },
        Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        },
    ]
}

#[test]
fn unlimited_budget_completes_every_question() {
    let base = base();
    let outcome = base
        .explain_batch_with_budget(&cq_questions(), &Budget::new(), Parallelism::Off)
        .unwrap();
    assert!(outcome.is_complete());
    assert_eq!(outcome.explanations.len(), 2);
    assert_eq!(
        outcome.explanations[0].explanation_type,
        ExplanationType::Contextual
    );
    assert_eq!(
        outcome.explanations[1].explanation_type,
        ExplanationType::Contrastive
    );
}

#[test]
fn guarded_answers_match_unguarded_with_headroom() {
    let base = base();
    let question = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };
    let plain = base.explain(&question, &ExplainOptions::default()).unwrap();
    let guard = Budget::new()
        .with_deadline(Duration::from_secs(600))
        .start();
    let guarded = base
        .explain(&question, &ExplainOptions::guarded(&guard))
        .unwrap();
    assert_eq!(plain.answer, guarded.answer);
}

#[test]
fn expired_deadline_degrades_with_report() {
    let base = base();
    let budget = Budget::new().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let outcome = base
        .explain_batch_with_budget(&cq_questions(), &budget, Parallelism::Off)
        .unwrap();
    assert!(!outcome.is_complete());
    assert!(outcome.explanations.is_empty());
    let report = outcome.degradation.unwrap();
    assert_eq!(report.exhausted.resource, Resource::WallClock);
    assert!(report.completed.is_empty());
    assert_eq!(
        report.skipped,
        vec![ExplanationType::Contextual, ExplanationType::Contrastive]
    );
    // The report reads as a sentence naming the tripped resource.
    let rendered = report.to_string();
    assert!(rendered.contains("wall-clock deadline"), "{rendered}");
    assert!(rendered.contains("Contrastive"), "{rendered}");
}

#[test]
fn solution_budget_trips_in_query_stage() {
    let base = base();
    let budget = Budget::new().with_max_solutions(1);
    let outcome = base
        .explain_batch_with_budget(&cq_questions(), &budget, Parallelism::Off)
        .unwrap();
    let report = outcome.degradation.expect("one join row cannot suffice");
    assert_eq!(report.exhausted.resource, Resource::Solutions);
}

#[test]
fn cancellation_degrades_immediately() {
    let base = base();
    let flag = CancelFlag::new();
    flag.cancel();
    let budget = Budget::new().with_cancel(flag);
    let outcome = base
        .explain_batch_with_budget(&cq_questions(), &budget, Parallelism::Off)
        .unwrap();
    let report = outcome.degradation.unwrap();
    assert_eq!(report.exhausted.resource, Resource::Cancelled);
}

#[test]
fn non_budget_errors_abort_the_batch() {
    let base = base();
    let questions = vec![Question::WhyEat {
        food: "NoSuchRecipe".into(),
    }];
    let err = base
        .explain_batch_with_budget(&questions, &Budget::new(), Parallelism::Off)
        .unwrap_err();
    assert!(matches!(err, EngineError::UnknownEntity(_)), "{err:?}");
}

#[test]
fn guarded_trip_surfaces_as_typed_engine_error() {
    let base = base();
    let guard = Budget::new().with_deadline(Duration::ZERO).start();
    std::thread::sleep(Duration::from_millis(2));
    let err = base
        .explain(
            &Question::WhyEat {
                food: "CauliflowerPotatoCurry".into(),
            },
            &ExplainOptions::guarded(&guard),
        )
        .unwrap_err();
    match err {
        EngineError::Exhausted(e) => assert_eq!(e.resource, Resource::WallClock),
        other => panic!("expected Exhausted, got {other:?}"),
    }
}
