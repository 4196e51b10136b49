//! Cross-thread cancellation under serving conditions, at the engine
//! boundary: a `CancelFlag` raised from another thread must stop
//! `explain_batch_with_budget` promptly with a *typed* outcome, and
//! the shared `EngineBase` must remain fully usable afterwards.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use feo_core::{EngineBase, ExplainOptions, Hypothesis, Question};
use feo_foodkg::{curated, Season, SystemContext, UserProfile};
use feo_rdf::governor::{Budget, CancelFlag, Resource};
use feo_rdf::Parallelism;
use feo_sparql::join_counters;

fn base() -> Arc<EngineBase> {
    let user = UserProfile::new("cancel-user");
    let ctx = SystemContext::new(Season::Autumn);
    Arc::new(EngineBase::new(curated(), user, ctx).expect("curated is consistent"))
}

/// A batch of `2 * repeats` questions.
fn long_batch(repeats: usize) -> Vec<Question> {
    let mut questions = Vec::new();
    for _ in 0..repeats {
        questions.push(Question::WhyEat {
            food: "CauliflowerPotatoCurry".to_string(),
        });
        questions.push(Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        });
    }
    questions
}

#[test]
fn cancel_mid_batch_returns_typed_outcome_promptly() {
    // 4,096 questions, as `client_disconnect_cancels_inflight_work`
    // sends: far more than can finish between the first join and the
    // flag flipping.
    const QUESTIONS: usize = 4096;
    let base = base();
    // Join operators run on every explanation's competency query. The
    // counters are process-wide, so another test's work can move them
    // first; a cancel that lands before the batch starts still has to
    // yield the typed outcome checked below.
    let joins = || {
        let j = join_counters();
        j.nested + j.hash
    };
    let idle = joins();
    let cancel = CancelFlag::new();
    let budget = Budget::new()
        .with_deadline(Duration::from_secs(60))
        .with_cancel(cancel.clone());
    let worker = {
        let base = Arc::clone(&base);
        thread::spawn(move || {
            let started = Instant::now();
            let outcome = base.explain_batch_with_budget(
                &long_batch(QUESTIONS / 2),
                &budget,
                Parallelism::Off,
            );
            (outcome, started.elapsed())
        })
    };
    // Cancel once the batch is observably running: its first question
    // has joined.
    let spawned = Instant::now();
    while joins() == idle {
        assert!(
            spawned.elapsed() < Duration::from_secs(5),
            "batch never started"
        );
        thread::sleep(Duration::from_millis(1));
    }
    let cancelled_at = Instant::now();
    cancel.cancel();
    let (outcome, total) = worker.join().expect("worker returns, not panics");

    // Typed degradation, not an opaque abort: the batch reports which
    // explanations completed, which were skipped, and why.
    let outcome = outcome.expect("budgeted batch returns Ok with a report");
    assert!(
        !outcome.is_complete(),
        "cancellation must show in the outcome"
    );
    let degradation = outcome.degradation.expect("degradation report present");
    assert_eq!(degradation.exhausted.resource, Resource::Cancelled);
    assert!(
        !degradation.skipped.is_empty(),
        "cancelled batch must report skipped work"
    );
    assert_eq!(
        degradation.completed.len() + degradation.skipped.len(),
        QUESTIONS,
        "every question accounted for exactly once"
    );
    assert_eq!(outcome.explanations.len(), degradation.completed.len());

    // Prompt: the worker must return within a bounded wall-clock of
    // the flag flipping, far below the 60s deadline.
    let after_cancel = cancelled_at.elapsed();
    assert!(
        after_cancel < Duration::from_secs(5),
        "worker took {after_cancel:?} to notice cancellation (total run {total:?})"
    );
}

#[test]
fn engine_stays_coherent_after_cancellation() {
    let base = base();
    let cancel = CancelFlag::new();
    let budget = Budget::new().with_cancel(cancel.clone());
    // Cancel before the batch even starts: everything is skipped.
    cancel.cancel();
    let outcome = base
        .explain_batch_with_budget(&long_batch(4), &budget, Parallelism::Off)
        .expect("typed outcome");
    assert!(!outcome.is_complete());

    // The same base, fresh budget: full service and correct answers
    // (no poisoned shared state).
    let clean = base
        .explain_batch_with_budget(
            &[Question::WhyEat {
                food: "CauliflowerPotatoCurry".to_string(),
            }],
            &Budget::new(),
            Parallelism::Off,
        )
        .expect("clean run");
    assert!(clean.is_complete());
    assert!(clean.explanations[0].answer.contains("current season"));
    let session_answer = base
        .explain(
            &Question::WhyEat {
                food: "CauliflowerPotatoCurry".to_string(),
            },
            &ExplainOptions::default(),
        )
        .expect("session path unaffected");
    assert_eq!(session_answer.answer, clean.explanations[0].answer);
}
