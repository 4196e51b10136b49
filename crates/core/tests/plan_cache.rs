//! Plan-cache behavior at the engine level. Explanations run the
//! templates prepared with the base and never look a plan up; the cache
//! serves ad-hoc query text: a repeated `Session::query` on an unchanged
//! epoch reuses its plan (hits grow, misses do not), and a commit moves
//! the head to a fresh cache partition while older epochs' entries stay
//! retained for time-travel queries.

use feo_core::ecosystem::assert_question;
use feo_core::{EngineBase, EpochId, ExplainOptions, Hypothesis, Question};
use feo_foodkg::{curated, Season, SystemContext, UserProfile};
use feo_ontology::ns::sparql_prologue;

fn base() -> EngineBase {
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    EngineBase::new(curated(), user, ctx).unwrap()
}

fn cq1() -> Question {
    Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    }
}

fn recipes_query() -> String {
    format!(
        "{}SELECT ?r WHERE {{ ?r a food:Recipe }}",
        sparql_prologue()
    )
}

/// The contract: explanations parse nothing, plan nothing
/// and look nothing up — the cache's counters stay at zero however many
/// questions, of whichever kind, are asked.
#[test]
fn explain_makes_no_plan_cache_lookups() {
    let base = base();
    let questions = [
        cq1(),
        Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        },
        Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
        Question::WhyGenerally {
            food: "CauliflowerPotatoCurry".into(),
        },
    ];
    for _ in 0..2 {
        for question in &questions {
            base.explain(question, &ExplainOptions::default()).unwrap();
        }
    }
    let stats = base.plan_cache_stats();
    assert_eq!(stats.hits + stats.misses, 0, "no lookups: {stats:?}");
    assert_eq!(stats.entries, 0);
}

/// Ad-hoc text is cached per query: a repeat is a pure hit, a new text
/// gets its own entry.
#[test]
fn repeated_query_hits_the_plan_cache() {
    let base = base();
    let text = recipes_query();
    let first = base.session().query(&text).unwrap().expect_solutions();
    let stats = base.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 0, 1));

    let again = base.session().query(&text).unwrap().expect_solutions();
    assert_eq!(again, first, "the cached plan answers identically");
    let stats = base.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");

    let other = format!("{}ASK {{ ?s ?p ?o }}", sparql_prologue());
    base.session().query(&other).unwrap();
    assert_eq!(base.plan_cache_stats().entries, 2);
}

/// A commit moves the head epoch. With epoch-keyed entries it drops
/// nothing: a query at the new head re-plans under a fresh key (the
/// statistics changed) while the epoch-0 plan stays retained for
/// time-travel queries.
#[test]
fn commit_rekeys_the_head() {
    let user = UserProfile::new("user").likes(&["BroccoliCheddarSoup"]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = EngineBase::new(curated(), user, ctx).unwrap();
    let text = recipes_query();
    base.session().query(&text).unwrap();
    for _ in 0..2 {
        base.commit_with("question", |overlay| {
            assert_question(&cq1(), overlay);
        });
    }
    let committed = base.plan_cache_stats();
    assert!(
        committed.epoch >= 2,
        "every commit bumps the epoch: {committed:?}"
    );
    assert_eq!(committed.hits + committed.misses, 1, "{committed:?}");

    base.session().query(&text).unwrap();
    base.session().query(&text).unwrap();
    base.at_epoch(EpochId(0)).unwrap().query(&text).unwrap();
    let stats = base.plan_cache_stats();
    assert_eq!(stats.misses, 2, "the head re-plans once: {stats:?}");
    assert_eq!(stats.hits, 2, "head repeat and epoch 0 both hit: {stats:?}");
    assert_eq!(stats.entries, 2, "epoch 0's plan is retained: {stats:?}");
}
