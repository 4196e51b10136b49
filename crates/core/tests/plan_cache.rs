//! The memo of parsed ad-hoc query text, at the engine level.
//! Explanations run the templates prepared with the base and never
//! look text up; `Session::query` parses a text once and plans it
//! against its own view every time: at the head, after a commit, at a
//! past epoch and on a branch.

use feo_core::ecosystem::assert_question;
use feo_core::{EngineBase, EpochId, ExplainOptions, Hypothesis, Question, Session};
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
/// and look nothing up — the memo's counters stay at zero however many
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

/// Ad-hoc text is memoised per text: a repeat is a pure hit, a new
/// text gets its own entry.
#[test]
fn repeated_query_hits_the_memo() {
    let base = base();
    let text = recipes_query();
    let first = base.session().query(&text).unwrap().expect_solutions();
    let stats = base.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 0, 1));

    let again = base.session().query(&text).unwrap().expect_solutions();
    assert_eq!(again, first, "the memoised parse answers identically");
    let stats = base.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");

    let other = format!("{}ASK {{ ?s ?p ?o }}", sparql_prologue());
    base.session().query(&other).unwrap();
    assert_eq!(base.plan_cache_stats().entries, 2);
}

/// One text, asked at the head, after a commit, at epoch 0 and on a
/// branch forked after the commit, parses once — and each answer is
/// its own view's: the committed question is seen at the head and on
/// the branch, not at epoch 0.
#[test]
fn one_parse_serves_every_epoch_and_branch() {
    let user = UserProfile::new("user").likes(&["BroccoliCheddarSoup"]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = EngineBase::new(curated(), user, ctx).unwrap();
    let text = format!(
        "{}SELECT ?p WHERE {{ <{}> ?p ?o }}",
        sparql_prologue(),
        cq1().iri()
    );
    let rows = |session: Session<'_>| session.query(&text).unwrap().expect_solutions().len();

    assert_eq!(rows(base.session()), 0, "not yet committed");
    base.commit_with("question", |overlay| {
        assert_question(&cq1(), overlay);
    });
    base.branch_create("b", base.head()).unwrap();
    let at_head = rows(base.session());
    assert!(at_head > 0, "the commit is seen at the head");
    assert_eq!(
        rows(base.at_epoch(EpochId(0)).unwrap()),
        0,
        "not at epoch 0"
    );
    assert_eq!(rows(base.branch_session("b").unwrap()), at_head);

    let stats = base.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.entries),
        (1, 3, 1),
        "{stats:?}"
    );
}

/// A text that does not parse is an error every time it is asked: it is
/// not memoised.
#[test]
fn parse_errors_are_not_memoised() {
    let base = base();
    for _ in 0..2 {
        assert!(base.session().query("SELEKT nonsense").is_err());
    }
    let stats = base.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.entries),
        (2, 0, 0),
        "{stats:?}"
    );
}
