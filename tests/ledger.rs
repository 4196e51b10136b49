//! Epoch-ledger properties: replaying any historical epoch must
//! reproduce the answers the engine gave at that epoch byte for byte,
//! commits must chain tamper-evident hashes, and branch worlds must
//! diverge without ever perturbing the parent chain.
//!
//! The deltas committed here are the same kinds of triples sessions
//! assert — newcomer profiles, hypotheses, question individuals — in
//! the style of `tests/incremental_closure.rs`.

use feo::core::ecosystem::{apply_hypothesis, assert_question};
use feo::core::{EngineBase, EngineError, EpochId, ExplainOptions, Hypothesis, Question};
use feo::foodkg::{
    curated, random_profiles, synthetic, user_to_rdf, FoodKg, Season, SyntheticConfig,
    SystemContext, UserProfile,
};
use feo::rdf::GraphStore;
use proptest::prelude::*;

/// Writes a seeded ABox delta: a newcomer profile, a hypothesis, and a
/// question individual.
fn write_delta(g: &mut impl GraphStore, kg: &FoodKg, user: &UserProfile, seed: u64) {
    let newcomer = random_profiles(kg, 1, seed ^ 0xBEEF)
        .pop()
        .unwrap_or_else(|| UserProfile::new("newcomer"));
    user_to_rdf(&newcomer, g);
    let hypothesis = match seed % 3 {
        0 => Hypothesis::Pregnant,
        1 => Hypothesis::FollowedDiet("Vegan".into()),
        _ => Hypothesis::AllergicTo("Broccoli".into()),
    };
    apply_hypothesis(&hypothesis, user, g);
    let question = match seed % 2 {
        0 => Question::WhyEat {
            food: format!("R{}", seed % 7),
        },
        _ => Question::WhatIf { hypothesis },
    };
    assert_question(&question, g);
}

fn world(recipes: usize, seed: u64) -> (FoodKg, UserProfile, EngineBase) {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes,
        seed,
        ..Default::default()
    });
    let user = random_profiles(&kg, 1, seed)
        .pop()
        .unwrap_or_else(|| UserProfile::new("u"));
    let ctx = SystemContext::new(Season::Autumn);
    let base = EngineBase::new(kg.clone(), user.clone(), ctx).expect("consistent world");
    (kg, user, base)
}

/// Everything observable about one answer: the rendered sentence, the
/// supporting statements, and the raw binding rows.
fn answer_fingerprint(base: &EngineBase, epoch: EpochId, question: &Question) -> String {
    let e = base
        .explain_as_of(epoch, question, &ExplainOptions::default())
        .expect("epoch is on the chain");
    format!("{}|{:?}|{:?}", e.answer, e.statements, e.bindings.rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random commit chain, then time travel: `explain_as_of(n)` after
    /// the whole chain is committed must equal the capture taken when
    /// epoch `n` *was* the head, byte for byte — later commits cannot
    /// perturb history. The hash chain must also verify end to end.
    #[test]
    fn replayed_epochs_answer_byte_identically(
        seed in 0u64..1024,
        recipes in 10usize..30,
        commits in 1usize..5,
    ) {
        let (kg, user, mut base) = world(recipes, seed);
        let question = Question::WhyEat { food: kg.recipes[0].id.clone() };

        let mut captured = vec![answer_fingerprint(&base, EpochId(0), &question)];
        for i in 0..commits {
            let delta_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E37);
            let epoch = base.commit_with("delta", |overlay| {
                write_delta(overlay, &kg, &user, delta_seed);
            });
            prop_assert_eq!(epoch, EpochId(i as u64 + 1), "epochs are dense");
            captured.push(answer_fingerprint(&base, epoch, &question));
        }

        for (n, expected) in captured.iter().enumerate() {
            let replayed = answer_fingerprint(&base, EpochId(n as u64), &question);
            prop_assert_eq!(
                &replayed, expected,
                "epoch {} stopped reproducing its answer after {} commits", n, commits
            );
        }
        prop_assert!(base.ledger().verify_chain().is_none(), "hash chain verifies");
        prop_assert_eq!(base.head(), EpochId(commits as u64));
    }

    /// Branches fork from any epoch and diverge through their own
    /// commits; the parent chain's hashes and answers must be bitwise
    /// untouched afterwards.
    #[test]
    fn branch_commits_never_perturb_parent_epochs(
        seed in 0u64..1024,
        recipes in 10usize..30,
        commits in 1usize..4,
    ) {
        let (kg, user, mut base) = world(recipes, seed);
        let question = Question::WhyEat { food: kg.recipes[0].id.clone() };

        for i in 0..commits {
            let delta_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E37);
            base.commit_with("delta", |overlay| {
                write_delta(overlay, &kg, &user, delta_seed);
            });
        }
        let head_before = base.head();
        let hashes: Vec<u64> = (0..=head_before.0)
            .map(|n| base.ledger().hash_at(EpochId(n)).expect("on chain"))
            .collect();
        let answers: Vec<String> = (0..=head_before.0)
            .map(|n| answer_fingerprint(&base, EpochId(n), &question))
            .collect();

        // Fork from a mid-chain epoch and diverge with two commits.
        let fork = EpochId(head_before.0 / 2);
        base.branch_create("what-if", fork).expect("fresh name");
        base.branch_apply("what-if", &Hypothesis::Pregnant).expect("branch applies");
        base.branch_apply("what-if", &Hypothesis::FollowedDiet("Vegan".into()))
            .expect("branch applies");

        prop_assert_eq!(base.head(), head_before, "main head never moves");
        for n in 0..=head_before.0 {
            prop_assert_eq!(
                base.ledger().hash_at(EpochId(n)).expect("on chain"),
                hashes[n as usize],
                "parent epoch {} hash changed after branch commits", n
            );
            prop_assert_eq!(
                &answer_fingerprint(&base, EpochId(n), &question),
                &answers[n as usize],
                "parent epoch {} answer changed after branch commits", n
            );
        }
        prop_assert!(base.ledger().verify_chain().is_none());

        let info = &base.branch_list()[0];
        prop_assert_eq!(info.fork, fork);
        prop_assert_eq!(info.commits, 2);
        prop_assert_eq!(info.head, EpochId(fork.0 + 2));
    }
}

/// The commit log: epoch 0 is the sealed base, every commit appends one
/// labeled row, and the rows carry the layer sizes.
#[test]
fn history_records_the_chain() {
    let (kg, user, mut base) = world(12, 42);
    assert_eq!(base.history().len(), 1);
    assert_eq!(base.history()[0].label, "base");
    assert_eq!(base.history()[0].triples, base.graph().len());

    base.commit_with("first", |overlay| write_delta(overlay, &kg, &user, 1));
    base.commit_with("second", |overlay| write_delta(overlay, &kg, &user, 2));

    let history = base.history();
    assert_eq!(history.len(), 3);
    assert_eq!(history[1].label, "first");
    assert_eq!(history[2].label, "second");
    assert_eq!(history[1].epoch, EpochId(1));
    assert!(history[1].triples > 0, "the delta committed triples");
    // Hashes chain: every row's hash is distinct.
    assert_ne!(history[0].hash, history[1].hash);
    assert_ne!(history[1].hash, history[2].hash);
}

/// Epochs past the head are unknown — `at_epoch` returns `None` and
/// `explain_as_of` surfaces a typed error.
#[test]
fn unknown_epochs_are_rejected() {
    let (_, _, base) = world(12, 43);
    assert!(base.at_epoch(EpochId(0)).is_some());
    assert!(base.at_epoch(EpochId(1)).is_none());
    let err = base
        .explain_as_of(
            EpochId(9),
            &Question::WhyEat { food: "R0".into() },
            &ExplainOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::UnknownEpoch(9)), "{err}");
}

/// Branch names are unique and `"main"` is reserved for the main chain.
#[test]
fn branch_names_are_guarded() {
    let (_, _, mut base) = world(12, 44);
    base.branch_create("fork", EpochId(0)).expect("fresh name");
    assert!(matches!(
        base.branch_create("fork", EpochId(0)),
        Err(EngineError::DuplicateBranch(_))
    ));
    assert!(matches!(
        base.branch_create("main", EpochId(0)),
        Err(EngineError::DuplicateBranch(_))
    ));
    assert!(matches!(
        base.branch_create("late", EpochId(7)),
        Err(EngineError::UnknownEpoch(7))
    ));
    assert!(matches!(
        base.branch_diff("fork", "ghost"),
        Err(EngineError::UnknownBranch(_))
    ));
}

/// A freshly forked branch is content-identical to its fork point, and
/// `branch_diff` reports divergence only after the branch commits.
#[test]
fn branch_diff_tracks_divergence() {
    let (kg, user, mut base) = world(12, 45);
    base.commit_with("delta", |overlay| write_delta(overlay, &kg, &user, 5));
    base.branch_create("what-if", base.head())
        .expect("fresh name");

    let clean = base.branch_diff("what-if", "main").expect("both exist");
    assert!(clean.is_empty(), "fresh fork equals its parent head");

    base.branch_apply("what-if", &Hypothesis::Pregnant)
        .expect("applies");
    let diverged = base.branch_diff("what-if", "main").expect("both exist");
    assert!(
        !diverged.only_in_a.is_empty(),
        "the hypothesis triples live only on the branch"
    );
    assert!(
        diverged.only_in_b.is_empty(),
        "the branch contains everything main has"
    );
}

/// The curated KG exercises the same replay property on real data.
#[test]
fn curated_chain_replays_byte_identically() {
    let kg = curated();
    let user = UserProfile::new("u")
        .likes(&["BroccoliCheddarSoup"])
        .allergies(&["Broccoli"]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = EngineBase::new(kg.clone(), user.clone(), ctx).expect("consistent");
    let question = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };

    let at0 = answer_fingerprint(&base, EpochId(0), &question);
    base.commit_with("delta", |overlay| write_delta(overlay, &kg, &user, 2));
    let at1 = answer_fingerprint(&base, EpochId(1), &question);
    base.commit_with("delta", |overlay| write_delta(overlay, &kg, &user, 3));

    assert_eq!(answer_fingerprint(&base, EpochId(0), &question), at0);
    assert_eq!(answer_fingerprint(&base, EpochId(1), &question), at1);
    assert!(base.ledger().verify_chain().is_none());
}
