//! What-if worlds closed under the rules CQ3 can read, against worlds
//! closed under every rule.
//!
//! A what-if closes its hypothesis only under the rules that can derive
//! a triple CQ3 reads. The reference is a named branch where the
//! hypothesis and the question were committed: a commit closes under
//! every rule (`EngineBase::rules`), so the what-if asked on the branch
//! adds nothing and CQ3 reads a fully closed world. For every
//! hypothesis — pregnancy, every diet and every ingredient as an
//! allergen — on the curated KG and on the benchmark's world, at epoch
//! 0 and at the head of a 16-commit chain, the explanation and its
//! bindings must be the reference's, as JSON.

use feo::core::ecosystem::{apply_hypothesis, assert_question};
use feo::core::{EngineBase, EpochId, ExplainOptions, Explanation, Hypothesis, Question, ToJson};
use feo::foodkg::{curated, synthetic, Season, SyntheticConfig, SystemContext, UserProfile};

fn outcome(explanation: &Explanation) -> String {
    explanation.to_json() + &explanation.bindings.to_json()
}

/// Asks every hypothesis at `epoch` and on a branch forked there with
/// it committed; returns the binding rows found.
fn what_ifs_match_committed_worlds(base: &mut EngineBase, epoch: EpochId) -> usize {
    let kg = base.kg();
    let mut hypotheses = vec![Hypothesis::Pregnant];
    hypotheses.extend(
        kg.diets
            .iter()
            .map(|d| Hypothesis::FollowedDiet(d.id.clone())),
    );
    hypotheses.extend((kg.ingredients.iter()).map(|i| Hypothesis::AllergicTo(i.id.clone())));
    let user = base.user().clone();
    let mut rows = 0;
    for (i, hypothesis) in hypotheses.into_iter().enumerate() {
        let question = Question::WhatIf {
            hypothesis: hypothesis.clone(),
        };
        let explain = |session: Option<feo::core::Session<'_>>| {
            (session.expect("the epoch or branch exists"))
                .explain(&question, &ExplainOptions::default())
                .unwrap_or_else(|e| panic!("{question:?}: {e}"))
        };
        let got = explain(base.at_epoch(epoch));
        let branch = format!("what-if-{}-{i}", epoch.0);
        base.branch_create(&branch, epoch).expect("a fresh name");
        base.branch_commit_with(&branch, |world| {
            apply_hypothesis(&hypothesis, &user, world);
            assert_question(&question, world);
        })
        .expect("the branch exists");
        let want = explain(base.branch_session(&branch));
        assert_eq!(
            outcome(&got),
            outcome(&want),
            "{question:?} at epoch {}",
            epoch.0
        );
        rows += got.bindings.len();
    }
    rows
}

/// What the benchmark's `commit_mixed` commits: a fresh hypothesis
/// about a fresh user.
fn commit_fresh(base: &mut EngineBase, n: u64) {
    let user = UserProfile::new(&format!("TestUser{n}"));
    let hypothesis = if n.is_multiple_of(2) {
        Hypothesis::FollowedDiet(format!("TestDiet{n}"))
    } else {
        Hypothesis::AllergicTo(format!("TestIngredient{n}"))
    };
    base.commit_with("test", |overlay| {
        apply_hypothesis(&hypothesis, &user, overlay);
    });
}

fn at_epoch_zero_and_after_sixteen_commits(mut base: EngineBase) {
    let rows = what_ifs_match_committed_worlds(&mut base, EpochId(0));
    assert!(rows > 0, "the what-ifs must find rows");
    for n in 0..16 {
        commit_fresh(&mut base, n);
    }
    let head = base.head();
    what_ifs_match_committed_worlds(&mut base, head);
}

#[test]
fn curated_what_ifs_match_worlds_closed_under_every_rule() {
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let base = EngineBase::new(curated(), user, ctx).expect("curated is consistent");
    at_epoch_zero_and_after_sixteen_commits(base);
}

/// The benchmark's world: 400 recipes, the pinned world seed.
#[test]
fn world_what_ifs_match_worlds_closed_under_every_rule() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 400,
        ingredients: 225,
        seed: 0xF00D,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let base = EngineBase::new(kg, user, SystemContext::new(Season::Autumn))
        .expect("synthetic world is consistent");
    at_epoch_zero_and_after_sixteen_commits(base);
}
