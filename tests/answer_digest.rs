//! The answers themselves, pinned.
//!
//! The benchmark checks every answer against a reference that the same
//! build computes, so it cannot see an answer change. This test asks the
//! benchmark's world (400 recipes, generator seed `0xF00D`, a user who
//! likes the first recipe and is allergic to the first ingredient,
//! Autumn) a fixed set of questions: why-eat for recipes 1–48, why-over
//! for the 48 consecutive pairs of recipes 49–144, and what-if for
//! pregnancy, every diet and ingredients 1–40. It pins a 64-bit FNV-1a
//! digest of each explanation's `to_json` followed by its bindings'
//! `to_json` (so row order counts), and the number of binding rows.
//!
//! A change that is meant to move an answer updates both numbers and
//! says why.

use feo::core::{EngineBase, ExplainOptions, Hypothesis, Question, ToJson};
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};

const DIGEST: u64 = 0xc02d_409e_29fe_f302;
const BINDING_ROWS: usize = 4895;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn answers_on_the_benchmark_world_are_pinned() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 400,
        ingredients: 225,
        seed: 0xF00D,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let base = EngineBase::new(kg.clone(), user, SystemContext::new(Season::Autumn))
        .expect("synthetic world is consistent");

    let recipe = |i: usize| kg.recipes[i].id.clone();
    let mut questions: Vec<Question> = (1..=48)
        .map(|i| Question::WhyEat { food: recipe(i) })
        .collect();
    questions.extend((49..=144).step_by(2).map(|i| Question::WhyEatOver {
        preferred: recipe(i),
        alternative: recipe(i + 1),
    }));
    let mut hypotheses = vec![Hypothesis::Pregnant];
    hypotheses.extend(
        kg.diets
            .iter()
            .map(|d| Hypothesis::FollowedDiet(d.id.clone())),
    );
    hypotheses
        .extend((kg.ingredients[1..=40].iter()).map(|i| Hypothesis::AllergicTo(i.id.clone())));
    questions.extend(
        hypotheses
            .into_iter()
            .map(|hypothesis| Question::WhatIf { hypothesis }),
    );
    assert_eq!(questions.len(), 48 + 48 + 1 + kg.diets.len() + 40);

    let (mut digest, mut rows) = (0xcbf2_9ce4_8422_2325, 0);
    for question in &questions {
        let explanation = base
            .explain(question, &ExplainOptions::default())
            .unwrap_or_else(|e| panic!("{question:?}: {e}"));
        digest = fnv1a(digest, explanation.to_json().as_bytes());
        digest = fnv1a(digest, explanation.bindings.to_json().as_bytes());
        rows += explanation.bindings.len();
    }
    assert_eq!(
        (digest, rows),
        (DIGEST, BINDING_ROWS),
        "the answers changed: digest {digest:#018x}, {rows} binding rows"
    );
}
