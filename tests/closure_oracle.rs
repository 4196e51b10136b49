//! `Reasoner::materialize` against the naive fixpoint reasoner of
//! `crates/owl/tests/oracle/`, on the graphs the paper's questions run
//! over: the curated KG and seeded synthetic worlds, each with a user,
//! a what-if hypothesis and a question asserted. The engine must derive
//! exactly the oracle's closure and report exactly its inconsistencies.

#[path = "../crates/owl/tests/oracle/mod.rs"]
mod oracle;

use std::collections::BTreeSet;

use feo::core::ecosystem::{apply_hypothesis, assemble, assert_question};
use feo::core::{Hypothesis, Question};
use feo::foodkg::{
    curated, random_profiles, synthetic, FoodKg, Season, SyntheticConfig, SystemContext,
    UserProfile,
};
use feo::owl::Reasoner;
use feo::rdf::Graph;
use proptest::prelude::*;

fn triples(g: &Graph) -> BTreeSet<String> {
    g.iter_triples().map(|t| t.to_string()).collect()
}

/// The world of `kg` for a seeded user, with a hypothesis and a question
/// asserted the way sessions assert them.
fn world(kg: &FoodKg, seed: u64) -> Graph {
    let user = random_profiles(kg, 1, seed)
        .pop()
        .unwrap_or_else(|| UserProfile::new("u"));
    let mut g = assemble(kg, &user, &SystemContext::new(Season::Autumn));
    let hypothesis = match seed % 3 {
        0 => Hypothesis::Pregnant,
        1 => Hypothesis::FollowedDiet("Vegan".into()),
        _ => Hypothesis::AllergicTo("Broccoli".into()),
    };
    apply_hypothesis(&hypothesis, &user, &mut g);
    let food = kg.recipes[seed as usize % kg.recipes.len()].id.clone();
    assert_question(&Question::WhyEat { food }, &mut g);
    g
}

fn matches_oracle(mut g: Graph) {
    let mut reference = g.clone();
    let result = Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded closure cannot trip");
    let expected = oracle::close(&mut reference);
    let (got, want) = (triples(&g), triples(&reference));
    assert!(
        got == want,
        "only the engine {:?}, only the oracle {:?}",
        got.difference(&want).collect::<Vec<_>>(),
        want.difference(&got).collect::<Vec<_>>()
    );
    let mut reported: Vec<_> = result
        .inconsistencies
        .into_iter()
        .map(|i| (i.kind, i.detail))
        .collect();
    reported.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
    assert_eq!(reported, expected);
}

#[test]
fn materialize_matches_the_naive_fixpoint_on_the_curated_kg() {
    let kg = curated();
    for seed in 0..6 {
        matches_oracle(world(&kg, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn materialize_matches_the_naive_fixpoint_on_synthetic_worlds(
        seed in 0u64..1024,
        recipes in 10usize..30,
    ) {
        let kg = synthetic(&SyntheticConfig {
            recipes,
            ingredients: recipes,
            seed,
            ..Default::default()
        });
        matches_oracle(world(&kg, seed));
    }
}
