//! Differential property tests for the semi-naïve incremental closure:
//! for an already-closed base graph and an ABox delta Δ,
//! `materialize_delta(base, Δ)` must yield exactly the same triple set
//! as a full re-materialization of `base ∪ Δ`.

use feo::core::ecosystem::{apply_hypothesis, assemble, assert_question};
use feo::core::{Hypothesis, Question};
use feo::foodkg::{
    curated, random_profiles, synthetic, user_to_rdf, FoodKg, Season, SyntheticConfig,
    SystemContext, UserProfile,
};
use feo::ontology::ns::eo;
use feo::owl::{MaterializeOptions, Reasoner, ReasonerOptions};
use feo::rdf::vocab::rdf;
use feo::rdf::{GraphStore, GraphView, Overlay};
use proptest::prelude::*;

/// Canonical sorted rendering of a view's triples (base ∪ delta for
/// overlays), so graphs with different id spaces compare by content.
fn triple_set(g: &impl GraphView) -> Vec<String> {
    let mut v: Vec<String> = g.iter_triples().map(|t| t.to_string()).collect();
    v.sort();
    v
}

/// Writes a seeded ABox delta: a newcomer profile, a hypothesis, and a
/// question individual — the same kinds of triples sessions assert.
fn apply_delta(g: &mut impl GraphStore, kg: &FoodKg, user: &UserProfile, seed: u64) {
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
    let question = match (seed / 3) % 3 {
        0 => Question::WhyEat {
            food: format!("R{}", seed % 7),
        },
        1 => Question::WhyEatOver {
            preferred: format!("R{}", seed % 7),
            alternative: format!("R{}", (seed + 3) % 7),
        },
        _ => Question::WhatIf { hypothesis },
    };
    assert_question(&question, g);
}

/// The property itself, checked for one (KG, seed) pair.
fn delta_matches_full(kg: FoodKg, seed: u64) {
    let user = random_profiles(&kg, 1, seed)
        .pop()
        .unwrap_or_else(|| UserProfile::new("u"));
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = assemble(&kg, &user, &ctx);
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut base);
    reasoner
        .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");

    // Full path: copy the closed base, add Δ, re-run the whole fixpoint.
    let mut full = base.clone();
    apply_delta(&mut full, &kg, &user, seed);
    reasoner
        .materialize(&mut full, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");

    // Incremental path: overlay Δ on the shared closed base and close
    // only from the delta.
    let mut overlay = Overlay::new(&base);
    apply_delta(&mut overlay, &kg, &user, seed);
    reasoner
        .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");

    assert_eq!(
        triple_set(&full),
        triple_set(&overlay),
        "incremental closure diverged from full re-materialization (seed {seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_equals_full_on_synthetic_kgs(
        seed in 0u64..1024,
        recipes in 10usize..40,
    ) {
        let kg = synthetic(&SyntheticConfig {
            recipes,
            ingredients: recipes,
            seed,
            ..Default::default()
        });
        delta_matches_full(kg, seed);
    }

    #[test]
    fn incremental_equals_full_on_the_curated_kg(seed in 0u64..1024) {
        delta_matches_full(curated(), seed);
    }
}

/// An empty delta is a no-op: the overlay stays triple-for-triple the
/// closed base.
#[test]
fn empty_delta_derives_nothing() {
    let kg = curated();
    let user = UserProfile::new("u").likes(&["LentilSoup"]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = assemble(&kg, &user, &ctx);
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut base);
    reasoner
        .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");

    let mut overlay = Overlay::new(&base);
    let result = reasoner
        .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");
    assert_eq!(result.added, 0);
    assert_eq!(overlay.delta_len(), 0);
}

/// Derivation tracking through the delta closure: the premises recorded
/// for every delta-derived `eo:Fact` are the witness triples of the
/// definition's left-hand side. The expected lines are what the
/// candidate sweep this pass replaced recorded for the same question.
#[test]
fn tracked_delta_derivation_of_a_fact_keeps_its_premises() {
    let kg = curated();
    let user = UserProfile::new("u")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let mut base = assemble(&kg, &user, &ctx);
    let reasoner = Reasoner::with_options(ReasonerOptions {
        track_derivations: true,
        ..Default::default()
    });
    let rules = reasoner.compile(&mut base);
    reasoner
        .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");

    let mut overlay = Overlay::new(&base);
    let question = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };
    assert_question(&question, &mut overlay);
    let result = reasoner
        .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");

    let rdf_type = overlay.lookup_iri(rdf::TYPE).expect("rdf:type");
    let fact = overlay.lookup_iri(eo::FACT).expect("eo:Fact");
    let mut lines: Vec<String> = result
        .derivations
        .iter()
        .filter(|(t, _)| t[1] == rdf_type && t[2] == fact)
        .map(|(t, d)| {
            let premises: Vec<String> = d
                .premises
                .iter()
                .map(|p| p.map(|id| overlay.term_name(id)).join(" "))
                .collect();
            format!(
                "{} by {}: {}",
                overlay.term_name(t[0]),
                d.rule,
                premises.join("; ")
            )
        })
        .collect();
    lines.sort();
    assert_eq!(lines, EXPECTED_FACT_DERIVATIONS);
}

const EXPECTED_FACT_DERIVATIONS: [&str; 2] = [
    "Autumn by cls: Autumn isSupportiveCharacteristicOf CauliflowerPotatoCurry; \
     CauliflowerPotatoCurry type Parameter; Autumn presentIn CurrentEcosystem",
    "HighFiberGoal by cls: HighFiberGoal isSupportiveCharacteristicOf CauliflowerPotatoCurry; \
     CauliflowerPotatoCurry type Parameter; HighFiberGoal presentIn CurrentEcosystem",
];
