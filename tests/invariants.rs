//! Cross-crate property tests: invariants of the reasoner, the
//! recommender, and the explanation pipeline over randomly generated
//! knowledge graphs and user profiles.

use feo::core::ecosystem::assemble;
use feo::core::{classify, Classification, EngineBase, ExplainOptions, Question};
use feo::foodkg::{synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::owl::Reasoner;
use feo::recommender::{HealthCoach, Recommender};
use feo_rdf::{GraphStore, GraphView};
use proptest::prelude::*;

fn arb_season() -> impl Strategy<Value = Season> {
    prop_oneof![
        Just(Season::Spring),
        Just(Season::Summer),
        Just(Season::Autumn),
        Just(Season::Winter),
    ]
}

/// Small synthetic KGs keep each case fast while varying structure.
fn arb_kg() -> impl Strategy<Value = FoodKg> {
    (10usize..40, 10usize..30, any::<u64>()).prop_map(|(recipes, ingredients, seed)| {
        synthetic(&SyntheticConfig {
            recipes,
            ingredients,
            seed,
            ..Default::default()
        })
    })
}

fn arb_user(kg: &FoodKg, seed: u64) -> UserProfile {
    feo::foodkg::random_profiles(kg, 1, seed)
        .pop()
        .expect("one profile")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Materialization is idempotent: a second run adds nothing.
    #[test]
    fn reasoner_idempotent_on_random_kgs(kg in arb_kg(), seed in any::<u64>(), season in arb_season()) {
        let user = arb_user(&kg, seed);
        let ctx = SystemContext::new(season);
        let mut g = assemble(&kg, &user, &ctx);
        let first = Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        prop_assert!(first.is_consistent());
        let second = Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        prop_assert_eq!(second.added, 0);
    }

    /// Monotonicity: materializing a supergraph yields a supergraph of
    /// the original materialization.
    #[test]
    fn reasoner_monotone(kg in arb_kg(), seed in any::<u64>()) {
        let user = arb_user(&kg, seed);
        let ctx = SystemContext::new(Season::Autumn);
        let mut small = assemble(&kg, &user, &ctx);
        Reasoner::new().materialize(&mut small, &Default::default()).expect("materialize");

        let mut big = assemble(&kg, &user, &ctx);
        // Extra assertion: a new liked food.
        let extra = FoodKg::iri(&kg.recipes[0].id);
        big.insert_iris(
            &FoodKg::iri(&user.id),
            feo::ontology::ns::food::LIKES,
            &extra,
        );
        Reasoner::new().materialize(&mut big, &Default::default()).expect("materialize");

        for t in small.iter_triples() {
            prop_assert!(big.contains(&t), "lost derived triple {t}");
        }
    }

    /// Single-polarity characteristics are never classified Fact and Foil
    /// simultaneously (Figure 3 cells are exclusive per polarity+presence).
    #[test]
    fn fact_foil_exclusive_for_single_polarity(
        supportive in any::<bool>(),
        present in any::<bool>(),
    ) {
        use feo::ontology::ns::feo as feons;
        let mut g = feo::ontology::schema::tbox_graph();
        g.insert_iris("http://t/q", feons::HAS_PRIMARY_PARAMETER, "http://t/P");
        let polarity = if supportive {
            feons::IS_SUPPORTIVE_CHARACTERISTIC_OF
        } else {
            feons::IS_OPPOSING_CHARACTERISTIC_OF
        };
        let presence = if present { feons::PRESENT_IN } else { feons::ABSENT_FROM };
        g.insert_iris("http://t/c", polarity, "http://t/P");
        g.insert_iris("http://t/c", presence, feons::CURRENT_ECOSYSTEM);
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let c = g.lookup_iri("http://t/c").unwrap();
        let class = classify(&g, c);
        prop_assert_ne!(class, Classification::Both);
        // And the expected cell:
        let expected = match (supportive, present) {
            (true, true) => Classification::Fact,
            (true, false) | (false, true) => Classification::Foil,
            (false, false) => Classification::Neither,
        };
        prop_assert_eq!(class, expected);
    }

    /// The recommender never surfaces a recipe violating a hard
    /// constraint, and every eliminated recipe has a recorded reason.
    #[test]
    fn recommender_respects_constraints(kg in arb_kg(), seed in any::<u64>(), season in arb_season()) {
        let user = arb_user(&kg, seed);
        let ctx = SystemContext::new(season);
        let coach = HealthCoach::new(&kg);
        let set = coach.recommend(&user, &ctx, kg.recipes.len());
        for rec in &set.recommendations {
            let recipe = kg.recipe(&rec.recipe_id).unwrap();
            for allergen in &user.allergies {
                prop_assert!(!recipe.ingredients.contains(allergen));
            }
            prop_assert!(!user.dislikes.contains(&rec.recipe_id));
            if let Some(diet_id) = &user.diet {
                let diet = kg.diet(diet_id).unwrap();
                let cats = kg.recipe_categories(recipe);
                for c in &cats {
                    prop_assert!(!diet.forbids_categories.contains(c));
                }
            }
        }
        // Partition: every recipe is either ranked or eliminated.
        prop_assert_eq!(
            set.recommendations.len() + set.eliminated.len(),
            kg.recipes.len()
        );
    }

    /// The explanation engine never errors on WhyEat for any recipe of a
    /// random KG, and answers deterministically.
    #[test]
    fn contextual_explanations_total_and_deterministic(
        kg in arb_kg(),
        seed in any::<u64>(),
        season in arb_season(),
    ) {
        let user = arb_user(&kg, seed);
        let ctx = SystemContext::new(season);
        let target = kg.recipes[kg.recipes.len() / 2].id.clone();
        let base = EngineBase::new(kg, user, ctx).expect("consistent");
        let q = Question::WhyEat { food: target };
        let a = base.explain(&q, &ExplainOptions::default()).expect("explains");
        let b = base.explain(&q, &ExplainOptions::default()).expect("explains again");
        prop_assert_eq!(a.answer, b.answer);
        prop_assert_eq!(a.bindings.rows, b.bindings.rows);
    }
}
