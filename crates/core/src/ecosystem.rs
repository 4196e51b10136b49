//! Ecosystem assembly: builds the reasoning graph the explanation
//! pipeline runs over.
//!
//! The paper's pipeline (§IV) assembles TBoxes + FoodKG ABox + the user
//! and system context, runs the reasoner, and exports the inferred graph.
//! This module performs the assembly step, including the *polarity
//! seeding* the paper describes as organizing properties into supportive
//! and opposing categories (§III-B):
//!
//! - characteristics matching the environment are asserted
//!   `feo:presentIn feo:CurrentEcosystem` (current season/region, the
//!   user's liked/disliked/allergic foods, diet, goals, pregnancy);
//!   contradicting seasons/regions are asserted `feo:absentFrom`;
//! - user-profile polarity is seeded as a reflexive polarity edge
//!   (`x feo:isSupportiveCharacteristicOf x` for likes,
//!   `x feo:isOpposingCharacteristicOf x` for dislikes and allergens);
//!   the FEO property chains then propagate the polarity to every dish
//!   the characteristic reaches, and the `eo:Fact`/`eo:Foil`
//!   equivalences classify the results — so everything downstream of the
//!   seeds is genuine OWL inference, exactly as in the paper.

use feo_foodkg::{kg_to_rdf, user_to_rdf, FoodKg, SystemContext, UserProfile};
use feo_ontology::ns::{feo, food};
use feo_ontology::schema::load_tboxes;
use feo_owl::{InferenceResult, Reasoner};
use feo_rdf::{Graph, GraphStore};

/// Assembles the un-materialized reasoning graph for one (KG, user,
/// context) triple.
pub fn assemble(kg: &FoodKg, user: &UserProfile, ctx: &SystemContext) -> Graph {
    let mut g = Graph::new();
    load_tboxes(&mut g);
    kg_to_rdf(kg, &mut g);
    user_to_rdf(user, &mut g);
    feo_foodkg::context_to_rdf(ctx, &mut g);
    seed_user_polarity(user, &mut g);
    seed_budget(user, kg, &mut g);
    g
}

/// Assembles and materializes in one step, returning the inference stats.
pub fn assemble_materialized(
    kg: &FoodKg,
    user: &UserProfile,
    ctx: &SystemContext,
) -> (Graph, InferenceResult) {
    let mut g = assemble(kg, user, ctx);
    let result = Reasoner::new()
        .materialize(&mut g, &Default::default())
        .unwrap_or_else(|e| e.into_partial());
    (g, result)
}

/// Seeds presence and polarity for the user-profile characteristics.
pub fn seed_user_polarity(user: &UserProfile, g: &mut Graph) {
    for liked in &user.likes {
        let iri = FoodKg::iri(liked);
        g.insert_iris(&iri, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF, &iri);
        g.insert_iris(&iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    }
    for disliked in &user.dislikes {
        let iri = FoodKg::iri(disliked);
        g.insert_iris(&iri, feo::IS_OPPOSING_CHARACTERISTIC_OF, &iri);
        g.insert_iris(&iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    }
    for allergen in &user.allergies {
        let iri = FoodKg::iri(allergen);
        g.insert_iris(&iri, feo::IS_OPPOSING_CHARACTERISTIC_OF, &iri);
        g.insert_iris(&iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    }
    if let Some(diet) = &user.diet {
        // The diet's feo:forbids edges are already in the KG ABox; its
        // presence makes the forbidden dishes' oppositions ecosystem-real.
        g.insert_iris(&FoodKg::iri(diet), feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    }
    for goal in &user.goals {
        g.insert_iris(&FoodKg::iri(goal), feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    }
    if user.pregnant {
        g.insert_iris(
            feo::PREGNANCY_STATE,
            feo::PRESENT_IN,
            feo::CURRENT_ECOSYSTEM,
        );
    }
}

/// Seeds the user's budget tier as an ecosystem characteristic: the tier
/// individual is present, supports every affordable dish, and opposes
/// dishes above budget (so over-budget alternatives surface as foils).
pub fn seed_budget(user: &UserProfile, kg: &FoodKg, g: &mut Graph) {
    use feo_rdf::vocab::rdf;
    let Some(tier) = user.budget_tier else { return };
    let tier_iri = feo::budget_tier_iri(tier);
    g.insert_iris(&tier_iri, rdf::TYPE, feo::BUDGET);
    g.insert_iris(&tier_iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    for recipe in &kg.recipes {
        let recipe_iri = FoodKg::iri(&recipe.id);
        if recipe.price_tier <= tier {
            g.insert_iris(&tier_iri, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF, &recipe_iri);
        } else {
            g.insert_iris(&tier_iri, feo::IS_OPPOSING_CHARACTERISTIC_OF, &recipe_iri);
        }
    }
}

/// Applies a hypothesis to a (cloned) graph for counterfactual reasoning.
pub fn apply_hypothesis(
    hypothesis: &crate::question::Hypothesis,
    user: &UserProfile,
    g: &mut impl GraphStore,
) {
    use crate::question::Hypothesis;
    let user_iri = FoodKg::iri(&user.id);
    match hypothesis {
        Hypothesis::Pregnant => {
            g.insert_iris(&user_iri, feo::HAS_CHARACTERISTIC, feo::PREGNANCY_STATE);
            g.insert_iris(
                feo::PREGNANCY_STATE,
                feo::PRESENT_IN,
                feo::CURRENT_ECOSYSTEM,
            );
        }
        Hypothesis::FollowedDiet(diet) => {
            let diet_iri = FoodKg::iri(diet);
            g.insert_iris(&user_iri, food::FOLLOWS_DIET, &diet_iri);
            g.insert_iris(&diet_iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
        }
        Hypothesis::AllergicTo(ingredient) => {
            let iri = FoodKg::iri(ingredient);
            g.insert_iris(&user_iri, food::ALLERGIC_TO, &iri);
            g.insert_iris(&iri, feo::IS_OPPOSING_CHARACTERISTIC_OF, &iri);
            g.insert_iris(&iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
            // An allergy forbids the allergen itself; the FEO forbids
            // chain then reaches every dish containing it, so the
            // Listing-3 query reports the dish-level changes.
            g.insert_iris(&iri, feo::FORBIDS, &iri);
        }
    }
}

/// Registers a question individual with its parameters in the graph.
/// Returns the question IRI.
pub fn assert_question(question: &crate::question::Question, g: &mut impl GraphStore) -> String {
    use crate::question::Question;
    use feo_rdf::vocab::rdf;
    let q_iri = question.iri();
    g.insert_iris(&q_iri, rdf::TYPE, feo::QUESTION);
    match question {
        Question::WhyEat { food }
        | Question::WhatOtherUsers { food }
        | Question::WhyGenerally { food }
        | Question::WhatLiterature { food }
        | Question::WhatIfEatenDaily { food }
        | Question::WhatSteps { food } => {
            g.insert_iris(&q_iri, feo::HAS_PARAMETER, &FoodKg::iri(food));
        }
        Question::WhyEatOver {
            preferred,
            alternative,
        } => {
            g.insert_iris(&q_iri, feo::HAS_PRIMARY_PARAMETER, &FoodKg::iri(preferred));
            g.insert_iris(
                &q_iri,
                feo::HAS_SECONDARY_PARAMETER,
                &FoodKg::iri(alternative),
            );
        }
        Question::WhatEvidenceForDiet { diet } => {
            g.insert_iris(&q_iri, feo::HAS_PARAMETER, &FoodKg::iri(diet));
        }
        Question::WhatIf { .. } => {
            // Counterfactual questions parameterize the hypothesis, not a
            // food; the hypothesis subject is linked for provenance.
            g.insert_iris(&q_iri, feo::HAS_PARAMETER, feo::PREGNANCY_STATE);
        }
    }
    q_iri
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_foodkg::{curated, Season};
    use feo_rdf::vocab::rdf;
    use feo_rdf::GraphView;

    fn scenario_b() -> (FoodKg, UserProfile, SystemContext) {
        let kg = curated();
        let user = UserProfile::new("alice")
            .likes(&["BroccoliCheddarSoup"])
            .allergies(&["Broccoli"]);
        let ctx = SystemContext::new(Season::Autumn);
        (kg, user, ctx)
    }

    #[test]
    fn assembly_is_consistent() {
        let (kg, user, ctx) = scenario_b();
        let (g, result) = assemble_materialized(&kg, &user, &ctx);
        assert!(result.is_consistent(), "{:?}", result.inconsistencies);
        assert!(result.warnings.is_empty(), "{:?}", result.warnings);
        assert!(g.len() > 1000, "materialized graph size: {}", g.len());
    }

    #[test]
    fn allergen_becomes_opposing_and_present() {
        let (kg, user, ctx) = scenario_b();
        let (g, _) = assemble_materialized(&kg, &user, &ctx);
        let broccoli = g.lookup_iri(&FoodKg::iri("Broccoli")).unwrap();
        let soup = g.lookup_iri(&FoodKg::iri("BroccoliCheddarSoup")).unwrap();
        let opposing = g.lookup_iri(feo::IS_OPPOSING_CHARACTERISTIC_OF).unwrap();
        assert!(
            g.contains_ids(broccoli, opposing, soup),
            "opposition must propagate from the allergen to the dish"
        );
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let allergic = g.lookup_iri(feo::ALLERGIC_FOOD).unwrap();
        assert!(g.contains_ids(broccoli, ty, allergic));
    }

    #[test]
    fn question_assertion_types_parameters() {
        let (kg, user, ctx) = scenario_b();
        let mut g = assemble(&kg, &user, &ctx);
        let q = crate::question::Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        };
        assert_question(&q, &mut g);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let param = g.lookup_iri(feo::PARAMETER).unwrap();
        let squash = g.lookup_iri(&FoodKg::iri("ButternutSquashSoup")).unwrap();
        let broc = g.lookup_iri(&FoodKg::iri("BroccoliCheddarSoup")).unwrap();
        assert!(
            g.contains_ids(squash, ty, param),
            "range axiom types parameter A"
        );
        assert!(
            g.contains_ids(broc, ty, param),
            "subproperty + range types parameter B"
        );
    }

    #[test]
    fn fact_and_foil_emerge_in_scenario_b() {
        let (kg, user, ctx) = scenario_b();
        let mut g = assemble(&kg, &user, &ctx);
        let q = crate::question::Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        };
        assert_question(&q, &mut g);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let fact = g.lookup_iri(feo_ontology::ns::eo::FACT).unwrap();
        let foil = g.lookup_iri(feo_ontology::ns::eo::FOIL).unwrap();
        let autumn = g.lookup_iri(feo::AUTUMN).unwrap();
        let broccoli = g.lookup_iri(&FoodKg::iri("Broccoli")).unwrap();
        assert!(g.contains_ids(autumn, ty, fact), "Autumn is the fact");
        assert!(g.contains_ids(broccoli, ty, foil), "Broccoli is the foil");
        assert!(!g.contains_ids(broccoli, ty, fact));
    }

    #[test]
    fn pregnancy_hypothesis_applies() {
        let (kg, user, ctx) = scenario_b();
        let mut g = assemble(&kg, &user, &ctx);
        apply_hypothesis(&crate::question::Hypothesis::Pregnant, &user, &mut g);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let preg = g.lookup_iri(feo::PREGNANCY_STATE).unwrap();
        let forbids = g.lookup_iri(feo::FORBIDS).unwrap();
        let sushi = g.lookup_iri(&FoodKg::iri("Sushi")).unwrap();
        assert!(g.contains_ids(preg, forbids, sushi));
    }
}
