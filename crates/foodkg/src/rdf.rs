//! ABox emission: turns the plain-Rust KG, user profiles, and system
//! context into RDF triples in the FEO/food vocabulary.

use feo_rdf::term::Term;
use feo_rdf::vocab::rdf;
use feo_rdf::GraphStore;

use feo_ontology::ns::{feo, food};

use crate::model::{FoodKg, Season};
use crate::user::{SystemContext, UserProfile};

fn camel_to_label(id: &str) -> String {
    let mut out = String::with_capacity(id.len() + 4);
    for (i, c) in id.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// Emits the knowledge graph as triples. Idempotent (set semantics).
pub fn kg_to_rdf(kg: &FoodKg, g: &mut impl GraphStore) {
    // Ingredients.
    for ing in &kg.ingredients {
        let iri = FoodKg::iri(&ing.id);
        g.insert_iris(&iri, rdf::TYPE, food::INGREDIENT);
        for s in &ing.seasons {
            g.insert_iris(&iri, food::AVAILABLE_IN_SEASON, s.iri());
        }
        for r in &ing.regions {
            let region_iri = FoodKg::iri(r);
            g.insert_iris(&region_iri, rdf::TYPE, food::REGION);
            g.insert_iris(&iri, food::AVAILABLE_IN_REGION, &region_iri);
        }
        for n in &ing.nutrients {
            let n_iri = FoodKg::iri(n);
            g.insert_iris(&n_iri, rdf::TYPE, food::NUTRIENT);
            g.insert_iris(&iri, food::HAS_NUTRIENT, &n_iri);
        }
        for c in &ing.categories {
            let c_iri = FoodKg::iri(c);
            g.insert_iris(&c_iri, rdf::TYPE, food::FOOD_CATEGORY);
            g.insert_iris(&iri, food::BELONGS_TO_CATEGORY, &c_iri);
        }
    }

    // Recipes.
    for r in &kg.recipes {
        let iri = FoodKg::iri(&r.id);
        g.insert_iris(&iri, rdf::TYPE, food::RECIPE);
        g.insert_terms(
            feo_rdf::Iri::new(iri.clone()),
            feo_rdf::Iri::new(feo_rdf::vocab::rdfs::LABEL),
            Term::simple(r.label.clone()),
        );
        for ing in &r.ingredients {
            g.insert_iris(&iri, food::HAS_INGREDIENT, &FoodKg::iri(ing));
        }
        for c in &r.categories {
            let c_iri = FoodKg::iri(c);
            g.insert_iris(&c_iri, rdf::TYPE, food::FOOD_CATEGORY);
            g.insert_iris(&iri, food::BELONGS_TO_CATEGORY, &c_iri);
        }
        g.insert_terms(
            feo_rdf::Iri::new(iri.clone()),
            feo_rdf::Iri::new(food::CALORIES),
            Term::integer(r.calories as i64),
        );
        g.insert_terms(
            feo_rdf::Iri::new(iri.clone()),
            feo_rdf::Iri::new(food::PRICE_TIER),
            Term::integer(r.price_tier as i64),
        );
    }

    // Diets with their forbidden categories.
    for d in &kg.diets {
        let iri = FoodKg::iri(&d.id);
        g.insert_iris(&iri, rdf::TYPE, food::DIET);
        for c in &d.forbids_categories {
            let c_iri = FoodKg::iri(c);
            g.insert_iris(&c_iri, rdf::TYPE, food::FOOD_CATEGORY);
            g.insert_iris(&iri, food::FORBIDS_CATEGORY, &c_iri);
            // Mirrored as feo:forbids so the FEO chains propagate diet
            // opposition into dishes (see schema.rs for why this is not a
            // subproperty axiom).
            g.insert_iris(&iri, feo::FORBIDS, &c_iri);
        }
    }

    // Goals.
    for goal in &kg.goals {
        let iri = FoodKg::iri(&goal.id);
        g.insert_iris(&iri, rdf::TYPE, feo::NUTRITIONAL_GOAL);
        let n_iri = FoodKg::iri(&goal.wants_nutrient);
        g.insert_iris(&n_iri, rdf::TYPE, food::NUTRIENT);
        // The goal recommends its nutrient — the same pattern as the
        // pregnancy guidance, so goal-based facts flow through the
        // recommends chain.
        g.insert_iris(&iri, feo::RECOMMENDS, &n_iri);
    }

    // Domain knowledge riders.
    for (s, p, o) in crate::data::knowledge_assertions() {
        g.insert_iris(&s, &p, &o);
    }

    // Labels for readability of ingredient IRIs.
    for ing in &kg.ingredients {
        g.insert_terms(
            feo_rdf::Iri::new(FoodKg::iri(&ing.id)),
            feo_rdf::Iri::new(feo_rdf::vocab::rdfs::LABEL),
            Term::simple(camel_to_label(&ing.id)),
        );
    }
}

/// Emits a user profile as triples (the `food:User` individual with its
/// likes/dislikes/allergies/diet/goals).
pub fn user_to_rdf(user: &UserProfile, g: &mut impl GraphStore) {
    let iri = FoodKg::iri(&user.id);
    g.insert_iris(&iri, rdf::TYPE, food::USER);
    for l in &user.likes {
        g.insert_iris(&iri, food::LIKES, &FoodKg::iri(l));
    }
    for d in &user.dislikes {
        g.insert_iris(&iri, food::DISLIKES, &FoodKg::iri(d));
    }
    for a in &user.allergies {
        g.insert_iris(&iri, food::ALLERGIC_TO, &FoodKg::iri(a));
    }
    if let Some(diet) = &user.diet {
        g.insert_iris(&iri, food::FOLLOWS_DIET, &FoodKg::iri(diet));
    }
    for goal in &user.goals {
        g.insert_iris(&iri, food::HAS_GOAL, &FoodKg::iri(goal));
    }
    if user.pregnant {
        g.insert_iris(&iri, feo::HAS_CHARACTERISTIC, feo::PREGNANCY_STATE);
    }
    if let Some(region) = &user.region {
        let region_iri = FoodKg::iri(region);
        g.insert_iris(&region_iri, rdf::TYPE, food::REGION);
        g.insert_iris(&iri, food::AVAILABLE_IN_REGION, &region_iri);
    }
}

/// Emits the system context: the current season and region, and their
/// presence in the current ecosystem; all other seasons are absent.
pub fn context_to_rdf(ctx: &SystemContext, g: &mut impl GraphStore) {
    g.insert_iris(ctx.season.iri(), feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    for s in Season::ALL {
        if s != ctx.season {
            g.insert_iris(s.iri(), feo::ABSENT_FROM, feo::CURRENT_ECOSYSTEM);
        }
    }
    if let Some(region) = &ctx.region {
        let iri = FoodKg::iri(region);
        g.insert_iris(&iri, rdf::TYPE, food::REGION);
        g.insert_iris(&iri, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::curated;
    use feo_rdf::{Graph, GraphView};

    #[test]
    fn kg_emits_expected_triples() {
        let kg = curated();
        let mut g = Graph::new();
        kg_to_rdf(&kg, &mut g);
        assert!(g.len() > 300, "triples: {}", g.len());
        // Spot checks for paper individuals.
        let curry = g
            .lookup_iri(&FoodKg::iri("CauliflowerPotatoCurry"))
            .unwrap();
        let has_ing = g.lookup_iri(food::HAS_INGREDIENT).unwrap();
        let cauliflower = g.lookup_iri(&FoodKg::iri("Cauliflower")).unwrap();
        assert!(g.contains_ids(curry, has_ing, cauliflower));
        let avail = g.lookup_iri(food::AVAILABLE_IN_SEASON).unwrap();
        let autumn = g.lookup_iri(feo::AUTUMN).unwrap();
        assert!(g.contains_ids(cauliflower, avail, autumn));
    }

    #[test]
    fn emission_is_idempotent() {
        let kg = curated();
        let mut g = Graph::new();
        kg_to_rdf(&kg, &mut g);
        let n = g.len();
        kg_to_rdf(&kg, &mut g);
        assert_eq!(g.len(), n);
    }

    #[test]
    fn user_profile_triples() {
        let user = UserProfile::new("alice")
            .likes(&["BroccoliCheddarSoup"])
            .allergies(&["Broccoli"])
            .diet("Vegetarian")
            .goals(&["HighProteinGoal"]);
        let mut g = Graph::new();
        user_to_rdf(&user, &mut g);
        let alice = g.lookup_iri(&FoodKg::iri("alice")).unwrap();
        let allergic = g.lookup_iri(food::ALLERGIC_TO).unwrap();
        let broccoli = g.lookup_iri(&FoodKg::iri("Broccoli")).unwrap();
        assert!(g.contains_ids(alice, allergic, broccoli));
        let follows = g.lookup_iri(food::FOLLOWS_DIET).unwrap();
        assert_eq!(g.objects(alice, follows).len(), 1);
    }

    #[test]
    fn context_marks_current_season_present_others_absent() {
        let ctx = SystemContext::new(Season::Autumn).region("Florida");
        let mut g = Graph::new();
        context_to_rdf(&ctx, &mut g);
        let present = g.lookup_iri(feo::PRESENT_IN).unwrap();
        let absent = g.lookup_iri(feo::ABSENT_FROM).unwrap();
        let eco = g.lookup_iri(feo::CURRENT_ECOSYSTEM).unwrap();
        let autumn = g.lookup_iri(feo::AUTUMN).unwrap();
        let summer = g.lookup_iri(feo::SUMMER).unwrap();
        assert!(g.contains_ids(autumn, present, eco));
        assert!(g.contains_ids(summer, absent, eco));
        assert!(!g.contains_ids(summer, present, eco));
        let florida = g.lookup_iri(&FoodKg::iri("Florida")).unwrap();
        assert!(g.contains_ids(florida, present, eco));
    }

    #[test]
    fn labels_are_humanized() {
        assert_eq!(camel_to_label("ButternutSquash"), "Butternut Squash");
        assert_eq!(camel_to_label("Egg"), "Egg");
    }
}
