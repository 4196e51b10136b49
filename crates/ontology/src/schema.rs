//! The TBoxes: the Explanation Ontology fragment, the Food Explanation
//! Ontology itself, and the "What To Make" food ontology.
//!
//! These are the Rust encoding of the paper's §III ontology modeling:
//!
//! - **Figure 1** — the `feo:Characteristic` class hierarchy
//!   ([`feo_tbox`]);
//! - **Figure 2** — the property lattice: `feo:hasCharacteristic`
//!   (transitive) with its inverse `feo:isCharacteristicOf`, the
//!   supportive/opposing sub-lattice, and `feo:forbids` /
//!   `feo:recommends` under both a polarity property and
//!   `isCharacteristicOf` (multiple inheritance, §III-B);
//! - **Figure 3** — `eo:Fact` / `eo:Foil` as `owl:equivalentClass`
//!   definitions over the polarity properties and ecosystem presence;
//! - the `feo:isInternal` flag separating internal (food/health) from
//!   external (season, location, budget) characteristic classes, which
//!   contextual explanations filter on.

use feo_rdf::Graph;

use crate::builder::TBox;
use crate::ns::{eo, feo, food};

/// Writes the Explanation Ontology fragment FEO imports.
pub fn eo_tbox(g: &mut Graph) {
    let mut b = TBox::new(g);
    b.class(eo::EXPLANATION, "Explanation");
    for (iri, label) in [
        (eo::CASE_BASED, "Case Based Explanation"),
        (eo::CONTEXTUAL, "Contextual Explanation"),
        (eo::CONTRASTIVE, "Contrastive Explanation"),
        (eo::COUNTERFACTUAL, "Counterfactual Explanation"),
        (eo::EVERYDAY, "Everyday Explanation"),
        (eo::SCIENTIFIC, "Scientific Explanation"),
        (eo::SIMULATION_BASED, "Simulation Based Explanation"),
        (eo::STATISTICAL, "Statistical Explanation"),
        (eo::TRACE_BASED, "Trace Based Explanation"),
    ] {
        b.class(iri, label).sub_class(iri, eo::EXPLANATION);
    }

    // Knowledge-level constructs: the competency queries exclude
    // subclasses of eo:knowledge when listing characteristic types.
    b.class(eo::KNOWLEDGE, "knowledge");
    b.class(eo::FACT, "Fact").sub_class(eo::FACT, eo::KNOWLEDGE);
    b.class(eo::FOIL, "Foil").sub_class(eo::FOIL, eo::KNOWLEDGE);

    b.class(eo::OBJECT_RECORD, "Object Record");
    b.class(eo::KNOWLEDGE_RECORD, "Knowledge Record")
        .sub_class(eo::KNOWLEDGE_RECORD, eo::KNOWLEDGE);
    b.class(eo::RECOMMENDATION, "Recommendation");
    b.class(eo::SYSTEM_RECOMMENDATION, "System Recommendation")
        .sub_class(eo::SYSTEM_RECOMMENDATION, eo::RECOMMENDATION);

    b.object_property(eo::BASED_ON, "is based on");
    b.object_property(eo::IN_RELATION_TO, "in relation to");
}

/// Writes the FEO TBox (the paper's contribution).
pub fn feo_tbox(g: &mut Graph) {
    let mut b = TBox::new(g);

    // ---- Figure 1: the Characteristic hierarchy -----------------------
    b.class(feo::CHARACTERISTIC, "Characteristic");
    b.class(feo::PARAMETER, "Parameter")
        .sub_class(feo::PARAMETER, feo::CHARACTERISTIC);
    b.class(feo::USER_CHARACTERISTIC, "User Characteristic")
        .sub_class(feo::USER_CHARACTERISTIC, feo::CHARACTERISTIC);
    b.class(feo::SYSTEM_CHARACTERISTIC, "System Characteristic")
        .sub_class(feo::SYSTEM_CHARACTERISTIC, feo::CHARACTERISTIC);

    for (iri, label) in [
        (feo::LIKED_FOOD, "Liked Food Characteristic"),
        (feo::DISLIKED_FOOD, "Disliked Food Characteristic"),
        (feo::ALLERGIC_FOOD, "Allergic Food Characteristic"),
        (feo::DIET, "Diet Characteristic"),
        (feo::NUTRITIONAL_GOAL, "Nutritional Goal Characteristic"),
        (feo::PREGNANCY, "Pregnancy Characteristic"),
        (feo::BUDGET, "Budget Characteristic"),
    ] {
        b.class(iri, label).sub_class(iri, feo::USER_CHARACTERISTIC);
    }
    for (iri, label) in [
        (feo::SEASON, "Season Characteristic"),
        (feo::LOCATION, "Location Characteristic"),
        (feo::TIME, "Time Characteristic"),
    ] {
        b.class(iri, label)
            .sub_class(iri, feo::SYSTEM_CHARACTERISTIC);
    }

    // feo:isInternal — internal (food/health) vs external (environment)
    // characteristic classes; contextual explanations use external only.
    b.datatype_property(feo::IS_INTERNAL, "is internal");
    for internal in [
        feo::LIKED_FOOD,
        feo::DISLIKED_FOOD,
        feo::ALLERGIC_FOOD,
        feo::DIET,
        feo::NUTRITIONAL_GOAL,
        feo::PREGNANCY,
    ] {
        b.boolean(internal, feo::IS_INTERNAL, true);
    }
    for external in [feo::SEASON, feo::LOCATION, feo::TIME, feo::BUDGET] {
        b.boolean(external, feo::IS_INTERNAL, false);
    }

    // ---- Question / ecosystem classes ---------------------------------
    b.class(feo::QUESTION, "Question");
    b.class(feo::ECOSYSTEM, "Ecosystem");
    b.individual(feo::CURRENT_ECOSYSTEM, feo::ECOSYSTEM, "Current Ecosystem");

    // ---- Figure 2: the property lattice --------------------------------
    b.object_property(feo::HAS_CHARACTERISTIC, "has characteristic")
        .transitive(feo::HAS_CHARACTERISTIC);
    b.object_property(feo::IS_CHARACTERISTIC_OF, "is characteristic of")
        .inverse(feo::IS_CHARACTERISTIC_OF, feo::HAS_CHARACTERISTIC);

    b.object_property(
        feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
        "is supportive characteristic of",
    )
    .sub_property(
        feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
        feo::IS_CHARACTERISTIC_OF,
    );
    b.object_property(
        feo::IS_OPPOSING_CHARACTERISTIC_OF,
        "is opposing characteristic of",
    )
    .sub_property(
        feo::IS_OPPOSING_CHARACTERISTIC_OF,
        feo::IS_CHARACTERISTIC_OF,
    );

    // §III-B: feo:forbids is a subproperty of both the opposing polarity
    // property and isCharacteristicOf (multiple inheritance).
    b.object_property(feo::FORBIDS, "forbids")
        .sub_property(feo::FORBIDS, feo::IS_OPPOSING_CHARACTERISTIC_OF)
        .sub_property(feo::FORBIDS, feo::IS_CHARACTERISTIC_OF);
    b.object_property(feo::RECOMMENDS, "recommends")
        .sub_property(feo::RECOMMENDS, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF)
        .sub_property(feo::RECOMMENDS, feo::IS_CHARACTERISTIC_OF);

    // Polarity propagates through composition: a characteristic of a
    // characteristic of F supports/opposes F. This is the inference that
    // lets "Autumn supports Butternut Squash Soup" follow from
    // "Autumn is the season of butternut squash" + "butternut squash is
    // an ingredient of the soup".
    b.chain(
        feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
        &[
            feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
            feo::IS_CHARACTERISTIC_OF,
        ],
    );
    b.chain(
        feo::IS_OPPOSING_CHARACTERISTIC_OF,
        &[
            feo::IS_OPPOSING_CHARACTERISTIC_OF,
            feo::IS_CHARACTERISTIC_OF,
        ],
    );
    // feo:forbids / feo:recommends propagate into composite dishes:
    // pregnancy forbids raw fish → pregnancy forbids sushi.
    b.chain(feo::FORBIDS, &[feo::FORBIDS, food::CATEGORY_OF]);
    b.chain(feo::FORBIDS, &[feo::FORBIDS, food::IS_INGREDIENT_OF]);
    b.chain(feo::RECOMMENDS, &[feo::RECOMMENDS, food::IS_NUTRIENT_OF]);

    // Question parameters.
    b.object_property(feo::HAS_PARAMETER, "has parameter")
        .domain(feo::HAS_PARAMETER, feo::QUESTION)
        .range(feo::HAS_PARAMETER, feo::PARAMETER);
    b.object_property(feo::HAS_PRIMARY_PARAMETER, "has primary parameter")
        .sub_property(feo::HAS_PRIMARY_PARAMETER, feo::HAS_PARAMETER);
    b.object_property(feo::HAS_SECONDARY_PARAMETER, "has secondary parameter")
        .sub_property(feo::HAS_SECONDARY_PARAMETER, feo::HAS_PARAMETER);

    // Ecosystem presence.
    b.object_property(feo::PRESENT_IN, "present in ecosystem")
        .range(feo::PRESENT_IN, feo::ECOSYSTEM);
    b.object_property(feo::ABSENT_FROM, "absent from ecosystem")
        .range(feo::ABSENT_FROM, feo::ECOSYSTEM);

    // ---- Figure 3: facts and foils -------------------------------------
    // Fact ≡ (supports some Parameter) ⊓ (presentIn value CurrentEcosystem)
    let supports_param = b.some_values_from(feo::IS_SUPPORTIVE_CHARACTERISTIC_OF, feo::PARAMETER);
    let present = b.has_value(feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    let fact = b.intersection(&[supports_param, present]);
    b.equivalent_to_node(eo::FACT, fact);

    // Foil ≡ (supports some Parameter ⊓ absentFrom value Eco)
    //      ⊔ (opposes some Parameter ⊓ presentIn value Eco)
    let supports_param2 = b.some_values_from(feo::IS_SUPPORTIVE_CHARACTERISTIC_OF, feo::PARAMETER);
    let absent = b.has_value(feo::ABSENT_FROM, feo::CURRENT_ECOSYSTEM);
    let arm1 = b.intersection(&[supports_param2, absent]);
    let opposes_param = b.some_values_from(feo::IS_OPPOSING_CHARACTERISTIC_OF, feo::PARAMETER);
    let present2 = b.has_value(feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
    let arm2 = b.intersection(&[opposes_param, present2]);
    let foil = b.union(&[arm1, arm2]);
    b.equivalent_to_node(eo::FOIL, foil);

    // Characteristic classes inferred from user relations (§III-B: the
    // inverse-property pattern — dislikedBy lets the reasoner classify
    // DislikedFoodCharacteristic without asserting user facts twice).
    let liked = b.some_values_from(food::LIKED_BY, food::USER);
    b.equivalent_to_node(feo::LIKED_FOOD, liked);
    let disliked = b.some_values_from(food::DISLIKED_BY, food::USER);
    b.equivalent_to_node(feo::DISLIKED_FOOD, disliked);
    let allergic = b.some_values_from(food::ALLERGEN_OF, food::USER);
    b.equivalent_to_node(feo::ALLERGIC_FOOD, allergic);

    // ---- Season individuals --------------------------------------------
    for (iri, label) in [
        (feo::SPRING, "Spring"),
        (feo::SUMMER, "Summer"),
        (feo::AUTUMN, "Autumn"),
        (feo::WINTER, "Winter"),
    ] {
        b.individual(iri, feo::SEASON, label);
    }

    // Pregnancy as a (hypothetical) user characteristic individual with
    // its dietary knowledge: forbids raw fish, recommends folate.
    b.individual(feo::PREGNANCY_STATE, feo::PREGNANCY, "Pregnancy");
}

/// Writes the "What To Make" food TBox with FEO's extensions.
pub fn food_tbox(g: &mut Graph) {
    let mut b = TBox::new(g);

    b.class(food::FOOD, "Food");
    b.class(food::RECIPE, "Recipe")
        .sub_class(food::RECIPE, food::FOOD);
    b.class(food::INGREDIENT, "Ingredient")
        .sub_class(food::INGREDIENT, food::FOOD);
    b.class(food::NUTRIENT, "Nutrient");
    b.class(food::FOOD_CATEGORY, "Food Category");
    b.class(food::DIET, "Diet")
        .sub_class(food::DIET, crate::ns::feo::DIET);
    b.class(food::USER, "User");
    b.class(food::REGION, "Region")
        .sub_class(food::REGION, crate::ns::feo::LOCATION);

    // Composition properties — each is a specific kind of characteristic,
    // so they slot under feo:hasCharacteristic / feo:isCharacteristicOf.
    // hasIngredient is irreflexive: a dish cannot be its own ingredient.
    // This gives the consistency checker a genuine violation to catch in
    // malformed KGs.
    b.object_property(food::HAS_INGREDIENT, "has ingredient")
        .sub_property(food::HAS_INGREDIENT, feo::HAS_CHARACTERISTIC)
        .domain(food::HAS_INGREDIENT, food::FOOD)
        .triple_iri(
            food::HAS_INGREDIENT,
            feo_rdf::vocab::rdf::TYPE,
            feo_rdf::vocab::owl::IRREFLEXIVE_PROPERTY,
        );
    // Note: isIngredientOf is deliberately NOT under the supportive
    // polarity property — mere containment is neutral in Figure 3's
    // sense (otherwise an allergen would be classified a Fact of the very
    // dish it opposes). Polarity reaches dishes through the supportive /
    // opposing chains over isCharacteristicOf instead.
    b.object_property(food::IS_INGREDIENT_OF, "is ingredient of")
        .inverse(food::IS_INGREDIENT_OF, food::HAS_INGREDIENT);

    b.object_property(food::HAS_NUTRIENT, "has nutrient")
        .sub_property(food::HAS_NUTRIENT, feo::HAS_CHARACTERISTIC);
    b.object_property(food::IS_NUTRIENT_OF, "is nutrient of")
        .inverse(food::IS_NUTRIENT_OF, food::HAS_NUTRIENT)
        .sub_property(food::IS_NUTRIENT_OF, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF);

    b.object_property(food::AVAILABLE_IN_SEASON, "available in season")
        .sub_property(food::AVAILABLE_IN_SEASON, feo::HAS_CHARACTERISTIC);
    b.object_property(food::SEASON_OF, "season of")
        .inverse(food::SEASON_OF, food::AVAILABLE_IN_SEASON)
        .sub_property(food::SEASON_OF, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF);

    b.object_property(food::AVAILABLE_IN_REGION, "available in region")
        .sub_property(food::AVAILABLE_IN_REGION, feo::HAS_CHARACTERISTIC);
    b.object_property(food::REGION_OF, "region of")
        .inverse(food::REGION_OF, food::AVAILABLE_IN_REGION)
        .sub_property(food::REGION_OF, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF);

    b.object_property(food::BELONGS_TO_CATEGORY, "belongs to category")
        .sub_property(food::BELONGS_TO_CATEGORY, feo::HAS_CHARACTERISTIC);
    b.object_property(food::CATEGORY_OF, "category of")
        .inverse(food::CATEGORY_OF, food::BELONGS_TO_CATEGORY);

    // User preference properties with the inverse pattern from §III-B.
    b.object_property(food::LIKES, "likes")
        .domain(food::LIKES, food::USER);
    b.object_property(food::LIKED_BY, "liked by")
        .inverse(food::LIKED_BY, food::LIKES);
    // Liking and disliking the same food is contradictory — declared
    // disjoint so the reasoner flags malformed profiles.
    b.object_property(food::DISLIKES, "dislikes")
        .domain(food::DISLIKES, food::USER)
        .triple_iri(
            food::LIKES,
            feo_rdf::vocab::owl::PROPERTY_DISJOINT_WITH,
            food::DISLIKES,
        );
    b.object_property(food::DISLIKED_BY, "disliked by")
        .inverse(food::DISLIKED_BY, food::DISLIKES);
    b.object_property(food::ALLERGIC_TO, "allergic to")
        .domain(food::ALLERGIC_TO, food::USER);
    b.object_property(food::ALLERGEN_OF, "allergen of")
        .inverse(food::ALLERGEN_OF, food::ALLERGIC_TO);
    b.object_property(food::FOLLOWS_DIET, "follows diet")
        .domain(food::FOLLOWS_DIET, food::USER)
        .range(food::FOLLOWS_DIET, food::DIET);
    b.object_property(food::DIET_OF, "diet of")
        .inverse(food::DIET_OF, food::FOLLOWS_DIET);
    b.object_property(food::HAS_GOAL, "has goal")
        .domain(food::HAS_GOAL, food::USER)
        .range(food::HAS_GOAL, feo::NUTRITIONAL_GOAL);
    // A diet forbids food categories (vegan forbids meat, …). This is
    // deliberately NOT a subproperty of feo:forbids — Listing 3's
    // leaf-property filter requires feo:forbids to have no subproperties,
    // so the ABox emitter asserts feo:forbids alongside forbidsCategory.
    b.object_property(food::FORBIDS_CATEGORY, "forbids category")
        .domain(food::FORBIDS_CATEGORY, food::DIET)
        .range(food::FORBIDS_CATEGORY, food::FOOD_CATEGORY);

    b.datatype_property(food::CALORIES, "calories per serving");
    b.datatype_property(food::SERVES, "serves");
    b.datatype_property(food::PRICE_TIER, "price tier");
}

/// Loads all three TBoxes into a graph.
pub fn load_tboxes(g: &mut Graph) {
    eo_tbox(g);
    feo_tbox(g);
    food_tbox(g);
}

/// A fresh graph containing the full TBox stack.
pub fn tbox_graph() -> Graph {
    let mut g = Graph::new();
    load_tboxes(&mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_owl::{extract_axioms, Reasoner};
    use feo_rdf::vocab::rdf;
    use feo_rdf::{GraphStore, GraphView};

    #[test]
    fn tboxes_load_without_extraction_warnings() {
        let g = tbox_graph();
        let ont = extract_axioms(&g);
        assert!(ont.warnings.is_empty(), "warnings: {:?}", ont.warnings);
        assert!(
            ont.axioms.len() > 60,
            "expected a rich TBox, got {}",
            ont.axioms.len()
        );
    }

    #[test]
    fn tboxes_are_consistent_standalone() {
        let mut g = tbox_graph();
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r.is_consistent(), "{:?}", r.inconsistencies);
    }

    #[test]
    fn characteristic_hierarchy_closes() {
        let mut g = tbox_graph();
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let sco = g.lookup_iri(feo_rdf::vocab::rdfs::SUB_CLASS_OF).unwrap();
        let characteristic = g.lookup_iri(feo::CHARACTERISTIC).unwrap();
        let season = g.lookup_iri(feo::SEASON).unwrap();
        assert!(
            g.contains_ids(season, sco, characteristic),
            "SeasonCharacteristic ⊑ Characteristic must be materialized"
        );
    }

    #[test]
    fn seasons_are_typed_system_characteristics() {
        let mut g = tbox_graph();
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let autumn = g.lookup_iri(feo::AUTUMN).unwrap();
        let system = g.lookup_iri(feo::SYSTEM_CHARACTERISTIC).unwrap();
        assert!(g.contains_ids(autumn, ty, system));
    }

    #[test]
    fn internal_flags_are_set() {
        let g = tbox_graph();
        let is_internal = g.lookup_iri(feo::IS_INTERNAL).unwrap();
        let t = g.lookup(&feo_rdf::Term::boolean(true)).unwrap();
        let f = g.lookup(&feo_rdf::Term::boolean(false)).unwrap();
        let diet = g.lookup_iri(feo::DIET).unwrap();
        let season = g.lookup_iri(feo::SEASON).unwrap();
        assert!(g.contains_ids(diet, is_internal, t));
        assert!(g.contains_ids(season, is_internal, f));
    }

    #[test]
    fn disliked_food_inferred_via_inverse() {
        // The exact §III-B scenario: asserting only user dislikes x, the
        // reasoner infers x : DislikedFoodCharacteristic through the
        // inverse property and the someValuesFrom equivalence.
        let mut g = tbox_graph();
        g.insert_iris("http://e/u", rdf::TYPE, food::USER);
        g.insert_iris("http://e/u", food::DISLIKES, "http://e/okra");
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let okra = g.lookup_iri("http://e/okra").unwrap();
        let disliked = g.lookup_iri(feo::DISLIKED_FOOD).unwrap();
        assert!(g.contains_ids(okra, ty, disliked));
        // And it is a UserCharacteristic by subclass closure.
        let uc = g.lookup_iri(feo::USER_CHARACTERISTIC).unwrap();
        assert!(g.contains_ids(okra, ty, uc));
    }

    #[test]
    fn fact_classification_via_equivalence() {
        let mut g = tbox_graph();
        // A parameter P supported by Autumn, which is present in the
        // current ecosystem.
        g.insert_iris("http://e/q", feo::HAS_PRIMARY_PARAMETER, "http://e/P");
        g.insert_iris(
            feo::AUTUMN,
            feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
            "http://e/P",
        );
        g.insert_iris(feo::AUTUMN, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let autumn = g.lookup_iri(feo::AUTUMN).unwrap();
        let fact = g.lookup_iri(eo::FACT).unwrap();
        assert!(g.contains_ids(autumn, ty, fact), "Autumn should be a Fact");
        // The parameter got typed feo:Parameter by the range axiom.
        let p = g.lookup_iri("http://e/P").unwrap();
        let param = g.lookup_iri(feo::PARAMETER).unwrap();
        assert!(g.contains_ids(p, ty, param));
    }

    #[test]
    fn foil_classification_both_arms() {
        let mut g = tbox_graph();
        g.insert_iris("http://e/q", feo::HAS_PRIMARY_PARAMETER, "http://e/P");
        // Arm 1: supportive but absent.
        g.insert_iris(
            feo::SUMMER,
            feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
            "http://e/P",
        );
        g.insert_iris(feo::SUMMER, feo::ABSENT_FROM, feo::CURRENT_ECOSYSTEM);
        // Arm 2: opposing and present.
        g.insert_iris(
            "http://e/broccoli",
            feo::IS_OPPOSING_CHARACTERISTIC_OF,
            "http://e/P",
        );
        g.insert_iris("http://e/broccoli", feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let foil = g.lookup_iri(eo::FOIL).unwrap();
        let summer = g.lookup_iri(feo::SUMMER).unwrap();
        let broccoli = g.lookup_iri("http://e/broccoli").unwrap();
        assert!(
            g.contains_ids(summer, ty, foil),
            "supportive+absent is a foil"
        );
        assert!(
            g.contains_ids(broccoli, ty, foil),
            "opposing+present is a foil"
        );
        // Neither is a Fact.
        let fact = g.lookup_iri(eo::FACT).unwrap();
        assert!(!g.contains_ids(summer, ty, fact));
        assert!(!g.contains_ids(broccoli, ty, fact));
    }

    #[test]
    fn supportive_polarity_propagates_through_composition() {
        let mut g = tbox_graph();
        // soup hasIngredient squash; squash availableInSeason Autumn.
        g.insert_iris("http://e/soup", food::HAS_INGREDIENT, "http://e/squash");
        g.insert_iris("http://e/squash", food::AVAILABLE_IN_SEASON, feo::AUTUMN);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let autumn = g.lookup_iri(feo::AUTUMN).unwrap();
        let soup = g.lookup_iri("http://e/soup").unwrap();
        let supportive = g.lookup_iri(feo::IS_SUPPORTIVE_CHARACTERISTIC_OF).unwrap();
        let has_char = g.lookup_iri(feo::HAS_CHARACTERISTIC).unwrap();
        assert!(
            g.contains_ids(autumn, supportive, soup),
            "polarity chain: autumn supports the soup through its ingredient"
        );
        assert!(
            g.contains_ids(soup, has_char, autumn),
            "transitive hasCharacteristic reaches the season"
        );
    }

    #[test]
    fn forbids_propagates_into_dishes() {
        let mut g = tbox_graph();
        // sushi hasIngredient rawSalmon; rawSalmon belongsToCategory RawFish;
        // pregnancy forbids RawFish.
        g.insert_iris("http://e/sushi", food::HAS_INGREDIENT, "http://e/rawSalmon");
        g.insert_iris(
            "http://e/rawSalmon",
            food::BELONGS_TO_CATEGORY,
            "http://e/RawFish",
        );
        g.insert_iris(feo::PREGNANCY_STATE, feo::FORBIDS, "http://e/RawFish");
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let preg = g.lookup_iri(feo::PREGNANCY_STATE).unwrap();
        let forbids = g.lookup_iri(feo::FORBIDS).unwrap();
        let salmon = g.lookup_iri("http://e/rawSalmon").unwrap();
        let sushi = g.lookup_iri("http://e/sushi").unwrap();
        assert!(
            g.contains_ids(preg, forbids, salmon),
            "category chain: forbidden category ⇒ forbidden ingredient"
        );
        assert!(
            g.contains_ids(preg, forbids, sushi),
            "ingredient chain: forbidden ingredient ⇒ forbidden dish"
        );
    }

    #[test]
    fn recommends_propagates_from_nutrients() {
        let mut g = tbox_graph();
        g.insert_iris("http://e/spinach", food::HAS_NUTRIENT, "http://e/Folate");
        g.insert_iris(feo::PREGNANCY_STATE, feo::RECOMMENDS, "http://e/Folate");
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let preg = g.lookup_iri(feo::PREGNANCY_STATE).unwrap();
        let recommends = g.lookup_iri(feo::RECOMMENDS).unwrap();
        let spinach = g.lookup_iri("http://e/spinach").unwrap();
        assert!(g.contains_ids(preg, recommends, spinach));
    }
}

#[cfg(test)]
mod hardening_tests {
    use super::*;
    use feo_owl::{InconsistencyKind, Reasoner};
    use feo_rdf::GraphStore;

    #[test]
    fn self_ingredient_is_inconsistent() {
        let mut g = tbox_graph();
        g.insert_iris(
            "http://e/OuroborosStew",
            food::HAS_INGREDIENT,
            "http://e/OuroborosStew",
        );
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(!r.is_consistent());
        assert!(r
            .inconsistencies
            .iter()
            .any(|i| i.kind == InconsistencyKind::IrreflexiveViolation));
    }

    #[test]
    fn well_formed_kg_stays_consistent_with_hardening() {
        let mut g = tbox_graph();
        g.insert_iris("http://e/soup", food::HAS_INGREDIENT, "http://e/leek");
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r.is_consistent(), "{:?}", r.inconsistencies);
    }
}

#[cfg(test)]
mod profile_hardening_tests {
    use super::*;
    use feo_owl::{InconsistencyKind, Reasoner};
    use feo_rdf::GraphStore;

    #[test]
    fn liking_and_disliking_same_food_is_inconsistent() {
        let mut g = tbox_graph();
        g.insert_iris("http://e/u", food::LIKES, "http://e/kale");
        g.insert_iris("http://e/u", food::DISLIKES, "http://e/kale");
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r
            .inconsistencies
            .iter()
            .any(|i| i.kind == InconsistencyKind::DisjointPropertiesViolation));
    }
}
