//! Auxiliary knowledge bases for the extension explanation types (§VI):
//! everyday rules of thumb, scientific evidence records, and a synthetic
//! reference population with goal outcomes for case-based and statistical
//! explanations.

use feo_foodkg::{user_to_rdf, FoodKg, UserProfile};
use feo_ontology::ns::{eo, feo};
use feo_rdf::term::Term;
use feo_rdf::vocab::{rdf, rdfs};
use feo_rdf::GraphStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dedicated class for everyday rules of thumb (a
/// `eo:KnowledgeRecord` specialization).
pub const EVERYDAY_RECORD: &str = "https://purl.org/heals/feo#EverydayKnowledgeRecord";
/// The class for cited scientific evidence records.
pub const SCIENTIFIC_RECORD: &str = "https://purl.org/heals/feo#ScientificKnowledgeRecord";

/// One knowledge record: an assertion `about` a characteristic, with the
/// statement text and (for scientific records) the source citation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnowledgeRecord {
    pub id: &'static str,
    /// Local name of the characteristic (ingredient / season / nutrient)
    /// the record is about.
    pub about: &'static str,
    pub text: &'static str,
    /// Citation; empty for everyday records.
    pub source: &'static str,
}

/// Everyday (common-sense) food knowledge.
pub fn everyday_records() -> Vec<KnowledgeRecord> {
    vec![
        KnowledgeRecord {
            id: "EverydayAutumnProduce",
            about: "Autumn",
            text: "Produce picked in its season is fresher and tastes better.",
            source: "",
        },
        KnowledgeRecord {
            id: "EverydayCauliflower",
            about: "Cauliflower",
            text: "Roasted cauliflower is a filling, low-calorie vegetable.",
            source: "",
        },
        KnowledgeRecord {
            id: "EverydaySpinach",
            about: "Spinach",
            text: "Leafy greens like spinach are an easy way to add vitamins to a meal.",
            source: "",
        },
        KnowledgeRecord {
            id: "EverydayLentils",
            about: "Lentils",
            text: "Beans and lentils keep you full longer than refined carbs.",
            source: "",
        },
        KnowledgeRecord {
            id: "EverydayFiber",
            about: "Fiber",
            text: "Fiber-rich meals aid digestion and steady your energy.",
            source: "",
        },
        KnowledgeRecord {
            id: "EverydayProtein",
            about: "Protein",
            text: "Protein at every meal helps maintain muscle.",
            source: "",
        },
    ]
}

/// Cited scientific evidence.
pub fn scientific_records() -> Vec<KnowledgeRecord> {
    vec![
        KnowledgeRecord {
            id: "StudyFolatePregnancy",
            about: "Folate",
            text: "Periconceptional folic acid supplementation reduces neural-tube defects.",
            source: "Czeizel & Dudas 1992, NEJM",
        },
        KnowledgeRecord {
            id: "StudyOmega3Heart",
            about: "Omega3",
            text: "Omega-3 fatty acid intake is associated with lower cardiovascular risk.",
            source: "GISSI-Prevenzione 1999, The Lancet",
        },
        KnowledgeRecord {
            id: "StudyFiberMortality",
            about: "Fiber",
            text: "Higher dietary fiber intake is associated with reduced all-cause mortality.",
            source: "Park et al. 2011, Arch Intern Med",
        },
        KnowledgeRecord {
            id: "StudyCruciferous",
            about: "Cauliflower",
            text: "Cruciferous vegetable consumption is linked to lower cancer incidence.",
            source: "Verhoeven et al. 1996, Cancer Epidemiol",
        },
        KnowledgeRecord {
            id: "StudyVitaminC",
            about: "VitaminC",
            text: "Adequate vitamin C intake supports normal immune function.",
            source: "Carr & Maggini 2017, Nutrients",
        },
        KnowledgeRecord {
            id: "StudySpinachNitrate",
            about: "Spinach",
            text: "Dietary nitrate from leafy greens lowers blood pressure.",
            source: "Siervo et al. 2013, J Nutr",
        },
    ]
}

/// Emits both record sets into the graph as `eo:KnowledgeRecord`
/// individuals with `eo:inRelationTo` links.
pub fn records_to_rdf(g: &mut impl GraphStore) {
    // Record classes under eo:KnowledgeRecord (which is under
    // eo:knowledge, keeping records out of characteristic listings).
    g.insert_iris(EVERYDAY_RECORD, rdfs::SUB_CLASS_OF, eo::KNOWLEDGE_RECORD);
    g.insert_iris(SCIENTIFIC_RECORD, rdfs::SUB_CLASS_OF, eo::KNOWLEDGE_RECORD);
    for (class, records) in [
        (EVERYDAY_RECORD, everyday_records()),
        (SCIENTIFIC_RECORD, scientific_records()),
    ] {
        for r in records {
            let iri = FoodKg::iri(r.id);
            g.insert_iris(&iri, rdf::TYPE, class);
            g.insert_iris(&iri, eo::IN_RELATION_TO, &FoodKg::iri(r.about));
            g.insert_terms(
                feo_rdf::Iri::new(iri.clone()),
                feo_rdf::Iri::new(rdfs::COMMENT),
                Term::simple(r.text),
            );
            if !r.source.is_empty() {
                g.insert_terms(
                    feo_rdf::Iri::new(iri.clone()),
                    feo_rdf::Iri::new(eo::BASED_ON),
                    Term::simple(r.source),
                );
            }
        }
    }
}

/// A synthetic reference population with seeded goal outcomes, used by
/// case-based ("other users like you chose X") and statistical ("N of M
/// users on this diet met their goal") explanations.
#[derive(Debug, Clone)]
pub struct Population {
    pub profiles: Vec<UserProfile>,
    /// (user id, goal id) pairs for achieved goals.
    pub achievements: Vec<(String, String)>,
}

impl Population {
    /// Generates a population of `n` users over the KG; roughly 60% of
    /// users with a goal are marked as having achieved it when their
    /// liked recipes actually provide the goal nutrient, 20% otherwise —
    /// so diets that steer users toward goal nutrients show measurably
    /// better outcomes.
    pub fn generate(kg: &FoodKg, n: usize, seed: u64) -> Population {
        let profiles = feo_foodkg::random_profiles(kg, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE);
        let mut achievements = Vec::new();
        for p in &profiles {
            for goal_id in &p.goals {
                let Some(goal) = kg.goal(goal_id) else {
                    continue;
                };
                let aligned = p.likes.iter().any(|recipe_id| {
                    kg.recipe(recipe_id)
                        .map(|r| kg.recipe_nutrients(r).contains(&goal.wants_nutrient))
                        .unwrap_or(false)
                });
                let p_success = if aligned { 0.6 } else { 0.2 };
                if rng.gen_bool(p_success) {
                    achievements.push((p.id.clone(), goal_id.clone()));
                }
            }
        }
        Population {
            profiles,
            achievements,
        }
    }

    /// Emits the population ABox (profiles + achievements).
    pub fn to_rdf(&self, g: &mut impl GraphStore) {
        for p in &self.profiles {
            user_to_rdf(p, g);
        }
        for (user, goal) in &self.achievements {
            g.insert_iris(&FoodKg::iri(user), feo::ACHIEVED_GOAL, &FoodKg::iri(goal));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_foodkg::curated;
    use feo_rdf::{Graph, GraphView};

    #[test]
    fn records_reference_known_entities() {
        let kg = curated();
        for r in everyday_records().iter().chain(scientific_records().iter()) {
            let known = kg.ingredient(r.about).is_some()
                || r.about == "Autumn"
                || kg
                    .ingredients
                    .iter()
                    .any(|i| i.nutrients.contains(&r.about.to_string()));
            assert!(known, "record {} about unknown entity {}", r.id, r.about);
        }
    }

    #[test]
    fn scientific_records_have_sources() {
        for r in scientific_records() {
            assert!(!r.source.is_empty(), "{} lacks a source", r.id);
        }
        for r in everyday_records() {
            assert!(r.source.is_empty());
        }
    }

    #[test]
    fn records_emit_rdf() {
        let mut g = Graph::new();
        records_to_rdf(&mut g);
        let rec = g.lookup_iri(&FoodKg::iri("StudyFolatePregnancy")).unwrap();
        let based_on = g.lookup_iri(eo::BASED_ON).unwrap();
        assert!(g.object(rec, based_on).is_some());
        let in_rel = g.lookup_iri(eo::IN_RELATION_TO).unwrap();
        let folate = g.lookup_iri(&FoodKg::iri("Folate")).unwrap();
        assert!(g.contains_ids(rec, in_rel, folate));
    }

    #[test]
    fn population_is_deterministic_and_outcome_biased() {
        let kg = curated();
        let a = Population::generate(&kg, 200, 5);
        let b = Population::generate(&kg, 200, 5);
        assert_eq!(a.achievements, b.achievements);
        assert!(!a.achievements.is_empty());
        // Achievements only reference users who hold that goal.
        for (user, goal) in &a.achievements {
            let p = a.profiles.iter().find(|p| &p.id == user).unwrap();
            assert!(p.goals.contains(goal));
        }
    }

    #[test]
    fn population_rdf_includes_achievements() {
        let kg = curated();
        let pop = Population::generate(&kg, 50, 5);
        let mut g = Graph::new();
        pop.to_rdf(&mut g);
        let achieved = g.lookup_iri(feo::ACHIEVED_GOAL);
        assert!(achieved.is_some());
        let n = g.match_pattern(None, achieved, None).len();
        assert_eq!(n, pop.achievements.len());
    }
}
