//! Reverse loader: reconstructs a [`FoodKg`] from an RDF graph in the
//! `food:`/`feo:` vocabulary — the path for ingesting external FoodKG
//! dumps (Turtle) instead of the built-in curated/synthetic data.

use feo_ontology::ns::{feo, food};
use feo_rdf::vocab::rdf;
use feo_rdf::{Graph, GraphView, Term, TermId};

use crate::model::{Diet, FoodKg, Goal, Ingredient, Recipe, Season};

/// Reads a knowledge graph out of `g`. Unknown or non-`feo:`-namespaced
/// individuals are skipped; the loader is lenient by design (external
/// dumps carry extra vocabulary).
pub fn kg_from_rdf(g: &Graph) -> FoodKg {
    let mut kg = FoodKg::new();
    let Some(ty) = g.lookup_iri(rdf::TYPE) else {
        return kg;
    };
    let local = |id: TermId| -> Option<String> {
        match g.term(id) {
            Term::Iri(iri) => Some(iri.local_name().to_string()),
            _ => None,
        }
    };
    let season_of = |id: TermId| -> Option<Season> {
        let name = local(id)?;
        Season::ALL.iter().copied().find(|s| s.name() == name)
    };

    // Ingredients.
    if let Some(ing_class) = g.lookup_iri(food::INGREDIENT) {
        for id in g.subjects(ty, ing_class) {
            let Some(name) = local(id) else { continue };
            let mut ing = Ingredient::new(&name);
            if let Some(p) = g.lookup_iri(food::AVAILABLE_IN_SEASON) {
                ing.seasons = g.objects(id, p).into_iter().filter_map(season_of).collect();
                ing.seasons.sort();
                ing.seasons.dedup();
            }
            if let Some(p) = g.lookup_iri(food::AVAILABLE_IN_REGION) {
                ing.regions = g.objects(id, p).into_iter().filter_map(local).collect();
                ing.regions.sort();
            }
            if let Some(p) = g.lookup_iri(food::HAS_NUTRIENT) {
                ing.nutrients = g.objects(id, p).into_iter().filter_map(local).collect();
                ing.nutrients.sort();
            }
            if let Some(p) = g.lookup_iri(food::BELONGS_TO_CATEGORY) {
                ing.categories = g.objects(id, p).into_iter().filter_map(local).collect();
                ing.categories.sort();
            }
            kg.add_ingredient(ing);
        }
    }

    // Recipes.
    if let Some(recipe_class) = g.lookup_iri(food::RECIPE) {
        let mut ids = g.subjects(ty, recipe_class);
        ids.sort();
        for id in ids {
            let Some(name) = local(id) else { continue };
            let label = g
                .lookup_iri(feo_rdf::vocab::rdfs::LABEL)
                .and_then(|p| g.object(id, p))
                .and_then(|o| match g.term(o) {
                    Term::Literal(l) => Some(l.lexical_form().to_string()),
                    _ => None,
                })
                .unwrap_or_else(|| name.clone());
            let mut recipe = Recipe::new(&name, &label);
            if let Some(p) = g.lookup_iri(food::HAS_INGREDIENT) {
                recipe.ingredients = g.objects(id, p).into_iter().filter_map(local).collect();
                recipe.ingredients.sort();
            }
            // Dish-level categories are those asserted directly on the
            // recipe individual.
            if let Some(p) = g.lookup_iri(food::BELONGS_TO_CATEGORY) {
                recipe.categories = g.objects(id, p).into_iter().filter_map(local).collect();
                recipe.categories.sort();
            }
            let int_of = |prop: &str| -> Option<i64> {
                g.lookup_iri(prop)
                    .and_then(|p| g.object(id, p))
                    .and_then(|o| match g.term(o) {
                        Term::Literal(l) => l.as_integer(),
                        _ => None,
                    })
            };
            recipe.calories = int_of(food::CALORIES).unwrap_or(0).max(0) as u32;
            recipe.price_tier = int_of(food::PRICE_TIER).unwrap_or(1).clamp(1, 3) as u8;
            kg.add_recipe(recipe);
        }
    }

    // Diets.
    if let Some(diet_class) = g.lookup_iri(food::DIET) {
        for id in g.subjects(ty, diet_class) {
            let Some(name) = local(id) else { continue };
            // Skip the class-level FEO characteristic itself if typed.
            if name == "DietCharacteristic" {
                continue;
            }
            let mut forbids = Vec::new();
            if let Some(p) = g.lookup_iri(food::FORBIDS_CATEGORY) {
                forbids = g.objects(id, p).into_iter().filter_map(local).collect();
                forbids.sort();
            }
            kg.diets.push(Diet {
                id: name,
                forbids_categories: forbids,
            });
        }
        kg.diets.sort_by(|a, b| a.id.cmp(&b.id));
    }

    // Goals.
    if let Some(goal_class) = g.lookup_iri(feo::NUTRITIONAL_GOAL) {
        for id in g.subjects(ty, goal_class) {
            let Some(name) = local(id) else { continue };
            let nutrient = g
                .lookup_iri(feo::RECOMMENDS)
                .and_then(|p| g.object(id, p))
                .and_then(local)
                .unwrap_or_default();
            if !nutrient.is_empty() {
                kg.goals.push(Goal {
                    id: name,
                    wants_nutrient: nutrient,
                });
            }
        }
        kg.goals.sort_by(|a, b| a.id.cmp(&b.id));
    }

    // Regions.
    if let Some(region_class) = g.lookup_iri(food::REGION) {
        kg.regions = g
            .subjects(ty, region_class)
            .into_iter()
            .filter_map(local)
            .collect();
        kg.regions.sort();
        kg.regions.dedup();
    }

    kg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::curated;
    use crate::rdf::kg_to_rdf;

    fn round_trip() -> (FoodKg, FoodKg) {
        let original = curated();
        let mut g = Graph::new();
        kg_to_rdf(&original, &mut g);
        let loaded = kg_from_rdf(&g);
        (original, loaded)
    }

    #[test]
    fn recipes_round_trip() {
        let (orig, loaded) = round_trip();
        assert_eq!(orig.recipes.len(), loaded.recipes.len());
        for r in &orig.recipes {
            let l = loaded
                .recipe(&r.id)
                .unwrap_or_else(|| panic!("missing {}", r.id));
            let mut orig_ing = r.ingredients.clone();
            orig_ing.sort();
            assert_eq!(orig_ing, l.ingredients, "{}", r.id);
            assert_eq!(r.calories, l.calories);
            assert_eq!(r.price_tier, l.price_tier);
            assert_eq!(r.label, l.label);
        }
    }

    #[test]
    fn ingredients_round_trip() {
        let (orig, loaded) = round_trip();
        assert_eq!(orig.ingredients.len(), loaded.ingredients.len());
        for i in &orig.ingredients {
            let l = loaded
                .ingredient(&i.id)
                .unwrap_or_else(|| panic!("missing {}", i.id));
            let mut seasons = i.seasons.clone();
            seasons.sort();
            assert_eq!(seasons, l.seasons, "{}", i.id);
            let mut nutrients = i.nutrients.clone();
            nutrients.sort();
            assert_eq!(nutrients, l.nutrients, "{}", i.id);
        }
    }

    #[test]
    fn diets_and_goals_round_trip() {
        let (orig, loaded) = round_trip();
        assert_eq!(orig.diets.len(), loaded.diets.len());
        for d in &orig.diets {
            let l = loaded.diet(&d.id).unwrap();
            let mut forbids = d.forbids_categories.clone();
            forbids.sort();
            assert_eq!(forbids, l.forbids_categories);
        }
        assert_eq!(orig.goals.len(), loaded.goals.len());
        for goal in &orig.goals {
            assert_eq!(
                loaded.goal(&goal.id).unwrap().wants_nutrient,
                goal.wants_nutrient
            );
        }
    }

    #[test]
    fn loaded_kg_drives_the_pipeline() {
        // The re-loaded KG must work end to end (Turtle in between).
        let original = curated();
        let mut g = Graph::new();
        kg_to_rdf(&original, &mut g);
        let ttl = feo_rdf::turtle::write_turtle(&g, feo_ontology::ns::PREFIXES);
        let mut g2 = Graph::new();
        feo_rdf::turtle::parse_turtle_into(&ttl, &mut g2, &Default::default()).unwrap();
        let loaded = kg_from_rdf(&g2);
        assert!(loaded.recipe("ButternutSquashSoup").is_some());
        assert!(loaded.recipe_in_season(
            loaded.recipe("ButternutSquashSoup").unwrap(),
            Season::Autumn
        ));
    }

    #[test]
    fn empty_graph_loads_empty_kg() {
        let kg = kg_from_rdf(&Graph::new());
        assert!(kg.recipes.is_empty());
        assert!(kg.ingredients.is_empty());
    }
}
