//! Seeded synthetic FoodKG generator — the scaling substitute for the
//! real FoodKG \[5\], which is built from public recipe dumps we cannot
//! ship.
//!
//! The generator preserves the statistical shape that reasoner and query
//! performance depend on: a long-tailed (Zipf-like) ingredient-reuse
//! distribution (a few pantry staples appear in most recipes), seasonal
//! and regional availability on a fraction of ingredients, and category /
//! nutrient tags drawn from the curated vocabulary.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::model::{Diet, FoodKg, Goal, Ingredient, Recipe, Season};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    pub recipes: usize,
    pub ingredients: usize,
    /// Ingredients per recipe (min, max).
    pub ingredients_per_recipe: (usize, usize),
    /// Zipf skew for ingredient popularity (1.0 ≈ natural long tail).
    pub zipf_exponent: f64,
    /// Fraction of ingredients with seasonal availability.
    pub seasonal_fraction: f64,
    /// Fraction of ingredients with regional availability.
    pub regional_fraction: f64,
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            recipes: 200,
            ingredients: 150,
            ingredients_per_recipe: (3, 8),
            zipf_exponent: 1.0,
            seasonal_fraction: 0.4,
            regional_fraction: 0.15,
            seed: 0xF00D,
        }
    }
}

const CATEGORIES: &[&str] = &[
    "Meat",
    "Dairy",
    "Fish",
    "Shellfish",
    "Gluten",
    "Nut",
    "Egg",
    "HighCarb",
    "RawFish",
];
const NUTRIENTS: &[&str] = &[
    "Protein",
    "Fiber",
    "Iron",
    "Calcium",
    "VitaminA",
    "VitaminC",
    "Folate",
    "Omega3",
    "Potassium",
];
const REGIONS: &[&str] = &["Florida", "NewYork", "California", "Washington", "Texas"];

/// Generates a synthetic KG.
pub fn synthetic(cfg: &SyntheticConfig) -> FoodKg {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut kg = FoodKg::new();

    // Zipf weights over ingredient ranks.
    let weights: Vec<f64> = (1..=cfg.ingredients)
        .map(|rank| 1.0 / (rank as f64).powf(cfg.zipf_exponent))
        .collect();
    let total: f64 = weights.iter().sum();

    for i in 0..cfg.ingredients {
        let mut ing = Ingredient::new(&format!("SynIngredient{i}"));
        if rng.gen_bool(cfg.seasonal_fraction) {
            let n = rng.gen_range(1..=2);
            let mut seasons = Season::ALL.to_vec();
            seasons.shuffle(&mut rng);
            ing.seasons = seasons.into_iter().take(n).collect();
            ing.seasons.sort();
        }
        if rng.gen_bool(cfg.regional_fraction) {
            ing.regions = vec![REGIONS[rng.gen_range(0..REGIONS.len())].to_string()];
        }
        if rng.gen_bool(0.35) {
            ing.categories = vec![CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string()];
        }
        let n_nutrients = rng.gen_range(0..=3);
        let mut nutrients = NUTRIENTS.to_vec();
        nutrients.shuffle(&mut rng);
        ing.nutrients = nutrients
            .into_iter()
            .take(n_nutrients)
            .map(str::to_string)
            .collect();
        kg.add_ingredient(ing);
    }

    // Sample an ingredient index by the Zipf weights.
    let sample_ingredient = |rng: &mut StdRng| -> usize {
        let mut x = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        cfg.ingredients - 1
    };

    for r in 0..cfg.recipes {
        let (lo, hi) = cfg.ingredients_per_recipe;
        let k = rng.gen_range(lo..=hi.max(lo));
        let mut ids: Vec<String> = Vec::with_capacity(k);
        while ids.len() < k {
            let idx = sample_ingredient(&mut rng);
            let id = format!("SynIngredient{idx}");
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut recipe = Recipe::new(&format!("SynRecipe{r}"), &format!("Synthetic Recipe {r}"));
        recipe.ingredients = ids;
        recipe.calories = rng.gen_range(150..800);
        recipe.price_tier = rng.gen_range(1..=3);
        kg.add_recipe(recipe);
    }

    kg.diets = vec![
        Diet::new("Vegan", &["Meat", "Dairy", "Egg", "Fish", "Shellfish"]),
        Diet::new("Vegetarian", &["Meat", "Fish", "Shellfish"]),
        Diet::new("GlutenFree", &["Gluten"]),
        Diet::new("NutFree", &["Nut"]),
    ];
    kg.goals = vec![
        Goal::new("HighProteinGoal", "Protein"),
        Goal::new("HighFiberGoal", "Fiber"),
        Goal::new("ImmunityGoal", "VitaminC"),
    ];
    kg.regions = REGIONS.iter().map(|s| s.to_string()).collect();
    kg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::default();
        let a = synthetic(&cfg);
        let b = synthetic(&cfg);
        assert_eq!(a.recipes, b.recipes);
        assert_eq!(a.ingredients, b.ingredients);
    }

    #[test]
    fn respects_sizes() {
        let cfg = SyntheticConfig {
            recipes: 50,
            ingredients: 40,
            ..Default::default()
        };
        let kg = synthetic(&cfg);
        assert_eq!(kg.recipes.len(), 50);
        assert_eq!(kg.ingredients.len(), 40);
        for r in &kg.recipes {
            assert!(r.ingredients.len() >= cfg.ingredients_per_recipe.0);
            assert!(r.ingredients.len() <= cfg.ingredients_per_recipe.1);
            for i in &r.ingredients {
                assert!(kg.ingredient(i).is_some());
            }
        }
    }

    #[test]
    fn ingredient_reuse_is_long_tailed() {
        let kg = synthetic(&SyntheticConfig::default());
        let mut counts = std::collections::HashMap::new();
        for r in &kg.recipes {
            for i in &r.ingredients {
                *counts.entry(i.clone()).or_insert(0usize) += 1;
            }
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // Head ingredient should appear far more often than the median.
        let head = freq[0];
        let median = freq[freq.len() / 2];
        assert!(
            head >= median * 3,
            "expected long tail, head={head} median={median}"
        );
    }

    #[test]
    fn seasonal_fraction_roughly_respected() {
        let kg = synthetic(&SyntheticConfig {
            ingredients: 300,
            ..Default::default()
        });
        let seasonal = kg
            .ingredients
            .iter()
            .filter(|i| !i.seasons.is_empty())
            .count();
        let frac = seasonal as f64 / kg.ingredients.len() as f64;
        assert!((0.25..0.55).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic(&SyntheticConfig::default());
        let b = synthetic(&SyntheticConfig {
            seed: 999,
            ..Default::default()
        });
        assert_ne!(
            a.recipes[0].ingredients, b.recipes[0].ingredients,
            "seeded runs should differ"
        );
    }
}
