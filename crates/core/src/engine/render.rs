//! The nine answer renderers. Each checks its question's entities,
//! reads its evidence — a competency template over the session view,
//! the recommender trace or the KG — and returns the parts of the
//! answer; [`Session::explain`] builds the [`crate::Explanation`].

use feo_foodkg::{FoodKg, Ingredient, Season};
use feo_ontology::ns::feo;
use feo_rdf::{Overlay, Term};
use feo_recommender::TraceStep;
use feo_sparql::SolutionTable;
use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::Hash;

use super::{EngineError, Session};
use crate::ecosystem::{apply_hypothesis, assert_question};
use crate::explanation::humanize;
use crate::question::{Hypothesis, Question};

/// What a renderer hands the dispatch: the bindings, one statement per
/// piece of evidence, and the answer.
pub(super) type Parts = (SolutionTable, Vec<String>, String);

impl Session<'_> {
    // ---- CQ1: contextual ---------------------------------------------

    pub(super) fn contextual(
        &mut self,
        question: &Question,
        food: &str,
    ) -> Result<Parts, EngineError> {
        self.require_recipe(food)?;
        self.assert_and_close(question)?;
        let iri = question.iri();
        let table = self.run_template(&self.overlay, &self.base.templates.contextual, &[&iri])?;

        let statements: Vec<String> = (0..table.len())
            .map(|r| {
                contextual_sentence(&self.base.kg, food, &table.local(r, 0), &table.local(r, 1))
            })
            .collect();
        let answer = if statements.is_empty() {
            format!("No external context currently supports {}.", humanize(food))
        } else {
            statements.join(" ")
        };
        Ok((table, statements, answer))
    }

    // ---- CQ2: contrastive ----------------------------------------------

    pub(super) fn contrastive(
        &mut self,
        question: &Question,
        preferred: &str,
        alternative: &str,
    ) -> Result<Parts, EngineError> {
        self.require_recipe(preferred)?;
        self.require_recipe(alternative)?;
        self.assert_and_close(question)?;
        let iri = question.iri();
        let table = self.run_template(&self.overlay, &self.base.templates.contrastive, &[&iri])?;

        // Parameter-typed rows are the question parameters themselves
        // (self-characteristics from preference seeds); their polarity
        // already surfaces through the Liked/Disliked rows. A clause may
        // not name its fact, so clauses are deduplicated again.
        let pairs = |col: usize| {
            distinct(
                (0..table.len())
                    .map(|r| (table.local(r, col), table.local(r, col + 1)))
                    .filter(|(kind, _)| kind != "Parameter"),
            )
        };
        let fact_parts =
            distinct((pairs(0).iter()).map(|(kind, fact)| fact_clause(preferred, fact, kind)));
        let foil_parts =
            distinct((pairs(2).iter()).map(|(kind, foil)| foil_clause(alternative, foil, kind)));
        let mut statements = fact_parts;
        statements.extend(foil_parts);
        let answer = if statements.is_empty() {
            format!(
                "No decisive facts or foils distinguish {} from {}.",
                humanize(preferred),
                humanize(alternative)
            )
        } else {
            format!(
                "{} is better than {} because {}.",
                humanize(preferred),
                humanize(alternative),
                statements.join(", and ")
            )
        };
        Ok((table, statements, answer))
    }

    // ---- CQ3: counterfactual ---------------------------------------------

    pub(super) fn counterfactual(
        &mut self,
        question: &Question,
        hypothesis: &Hypothesis,
    ) -> Result<Parts, EngineError> {
        // Counterfactuals reason over a hypothetical world: a throwaway
        // overlay on this session's epoch view (the view is a stack of
        // references — no triples are copied). The hypothesis is pure
        // ABox, so precompiled rules close it incrementally: only those
        // that can derive a triple CQ3 reads, since nothing else reads
        // this world and its consistency verdict is dropped with it. The
        // world is discarded when this call returns, a partial closure
        // with it. For a *persistent* what-if world, closed under every
        // rule, use [`crate::EngineBase::branch_create`] +
        // [`crate::EngineBase::branch_apply`] instead.
        let base = self.base;
        let mut world = Overlay::new(self.overlay.base().clone());
        apply_hypothesis(hypothesis, &base.user, &mut world);
        assert_question(question, &mut world);
        base.close(&mut world, &base.what_if_rules, self.guard)?;

        let subject_iri = match hypothesis {
            Hypothesis::Pregnant => feo::PREGNANCY_STATE.to_string(),
            Hypothesis::FollowedDiet(d) => FoodKg::iri(d),
            Hypothesis::AllergicTo(i) => FoodKg::iri(i),
        };
        let table =
            self.run_template(&world, &self.base.templates.counterfactual, &[&subject_iri])?;

        let t = &table;
        let rows = |property| (0..t.len()).filter(move |&r| t.local(r, 0) == property);
        let forbidden = humanized(rows("forbids").map(|r| t.local(r, 1)));
        let suggested = humanized(rows("recommends").map(|r| match t.local(r, 2) {
            inherited if inherited.is_empty() => t.local(r, 1),
            inherited => inherited,
        }));

        let mut statements = Vec::new();
        if !forbidden.is_empty() {
            statements.push(format!(
                "If {}, you would be forbidden from eating {}.",
                hypothesis.describe(),
                forbidden.join(", ")
            ));
        }
        if !suggested.is_empty() {
            statements.push(format!(
                "You would be suggested to eat {}.",
                suggested.join(", ")
            ));
        }
        let answer = if statements.is_empty() {
            format!(
                "If {}, your recommendations would not change.",
                hypothesis.describe()
            )
        } else {
            statements.join(" ")
        };
        Ok((table, statements, answer))
    }

    // ---- trace-based -------------------------------------------------------

    pub(super) fn trace_based(&self, food: &str) -> Result<Parts, EngineError> {
        let set =
            (self.base.recommendations.as_ref()).ok_or(EngineError::MissingRecommendations)?;
        let mut statements: Vec<String> = Vec::new();
        if let Some(rec) = set.get(food) {
            statements.push(format!(
                "{} was ranked with score {:.2}.",
                humanize(food),
                rec.score
            ));
            statements.extend(rec.trace.iter().map(TraceStep::to_string));
        } else if let Some(step) = set.elimination(food) {
            statements.push(step.to_string());
        } else {
            return Err(EngineError::UnknownEntity(food.to_string()));
        }
        let answer = format!(
            "Steps that led to the recommendation of {}: {}",
            humanize(food),
            statements.join("; ")
        );
        Ok((SolutionTable::default(), statements, answer))
    }

    // ---- case-based ---------------------------------------------------------

    pub(super) fn case_based(&self, food: &str) -> Result<Parts, EngineError> {
        if self.base.population.is_none() {
            return Err(EngineError::MissingPopulation);
        }
        self.require_recipe(food)?;
        let table = self.run_template(
            &self.overlay,
            &self.base.templates.case_based,
            &[&FoodKg::iri(&self.base.user.id), &FoodKg::iri(food)],
        )?;
        let supporters = integer_cell(&table, 0);
        let answer = format!(
            "{supporters} users who share your diet or goals also like {}.",
            humanize(food)
        );
        Ok((table, vec![answer.clone()], answer))
    }

    // ---- everyday & scientific -------------------------------------------

    pub(super) fn knowledge_based(
        &self,
        food: &str,
        record_class: &str,
    ) -> Result<Parts, EngineError> {
        self.require_recipe(food)?;
        let table = self.run_template(
            &self.overlay,
            &self.base.templates.knowledge_record,
            &[&FoodKg::iri(food), record_class],
        )?;
        let statements = distinct((0..table.len()).map(|r| {
            let (about, text, source) = (table.local(r, 1), table.local(r, 2), table.local(r, 3));
            if source.is_empty() {
                format!("{} ({}).", text.trim_end_matches('.'), humanize(&about))
            } else {
                format!("{} [{}]", text, source)
            }
        }));
        let answer = if statements.is_empty() {
            format!("No recorded evidence mentions {}.", humanize(food))
        } else {
            statements.join(" ")
        };
        Ok((table, statements, answer))
    }

    // ---- simulation-based ---------------------------------------------------

    pub(super) fn simulation(&self, food: &str) -> Result<Parts, EngineError> {
        let kg = &self.base.kg;
        let recipe = kg
            .recipe(food)
            .ok_or_else(|| EngineError::UnknownEntity(food.to_string()))?;
        let weekly = recipe.calories as i64 * 7;
        let nutrients = kg.recipe_nutrients(recipe);
        let categories = kg.recipe_categories(recipe);
        let mut statements = vec![format!(
            "Eating {} every day adds about {} kcal per week ({} kcal per serving).",
            humanize(food),
            weekly,
            recipe.calories
        )];
        if !nutrients.is_empty() {
            statements.push(format!(
                "You would consistently get {}.",
                nutrients
                    .iter()
                    .map(|n| humanize(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let missing: Vec<&str> = ["Protein", "Fiber", "VitaminC"]
            .into_iter()
            .filter(|n| !nutrients.iter().any(|have| have == n))
            .collect();
        if !missing.is_empty() {
            statements.push(format!(
                "A single-dish diet would lack {} — add variety.",
                missing.join(", ")
            ));
        }
        if categories.iter().any(|c| c == "HighCarb") && recipe.calories > 400 {
            statements.push(
                "Daily intake of a calorie-dense, high-carb dish risks exceeding energy needs."
                    .to_string(),
            );
        }
        let answer = statements.join(" ");
        Ok((SolutionTable::default(), statements, answer))
    }

    // ---- statistical ----------------------------------------------------------

    pub(super) fn statistical(&self, diet: &str) -> Result<Parts, EngineError> {
        if self.base.population.is_none() {
            return Err(EngineError::MissingPopulation);
        }
        if self.base.kg.diet(diet).is_none() {
            return Err(EngineError::UnknownEntity(diet.to_string()));
        }
        let table = self.run_template(
            &self.overlay,
            &self.base.templates.statistical,
            &[&FoodKg::iri(diet)],
        )?;
        let (total, succeeded) = (integer_cell(&table, 0), integer_cell(&table, 1));
        let answer = format!(
            "Of {total} users following the {} diet, {succeeded} achieved a nutritional goal.",
            humanize(diet)
        );
        Ok((table, vec![answer.clone()], answer))
    }
}

/// The integer in column `col` of the first row, 0 when the table is
/// empty or the cell is unbound or not an integer.
fn integer_cell(table: &SolutionTable, col: usize) -> i64 {
    (table.rows.first())
        .and_then(|row| row.get(col))
        .and_then(|cell| cell.as_ref())
        .and_then(Term::as_literal)
        .and_then(|l| l.as_integer())
        .unwrap_or(0)
}

/// Renders one contextual statement, tracing the characteristic back
/// through the recipe's ingredients the way the paper's example
/// answer does ("uses the ingredient Cauliflower, which is available
/// in the current season").
fn contextual_sentence(kg: &FoodKg, food: &str, characteristic: &str, class: &str) -> String {
    let food_h = humanize(food);
    // The first of the recipe's ingredients that carries the
    // characteristic.
    let carrier = |carries: &dyn Fn(&Ingredient) -> bool| {
        let recipe = kg.recipe(food)?;
        (recipe.ingredients.iter()).find(|i| kg.ingredient(i).is_some_and(carries))
    };
    let (place, carrier) = match class {
        "SeasonCharacteristic" => {
            let season = Season::ALL.iter().find(|s| s.name() == characteristic);
            let in_season = |ing: &Ingredient| season.is_some_and(|s| ing.seasons.contains(s));
            ("in the current season", carrier(&in_season))
        }
        "LocationCharacteristic" => {
            let in_region = |ing: &Ingredient| ing.regions.iter().any(|r| r == characteristic);
            ("in your region", carrier(&in_region))
        }
        "BudgetCharacteristic" => {
            return format!("{food_h} fits your budget ({}).", humanize(characteristic))
        }
        "TimeCharacteristic" => {
            return format!(
                "{food_h} suits the current time ({}).",
                humanize(characteristic)
            )
        }
        other => {
            return format!(
                "{food_h} matches your context through {} ({other}).",
                humanize(characteristic)
            )
        }
    };
    match carrier {
        Some(ing) => format!(
            "{food_h} uses the ingredient {}, which is available {place} ({characteristic}).",
            humanize(ing)
        ),
        None => format!("{food_h} is available {place} ({characteristic})."),
    }
}

fn fact_clause(preferred: &str, fact: &str, fact_type: &str) -> String {
    match fact_type {
        "SeasonCharacteristic" => {
            format!("{} is currently in season ({fact})", humanize(preferred))
        }
        "LocationCharacteristic" => format!(
            "{} is available in your region ({fact})",
            humanize(preferred)
        ),
        "LikedFoodCharacteristic" => format!("you like {}", humanize(fact)),
        "NutritionalGoalCharacteristic" => format!(
            "{} advances your goal ({})",
            humanize(preferred),
            humanize(fact)
        ),
        "BudgetCharacteristic" => {
            format!("{} fits your budget", humanize(preferred))
        }
        _ => format!(
            "{} is supported by {} ({})",
            humanize(preferred),
            humanize(fact),
            humanize(fact_type)
        ),
    }
}

fn foil_clause(alternative: &str, foil: &str, foil_type: &str) -> String {
    match foil_type {
        "AllergicFoodCharacteristic" => format!(
            "you are allergic to {} in {}",
            humanize(foil),
            humanize(alternative)
        ),
        "DislikedFoodCharacteristic" => format!("you dislike {}", humanize(foil)),
        "SeasonCharacteristic" => format!(
            "{} depends on {}, which is out of season",
            humanize(alternative),
            humanize(foil)
        ),
        "DietCharacteristic" | "Diet" => format!(
            "{} conflicts with your {} diet",
            humanize(alternative),
            humanize(foil)
        ),
        "BudgetCharacteristic" => {
            format!("{} exceeds your budget", humanize(alternative))
        }
        _ => format!(
            "{} is opposed by {} ({})",
            humanize(alternative),
            humanize(foil),
            humanize(foil_type)
        ),
    }
}

/// Each distinct name of `names` humanized once, in first-seen order:
/// `humanize` is injective, so this lists what deduplicating its output
/// would.
fn humanized<'t>(names: impl Iterator<Item = Cow<'t, str>>) -> Vec<String> {
    distinct(names).iter().map(|n| humanize(n)).collect()
}

/// `items` without repeats, in first-seen order.
fn distinct<T: Clone + Eq + Hash>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = HashSet::new();
    items
        .into_iter()
        .filter(|i| seen.insert(i.clone()))
        .collect()
}
