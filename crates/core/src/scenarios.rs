//! The paper's three evaluation scenarios (§V-A, §V-B, §V-C), packaged
//! as ready-made (user, context, question) triples so tests and
//! examples all run the same setups.

use feo_foodkg::{curated, FoodKg, Season, SystemContext, UserProfile};

use crate::engine::{EngineBase, EngineError};
use crate::question::{Hypothesis, Question};

/// One packaged scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: &'static str,
    /// The paper's Health Coach setup line.
    pub setup: &'static str,
    pub user: UserProfile,
    pub context: SystemContext,
    pub question: Question,
    /// The paper's "Possible Answer" text.
    pub paper_answer: &'static str,
}

impl Scenario {
    /// Builds an engine for this scenario over the curated KG.
    pub fn engine(&self) -> Result<EngineBase, EngineError> {
        EngineBase::new(curated(), self.user.clone(), self.context.clone())
    }

    pub fn kg(&self) -> FoodKg {
        curated()
    }
}

/// §V-A — contextual: "Why should I eat Cauliflower Potato Curry?"
pub fn scenario_a() -> Scenario {
    Scenario {
        name: "CQ1 / contextual (§V-A)",
        setup: "The system recommends Cauliflower Potato Curry.",
        user: UserProfile::new("user").region("Florida"),
        context: SystemContext::new(Season::Autumn).region("Florida"),
        question: Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        },
        paper_answer: "Cauliflower Potato Curry uses the ingredient Cauliflower, \
                       which is available in the current season.",
    }
}

/// §V-B — contrastive: "Why Butternut Squash Soup over Broccoli Cheddar
/// Soup?"
pub fn scenario_b() -> Scenario {
    Scenario {
        name: "CQ2 / contrastive (§V-B)",
        setup: "Our user likes Broccoli Cheddar Soup. The system recommends \
                Butternut Squash Soup.",
        user: UserProfile::new("user")
            .likes(&["BroccoliCheddarSoup"])
            .allergies(&["Broccoli"]),
        context: SystemContext::new(Season::Autumn),
        question: Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        },
        paper_answer: "Butternut Squash Soup is better than a Broccoli Cheddar Soup \
                       because Butternut Squash Soup is currently in season, and you \
                       are allergic to Broccoli Cheddar Soup.",
    }
}

/// §V-C — counterfactual: "What if I was pregnant?"
pub fn scenario_c() -> Scenario {
    Scenario {
        name: "CQ3 / counterfactual (§V-C)",
        setup: "The system recommends sushi.",
        user: UserProfile::new("user").likes(&["Sushi"]),
        context: SystemContext::new(Season::Autumn),
        question: Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
        paper_answer: "If you were pregnant, you would be forbidden from eating sushi. \
                       You would be suggested to eat Spinach Frittata.",
    }
}

/// All three evaluation scenarios in paper order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![scenario_a(), scenario_b(), scenario_c()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_engines() {
        for s in all_scenarios() {
            let engine = s.engine().expect("engine builds");
            assert!(engine.inference().is_consistent());
        }
    }

    #[test]
    fn scenario_questions_match_types() {
        use crate::question::ExplanationType;
        assert_eq!(
            scenario_a().question.explanation_type(),
            ExplanationType::Contextual
        );
        assert_eq!(
            scenario_b().question.explanation_type(),
            ExplanationType::Contrastive
        );
        assert_eq!(
            scenario_c().question.explanation_type(),
            ExplanationType::Counterfactual
        );
    }
}
