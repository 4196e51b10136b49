//! User questions and their mapping to explanation types.
//!
//! Table I of the paper pairs each of nine explanation types with an
//! example food question; this module models those question shapes and
//! mints the question individuals (`feo:WhyEatCauliflowerPotatoCurry`,
//! `feo:WhyEatButternutSquashSoupOverBroccoliCheddarSoup`, …) that the
//! SPARQL competency queries bind on. It also reads their wire forms,
//! the one grammar `POST /explain` and the `feo` CLI share: a question
//! from its JSON object ([`Question::from_json`]) and a hypothesis from
//! its spec ([`Hypothesis::from_spec`]).

use std::fmt;

use feo_foodkg::FoodKg;

use crate::json::Json;

/// The nine explanation types of the paper's Table I. The first three are
/// the evaluated competency-question types (§V); the remaining six are
/// the future-work types implemented here as engine extensions (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExplanationType {
    Contextual,
    Contrastive,
    Counterfactual,
    CaseBased,
    Everyday,
    Scientific,
    SimulationBased,
    Statistical,
    TraceBased,
}

impl ExplanationType {
    pub const ALL: [ExplanationType; 9] = [
        ExplanationType::CaseBased,
        ExplanationType::Contextual,
        ExplanationType::Contrastive,
        ExplanationType::Counterfactual,
        ExplanationType::Everyday,
        ExplanationType::Scientific,
        ExplanationType::SimulationBased,
        ExplanationType::Statistical,
        ExplanationType::TraceBased,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ExplanationType::CaseBased => "Case-Based Explanations",
            ExplanationType::Contextual => "Contextual Explanations",
            ExplanationType::Contrastive => "Contrastive Explanations",
            ExplanationType::Counterfactual => "Counterfactual Explanations",
            ExplanationType::Everyday => "Everyday Explanations",
            ExplanationType::Scientific => "Scientific Explanations",
            ExplanationType::SimulationBased => "Simulation-based Explanations",
            ExplanationType::Statistical => "Statistical Explanations",
            ExplanationType::TraceBased => "Trace-based Explanations",
        }
    }

    /// The `eo:` class IRI for this explanation type.
    pub fn iri(self) -> &'static str {
        use feo_ontology::ns::eo;
        match self {
            ExplanationType::CaseBased => eo::CASE_BASED,
            ExplanationType::Contextual => eo::CONTEXTUAL,
            ExplanationType::Contrastive => eo::CONTRASTIVE,
            ExplanationType::Counterfactual => eo::COUNTERFACTUAL,
            ExplanationType::Everyday => eo::EVERYDAY,
            ExplanationType::Scientific => eo::SCIENTIFIC,
            ExplanationType::SimulationBased => eo::SIMULATION_BASED,
            ExplanationType::Statistical => eo::STATISTICAL,
            ExplanationType::TraceBased => eo::TRACE_BASED,
        }
    }
}

impl fmt::Display for ExplanationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A hypothetical change to the user or system profile, for
/// counterfactual questions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hypothesis {
    /// "What if I was pregnant?" — the paper's §V-C scenario.
    Pregnant,
    /// "What if I followed diet D?"
    FollowedDiet(String),
    /// "What if I were allergic to ingredient X?"
    AllergicTo(String),
}

impl Hypothesis {
    /// Reads a hypothesis spec: exactly `pregnant`, or `diet:<Diet>` /
    /// `allergic:<Ingredient>` with a non-empty name.
    pub fn from_spec(spec: &str) -> Result<Hypothesis, String> {
        let named = |prefix: &str| spec.strip_prefix(prefix).filter(|name| !name.is_empty());
        if spec == "pregnant" {
            Ok(Hypothesis::Pregnant)
        } else if let Some(diet) = named("diet:") {
            Ok(Hypothesis::FollowedDiet(diet.to_string()))
        } else if let Some(ingredient) = named("allergic:") {
            Ok(Hypothesis::AllergicTo(ingredient.to_string()))
        } else {
            Err(format!(
                "bad hypothesis {spec:?} (expected pregnant | diet:<Diet> | allergic:<Ingredient>)"
            ))
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Hypothesis::Pregnant => "you were pregnant".to_string(),
            Hypothesis::FollowedDiet(d) => format!("you followed the {d} diet"),
            Hypothesis::AllergicTo(i) => format!("you were allergic to {i}"),
        }
    }
}

/// A user question about a recommendation, one shape per Table I row.
#[derive(Debug, Clone, PartialEq)]
pub enum Question {
    /// "Why should I eat Food A?" → contextual.
    WhyEat { food: String },
    /// "Why should I eat Food A over Food B?" → contrastive.
    WhyEatOver {
        preferred: String,
        alternative: String,
    },
    /// "What if \<hypothesis\>?" → counterfactual.
    WhatIf { hypothesis: Hypothesis },
    /// "What results from other users recommend food A?" → case-based.
    WhatOtherUsers { food: String },
    /// "Why is food A a sensible choice, in everyday terms?" → everyday.
    WhyGenerally { food: String },
    /// "What literature recommends Food A?" → scientific.
    WhatLiterature { food: String },
    /// "What if I ate food A every day?" → simulation-based.
    WhatIfEatenDaily { food: String },
    /// "What evidence from data suggests I follow diet D?" → statistical.
    WhatEvidenceForDiet { diet: String },
    /// "What steps led to recommendation E?" → trace-based.
    WhatSteps { food: String },
}

impl Question {
    /// Reads the wire form of a question: an object whose `type` names
    /// it after the CLI verbs (`why-eat`, `why-over`, `steps`, …) and
    /// whose string members fill it.
    pub fn from_json(value: &Json) -> Result<Question, String> {
        let Some(kind) = value.get("type").and_then(Json::as_str) else {
            return Err("question missing a \"type\" string".to_string());
        };
        let field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("question type {kind:?} needs a {name:?} string"))
        };
        let food = || field("food");
        Ok(match kind {
            "why-eat" => Question::WhyEat { food: food()? },
            "why-over" => Question::WhyEatOver {
                preferred: field("preferred")?,
                alternative: field("alternative")?,
            },
            "what-if" => Question::WhatIf {
                hypothesis: Hypothesis::from_spec(&field("hypothesis")?)?,
            },
            "other-users" => Question::WhatOtherUsers { food: food()? },
            "why-generally" => Question::WhyGenerally { food: food()? },
            "literature" => Question::WhatLiterature { food: food()? },
            "eaten-daily" => Question::WhatIfEatenDaily { food: food()? },
            "diet-evidence" => Question::WhatEvidenceForDiet {
                diet: field("diet")?,
            },
            "steps" => Question::WhatSteps { food: food()? },
            other => {
                return Err(format!(
                    "unknown question type {other:?} (expected why-eat | why-over | what-if | \
                     other-users | why-generally | literature | eaten-daily | diet-evidence | steps)"
                ))
            }
        })
    }

    /// The explanation type that answers this question.
    pub fn explanation_type(&self) -> ExplanationType {
        match self {
            Question::WhyEat { .. } => ExplanationType::Contextual,
            Question::WhyEatOver { .. } => ExplanationType::Contrastive,
            Question::WhatIf { .. } => ExplanationType::Counterfactual,
            Question::WhatOtherUsers { .. } => ExplanationType::CaseBased,
            Question::WhyGenerally { .. } => ExplanationType::Everyday,
            Question::WhatLiterature { .. } => ExplanationType::Scientific,
            Question::WhatIfEatenDaily { .. } => ExplanationType::SimulationBased,
            Question::WhatEvidenceForDiet { .. } => ExplanationType::Statistical,
            Question::WhatSteps { .. } => ExplanationType::TraceBased,
        }
    }

    /// The question individual's IRI (e.g.
    /// `feo:WhyEatButternutSquashSoupOverBroccoliCheddarSoup`).
    pub fn iri(&self) -> String {
        let local = match self {
            Question::WhyEat { food } => format!("WhyEat{food}"),
            Question::WhyEatOver {
                preferred,
                alternative,
            } => format!("WhyEat{preferred}Over{alternative}"),
            Question::WhatIf { hypothesis } => match hypothesis {
                Hypothesis::Pregnant => "WhatIfIWasPregnant".to_string(),
                Hypothesis::FollowedDiet(d) => format!("WhatIfIFollowed{d}"),
                Hypothesis::AllergicTo(i) => format!("WhatIfIWereAllergicTo{i}"),
            },
            Question::WhatOtherUsers { food } => format!("WhatOtherUsersRecommend{food}"),
            Question::WhyGenerally { food } => format!("WhyGenerally{food}"),
            Question::WhatLiterature { food } => format!("WhatLiteratureRecommends{food}"),
            Question::WhatIfEatenDaily { food } => format!("WhatIfIAte{food}Everyday"),
            Question::WhatEvidenceForDiet { diet } => format!("WhatEvidenceFor{diet}"),
            Question::WhatSteps { food } => format!("WhatStepsLedTo{food}"),
        };
        FoodKg::iri(&local)
    }

    /// The question phrased in natural language (the Table I examples).
    pub fn text(&self) -> String {
        let spaced = |id: &str| -> String {
            let mut out = String::new();
            for (i, c) in id.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push(' ');
                }
                out.push(c);
            }
            out
        };
        match self {
            Question::WhyEat { food } => format!("Why should I eat {}?", spaced(food)),
            Question::WhyEatOver {
                preferred,
                alternative,
            } => format!(
                "Why should I eat {} over {}?",
                spaced(preferred),
                spaced(alternative)
            ),
            Question::WhatIf { hypothesis } => format!("What if {}?", hypothesis.describe()),
            Question::WhatOtherUsers { food } => {
                format!("What results from other users recommend {}?", spaced(food))
            }
            Question::WhyGenerally { food } => {
                format!("Why is {} generally a good choice?", spaced(food))
            }
            Question::WhatLiterature { food } => {
                format!("What literature recommends {}?", spaced(food))
            }
            Question::WhatIfEatenDaily { food } => {
                format!("What if I ate {} every day?", spaced(food))
            }
            Question::WhatEvidenceForDiet { diet } => format!(
                "What evidence from data suggests I follow the {} diet?",
                spaced(diet)
            ),
            Question::WhatSteps { food } => {
                format!("What steps led to the recommendation of {}?", spaced(food))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_has_a_question_shape() {
        let questions = [
            Question::WhyEat { food: "A".into() },
            Question::WhyEatOver {
                preferred: "A".into(),
                alternative: "B".into(),
            },
            Question::WhatIf {
                hypothesis: Hypothesis::Pregnant,
            },
            Question::WhatOtherUsers { food: "A".into() },
            Question::WhyGenerally { food: "A".into() },
            Question::WhatLiterature { food: "A".into() },
            Question::WhatIfEatenDaily { food: "A".into() },
            Question::WhatEvidenceForDiet { diet: "D".into() },
            Question::WhatSteps { food: "A".into() },
        ];
        let mut types: Vec<ExplanationType> =
            questions.iter().map(Question::explanation_type).collect();
        types.sort();
        types.dedup();
        assert_eq!(types.len(), 9, "all nine explanation types covered");
    }

    #[test]
    fn question_iris_match_paper_style() {
        let q = Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        };
        assert_eq!(
            q.iri(),
            "https://purl.org/heals/feo#WhyEatButternutSquashSoupOverBroccoliCheddarSoup"
        );
    }

    #[test]
    fn question_text_is_humanized() {
        let q = Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        };
        assert_eq!(q.text(), "Why should I eat Cauliflower Potato Curry?");
        let q = Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        };
        assert_eq!(q.text(), "What if you were pregnant?");
    }

    #[test]
    fn question_wire_forms_parse() {
        use ExplanationType as T;
        let cases = [
            (r#"{"type":"why-eat","food":"Chicken"}"#, T::Contextual),
            (
                r#"{"type":"why-over","preferred":"A","alternative":"B"}"#,
                T::Contrastive,
            ),
            (
                r#"{"type":"what-if","hypothesis":"pregnant"}"#,
                T::Counterfactual,
            ),
            (
                r#"{"type":"what-if","hypothesis":"diet:DashDiet"}"#,
                T::Counterfactual,
            ),
            (
                r#"{"type":"what-if","hypothesis":"allergic:Peanut"}"#,
                T::Counterfactual,
            ),
            (r#"{"type":"other-users","food":"A"}"#, T::CaseBased),
            (r#"{"type":"why-generally","food":"A"}"#, T::Everyday),
            (r#"{"type":"literature","food":"A"}"#, T::Scientific),
            (r#"{"type":"eaten-daily","food":"A"}"#, T::SimulationBased),
            (r#"{"type":"diet-evidence","diet":"D"}"#, T::Statistical),
            (r#"{"type":"steps","food":"A"}"#, T::TraceBased),
        ];
        for (doc, expected_type) in cases {
            let value = Json::parse(doc).expect("parses");
            let question = Question::from_json(&value).expect(doc);
            assert_eq!(question.explanation_type(), expected_type, "for {doc}");
        }
    }

    #[test]
    fn question_parse_errors_name_the_problem() {
        let missing = Json::parse(r#"{"type":"why-eat"}"#).expect("parses");
        let err = Question::from_json(&missing).expect_err("no food");
        assert!(err.contains("food"), "{err}");
        let unknown = Json::parse(r#"{"type":"why-not"}"#).expect("parses");
        let err = Question::from_json(&unknown).expect_err("unknown type");
        assert!(err.contains("why-not"), "{err}");
        for bad in ["diet:", "allergic:", "mystery", "PREGNANT", "Pregnant", ""] {
            let err = Hypothesis::from_spec(bad).expect_err(bad);
            assert!(err.starts_with("bad hypothesis"), "{err}");
        }
        assert_eq!(
            Hypothesis::from_spec("diet:DashDiet"),
            Ok(Hypothesis::FollowedDiet("DashDiet".into()))
        );
    }

    #[test]
    fn explanation_type_iris_are_eo() {
        for t in ExplanationType::ALL {
            assert!(t.iri().starts_with("https://purl.org/heals/eo#"));
        }
    }
}
