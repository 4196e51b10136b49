//! The paper's queries checked by something other than the engine.
//!
//! Each SPARQL-backed explanation runs one of six prepared templates.
//! Here the same template in text form (its parameters bound by a
//! leading `BIND`) is run by the naive evaluator of `oracle/` over the
//! view the explanation queried: the session overlay, or for a what-if
//! the hypothetical world closed over it. The oracle's multiset must
//! equal the explanation's bindings on the curated KG (with a population
//! and recommendations, every SPARQL-backed question) and on the
//! benchmark's 400-recipe world (with a population, every template) at
//! the head and after 16 commits. The oracle alone also reproduces the
//! rows of CQ1–CQ3 in the paper's Table I.

mod oracle;

use feo::core::ecosystem::{apply_hypothesis, assert_question};
use feo::core::knowledge::{EVERYDAY_RECORD, SCIENTIFIC_RECORD};
use feo::core::queries::{
    case_based_query, contextual_query, contrastive_query, counterfactual_query,
    knowledge_record_query, statistical_query,
};
use feo::core::{
    scenario_a, scenario_b, scenario_c, EngineBase, EpochId, ExplainOptions, Hypothesis,
    Population, Question,
};
use feo::foodkg::{
    curated, synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile,
};
use feo::ontology::ns::feo as feo_ns;
use feo::owl::{MaterializeOptions, Reasoner};
use feo::rdf::{GraphView, Overlay, Term};
use feo::recommender::{HealthCoach, Recommender};
use feo::sparql::parse_query;

/// The question's template as text, bound to the question's parameters.
fn text_form(base: &EngineBase, question: &Question) -> String {
    match question {
        Question::WhyEat { .. } => contextual_query(question),
        Question::WhyEatOver { .. } => contrastive_query(question),
        Question::WhatIf { hypothesis } => counterfactual_query(&match hypothesis {
            Hypothesis::Pregnant => feo_ns::PREGNANCY_STATE.to_string(),
            Hypothesis::FollowedDiet(d) => FoodKg::iri(d),
            Hypothesis::AllergicTo(i) => FoodKg::iri(i),
        }),
        Question::WhatOtherUsers { food } => {
            case_based_query(&FoodKg::iri(&base.user().id), &FoodKg::iri(food))
        }
        Question::WhyGenerally { food } => {
            knowledge_record_query(&FoodKg::iri(food), EVERYDAY_RECORD)
        }
        Question::WhatLiterature { food } => {
            knowledge_record_query(&FoodKg::iri(food), SCIENTIFIC_RECORD)
        }
        Question::WhatEvidenceForDiet { diet } => statistical_query(&FoodKg::iri(diet)),
        other => panic!("{other:?} runs no SPARQL"),
    }
}

/// Explains `question` on `base`, runs its text form through the oracle
/// over the view the engine queried, and requires the same multiset.
/// Returns the oracle's solutions.
fn check(base: &EngineBase, question: &Question) -> Vec<oracle::Solution> {
    let mut session = base.session();
    let explanation = session
        .explain(question, &ExplainOptions::default())
        .unwrap_or_else(|e| panic!("{question:?}: {e}"));
    let (overlay, _) = session.into_parts();
    let text = text_form(base, question);
    let parsed = parse_query(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    let reference = match question {
        Question::WhatIf { hypothesis } => {
            let mut world = Overlay::new(overlay.base().clone());
            apply_hypothesis(hypothesis, base.user(), &mut world);
            assert_question(question, &mut world);
            Reasoner::new()
                .materialize_delta(&mut world, &MaterializeOptions::with_rules(base.rules()))
                .expect("unguarded closure cannot trip");
            oracle::evaluate(world.iter_triples(), &parsed)
        }
        _ => oracle::evaluate(overlay.iter_triples(), &parsed),
    };
    let bindings = &explanation.bindings;
    assert_eq!(
        oracle::multiset(&bindings.vars, &bindings.rows),
        reference,
        "{question:?}\n{text}"
    );
    reference
}

#[test]
fn curated_templates_match_the_oracle() {
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let kg = curated();
    let recommendations = HealthCoach::new(&kg).recommend(&user, &ctx, 10);
    let base = EngineBase::new(kg.clone(), user, ctx)
        .expect("curated is consistent")
        .with_population(Population::generate(&kg, 150, 42))
        .with_recommendations(recommendations);

    let recipes: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
    let mut questions = vec![
        Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
        Question::WhatIf {
            hypothesis: Hypothesis::AllergicTo("Spinach".into()),
        },
    ];
    for food in &recipes {
        questions.extend([
            Question::WhyEat { food: food.clone() },
            Question::WhatOtherUsers { food: food.clone() },
            Question::WhyGenerally { food: food.clone() },
            Question::WhatLiterature { food: food.clone() },
        ]);
    }
    for pair in recipes.windows(2) {
        questions.push(Question::WhyEatOver {
            preferred: pair[0].clone(),
            alternative: pair[1].clone(),
        });
    }
    for diet in &kg.diets {
        questions.push(Question::WhatIf {
            hypothesis: Hypothesis::FollowedDiet(diet.id.clone()),
        });
        questions.push(Question::WhatEvidenceForDiet {
            diet: diet.id.clone(),
        });
    }
    let rows: usize = questions.iter().map(|q| check(&base, q).len()).sum();
    assert!(
        rows > questions.len(),
        "the questions must find rows: {rows}"
    );
}

#[test]
fn world_templates_match_the_oracle_at_the_head_and_after_commits() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 400,
        ingredients: 225,
        seed: 0xF00D,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let mut base = EngineBase::new(kg.clone(), user, SystemContext::new(Season::Autumn))
        .expect("synthetic world is consistent")
        .with_population(Population::generate(&kg, 60, 7));
    let recipes = &kg.recipes[1..];
    let mut questions: Vec<Question> = (recipes[..2].iter())
        .map(|r| Question::WhyEat { food: r.id.clone() })
        .collect();
    questions.extend(recipes[2..6].chunks(2).map(|pair| Question::WhyEatOver {
        preferred: pair[0].id.clone(),
        alternative: pair[1].id.clone(),
    }));
    questions.extend(
        [
            Hypothesis::Pregnant,
            Hypothesis::FollowedDiet(kg.diets[0].id.clone()),
            Hypothesis::AllergicTo(kg.ingredients[1].id.clone()),
        ]
        .map(|hypothesis| Question::WhatIf { hypothesis }),
    );
    let food = recipes[6].id.clone();
    questions.extend([
        Question::WhatOtherUsers { food: food.clone() },
        Question::WhyGenerally { food: food.clone() },
        Question::WhatLiterature { food },
        Question::WhatEvidenceForDiet {
            diet: kg.diets[0].id.clone(),
        },
    ]);
    for question in &questions {
        check(&base, question);
    }
    let start = base.head();
    for n in 0..16u64 {
        // What the benchmark's `commit_mixed` commits: a fresh hypothesis
        // about a fresh user.
        let user = UserProfile::new(&format!("TestUser{n}"));
        let hypothesis = if n.is_multiple_of(2) {
            Hypothesis::FollowedDiet(format!("TestDiet{n}"))
        } else {
            Hypothesis::AllergicTo(format!("TestIngredient{n}"))
        };
        base.commit_with("test", |overlay| {
            apply_hypothesis(&hypothesis, &user, overlay);
        });
    }
    assert_eq!(base.head(), EpochId(start.0 + 16));
    for question in &questions {
        check(&base, question);
    }
}

/// A solution as `(variable, local name or literal text)` pairs.
fn local(solution: &oracle::Solution) -> Vec<(String, String)> {
    solution
        .iter()
        .map(|(v, t)| {
            let text = match t {
                Term::Iri(iri) => iri.local_name().to_string(),
                Term::Literal(l) => l.lexical_form().to_string(),
                Term::BlankNode(b) => b.as_str().to_string(),
            };
            (v.clone(), text)
        })
        .collect()
}

fn table(rows: &[&[(&str, &str)]]) -> Vec<Vec<(String, String)>> {
    let mut out: Vec<Vec<(String, String)>> = rows
        .iter()
        .map(|row| {
            let mut row: Vec<(String, String)> = (row.iter())
                .map(|(v, t)| (v.to_string(), t.to_string()))
                .collect();
            row.sort();
            row
        })
        .collect();
    out.sort();
    out
}

/// Table I from the oracle's side: the paper's scenarios, run by the
/// naive evaluator, give the paper's rows.
#[test]
fn table_one_rows_come_out_of_the_oracle() {
    let rows = |scenario: feo::core::Scenario| {
        let base = EngineBase::new(
            scenario.kg(),
            scenario.user.clone(),
            scenario.context.clone(),
        )
        .expect("scenario is consistent");
        let mut rows: Vec<_> = check(&base, &scenario.question).iter().map(local).collect();
        rows.sort();
        rows
    };
    assert_eq!(
        rows(scenario_a()),
        table(&[&[
            ("characteristic", "Autumn"),
            ("classes", "SeasonCharacteristic")
        ]]),
        "CQ1"
    );
    assert_eq!(
        rows(scenario_b()),
        table(&[&[
            ("factType", "SeasonCharacteristic"),
            ("factA", "Autumn"),
            ("foilType", "AllergicFoodCharacteristic"),
            ("foilB", "Broccoli"),
        ]]),
        "CQ2"
    );
    // The paper's two rows, and the one the curated KG's second spinach
    // dish adds (EXPERIMENTS.md, Table I).
    assert_eq!(
        rows(scenario_c()),
        table(&[
            &[
                ("property", "recommends"),
                ("baseFood", "Spinach"),
                ("inheritedFood", "SpinachFrittata"),
            ],
            &[
                ("property", "recommends"),
                ("baseFood", "Spinach"),
                ("inheritedFood", "StrawberrySpinachSalad"),
            ],
            &[("property", "forbids"), ("baseFood", "Sushi")],
        ]),
        "CQ3"
    );
}
