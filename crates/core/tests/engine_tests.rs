//! Engine-level tests: every explanation type of Table I produces an
//! informative, correctly-typed explanation; error paths are exercised.

use feo_core::ecosystem::assert_question;
use feo_core::{
    EngineBase, EngineError, ExplainOptions, ExplanationType, Hypothesis, Population, Question,
};
use feo_foodkg::{curated, Season, SystemContext, UserProfile};
use feo_recommender::{HealthCoach, Recommender};

fn base_full() -> EngineBase {
    let kg = curated();
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let coach_kg = curated();
    let coach = HealthCoach::new(&coach_kg);
    let recs = coach.recommend(&user, &ctx, 10);
    let population = Population::generate(&kg, 150, 42);
    EngineBase::new(kg, user, ctx)
        .unwrap()
        .with_population(population)
        .with_recommendations(recs)
}

#[test]
fn all_nine_types_produce_informative_explanations() {
    let base = base_full();
    let questions = vec![
        Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        },
        Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        },
        Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
        Question::WhatOtherUsers {
            food: "LentilSoup".into(),
        },
        Question::WhyGenerally {
            food: "CauliflowerPotatoCurry".into(),
        },
        Question::WhatLiterature {
            food: "SpinachFrittata".into(),
        },
        Question::WhatIfEatenDaily {
            food: "MargheritaPizza".into(),
        },
        Question::WhatEvidenceForDiet {
            diet: "Vegetarian".into(),
        },
        Question::WhatSteps {
            food: "ButternutSquashSoup".into(),
        },
    ];
    let mut seen = Vec::new();
    for q in questions {
        let e = base
            .explain(&q, &ExplainOptions::default())
            .unwrap_or_else(|err| panic!("{q:?}: {err}"));
        assert_eq!(e.explanation_type, q.explanation_type());
        assert!(e.is_informative(), "{q:?} produced empty explanation");
        assert!(!e.answer.is_empty());
        seen.push(e.explanation_type);
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 9, "all nine Table I types exercised");
}

#[test]
fn trace_based_reflects_recommender_steps() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhatSteps {
                food: "ButternutSquashSoup".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(e.answer.contains("score"));
    assert!(
        e.statements.iter().any(|s| s.contains("in season")),
        "seasonal boost should appear in the trace: {:?}",
        e.statements
    );
}

#[test]
fn trace_based_explains_eliminations_too() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhatSteps {
                food: "BroccoliCheddarSoup".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(
        e.answer.contains("allergen Broccoli"),
        "elimination reason should surface: {}",
        e.answer
    );
}

#[test]
fn scientific_explanations_cite_sources() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhatLiterature {
                food: "SpinachFrittata".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(
        e.statements
            .iter()
            .any(|s| s.contains('[') && s.contains("NEJM")
                || s.contains("J Nutr")
                || s.contains("Nutrients")),
        "expected a citation: {:?}",
        e.statements
    );
}

#[test]
fn everyday_explanations_have_no_citations() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhyGenerally {
                food: "CauliflowerPotatoCurry".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(e.is_informative());
    assert!(
        e.statements.iter().all(|s| !s.contains("NEJM")),
        "everyday records should not carry study citations"
    );
}

#[test]
fn simulation_projects_weekly_calories() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhatIfEatenDaily {
                food: "MargheritaPizza".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    // 650 kcal * 7 = 4550.
    assert!(e.answer.contains("4550"), "{}", e.answer);
}

#[test]
fn statistical_reports_population_counts() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhatEvidenceForDiet {
                diet: "Vegetarian".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(
        e.answer.contains("users following the Vegetarian diet"),
        "{}",
        e.answer
    );
    // Total count must be positive for a 150-user population.
    let total: i64 = e
        .bindings
        .get(0, "total")
        .and_then(|t| t.as_literal())
        .and_then(|l| l.as_integer())
        .unwrap_or(0);
    assert!(total > 0);
    let succeeded: i64 = e
        .bindings
        .get(0, "succeeded")
        .and_then(|t| t.as_literal())
        .and_then(|l| l.as_integer())
        .unwrap_or(0);
    assert!(succeeded <= total);
}

#[test]
fn case_based_counts_similar_users() {
    let base = base_full();
    let e = base
        .explain(
            &Question::WhatOtherUsers {
                food: "LentilSoup".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(
        e.answer.contains("share your diet or goals"),
        "{}",
        e.answer
    );
}

#[test]
fn counterfactual_diet_hypothesis() {
    let kg = curated();
    let user = UserProfile::new("u");
    let ctx = SystemContext::new(Season::Autumn);
    let base = EngineBase::new(kg, user, ctx).unwrap();
    let e = base
        .explain(
            &Question::WhatIf {
                hypothesis: Hypothesis::FollowedDiet("Vegan".into()),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    // Vegan forbids dairy/meat dishes: some forbidden foods must appear.
    assert!(e.answer.contains("forbidden from eating"), "{}", e.answer);
    assert!(
        e.answer.contains("Broccoli Cheddar Soup") || e.answer.contains("Beef Stew"),
        "{}",
        e.answer
    );
}

#[test]
fn counterfactual_allergy_hypothesis() {
    let kg = curated();
    let base = EngineBase::new(
        kg,
        UserProfile::new("u"),
        SystemContext::new(Season::Autumn),
    )
    .unwrap();
    let e = base
        .explain(
            &Question::WhatIf {
                hypothesis: Hypothesis::AllergicTo("Peanuts".into()),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert_eq!(e.explanation_type, ExplanationType::Counterfactual);
    // The forbids chain reaches the peanut dish.
    assert!(e.answer.contains("Peanut Noodles"), "{}", e.answer);
}

#[test]
fn missing_population_is_reported() {
    let kg = curated();
    let base = EngineBase::new(
        kg,
        UserProfile::new("u"),
        SystemContext::new(Season::Autumn),
    )
    .unwrap();
    let err = base
        .explain(
            &Question::WhatOtherUsers {
                food: "Sushi".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap_err();
    assert_eq!(err, EngineError::MissingPopulation);
    let err = base
        .explain(
            &Question::WhatEvidenceForDiet {
                diet: "Vegan".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap_err();
    assert_eq!(err, EngineError::MissingPopulation);
}

#[test]
fn missing_recommendations_is_reported() {
    let kg = curated();
    let base = EngineBase::new(
        kg,
        UserProfile::new("u"),
        SystemContext::new(Season::Autumn),
    )
    .unwrap();
    let err = base
        .explain(
            &Question::WhatSteps {
                food: "Sushi".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap_err();
    assert_eq!(err, EngineError::MissingRecommendations);
}

#[test]
fn unknown_entities_are_reported() {
    let base = base_full();
    let err = base
        .explain(
            &Question::WhyEat {
                food: "MysteryMeatloaf".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::UnknownEntity(e) if e == "MysteryMeatloaf"));
}

#[test]
fn repeated_questions_are_stable() {
    let base = base_full();
    let q = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };
    let a = base.explain(&q, &ExplainOptions::default()).unwrap();
    let b = base.explain(&q, &ExplainOptions::default()).unwrap();
    assert_eq!(a.answer, b.answer);
    assert_eq!(a.bindings.rows, b.bindings.rows);
}

#[test]
fn different_context_changes_contextual_answer() {
    let kg = curated();
    let user = UserProfile::new("u");
    let autumn_engine =
        EngineBase::new(kg.clone(), user.clone(), SystemContext::new(Season::Autumn)).unwrap();
    let summer_engine = EngineBase::new(kg, user, SystemContext::new(Season::Summer)).unwrap();
    let q = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };
    let autumn = autumn_engine
        .explain(&q, &ExplainOptions::default())
        .unwrap();
    let summer = summer_engine
        .explain(&q, &ExplainOptions::default())
        .unwrap();
    assert!(autumn.answer.contains("current season"));
    assert!(
        summer.answer.contains("No external context"),
        "curry has no summer support: {}",
        summer.answer
    );
}

#[test]
fn proof_mode_renders_classification_proofs() {
    let kg = curated();
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup"])
        .allergies(&["Broccoli"]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = EngineBase::new_with_proofs(kg, user, ctx).expect("consistent");
    let question = Question::WhyEatOver {
        preferred: "ButternutSquashSoup".into(),
        alternative: "BroccoliCheddarSoup".into(),
    };
    // The proof reads the head closure, so the question and what the
    // reasoner derives from it are committed first.
    base.commit_with("question", |overlay| {
        assert_question(&question, overlay);
    });
    // Why is Broccoli a Foil? The proof tree bottoms out at assertions.
    let proof = base
        .proof_of_type("Broccoli", feo_ontology::ns::eo::FOIL)
        .expect("Broccoli must be classified Foil with a recorded proof");
    assert!(
        proof.contains("[cls]") || proof.contains("[asserted]"),
        "{proof}"
    );
    assert!(proof.contains("Foil"), "{proof}");
    // A typing that does not hold yields no proof.
    assert!(base
        .proof_of_type("Cheddar", feo_ontology::ns::eo::FOIL)
        .is_none());
}

#[test]
fn budget_characteristic_surfaces_in_explanations() {
    // A tier-1 budget user: cheap dishes get budget facts, the expensive
    // sushi gets a budget foil in contrastive comparisons.
    let kg = curated();
    let user = UserProfile::new("user").budget(1).likes(&["Sushi"]);
    let ctx = SystemContext::new(Season::Autumn);
    let base = EngineBase::new(kg, user, ctx).unwrap();

    let e = base
        .explain(
            &Question::WhyEat {
                food: "LentilSoup".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(
        e.answer.contains("fits your budget"),
        "budget context expected: {}",
        e.answer
    );

    let e = base
        .explain(
            &Question::WhyEatOver {
                preferred: "LentilSoup".into(),
                alternative: "Sushi".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(
        e.answer.contains("exceeds your budget"),
        "budget foil expected: {}",
        e.answer
    );
}

#[test]
fn no_budget_means_no_budget_characteristics() {
    let kg = curated();
    let user = UserProfile::new("user");
    let ctx = SystemContext::new(Season::Summer);
    let base = EngineBase::new(kg, user, ctx).unwrap();
    let e = base
        .explain(
            &Question::WhyEat {
                food: "LentilSoup".into(),
            },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(!e.answer.contains("budget"), "{}", e.answer);
}
