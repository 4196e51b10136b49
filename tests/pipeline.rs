//! Workspace integration tests: the full pipeline exercised through the
//! `feo` umbrella crate, across every crate boundary — KG → recommender →
//! ontology assembly → reasoner → SPARQL → explanation, plus export
//! fidelity (the paper's "export the ontology with the inferred axioms"
//! step round-tripped through Turtle).

use feo::core::ecosystem::assert_question;
use feo::core::{
    competency, scenario_a, scenario_b, scenario_c, EngineBase, ExplainOptions, Population,
    Question,
};
use feo::foodkg::{
    curated, synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile,
};
use feo::rdf::turtle::{parse_turtle_into, write_turtle};
use feo::rdf::{Graph, GraphView};
use feo::recommender::{HealthCoach, PopularityRecommender, Recommender};
use feo::sparql::query;

#[test]
fn paper_competency_questions_reproduce() {
    let outcomes = competency::all().expect("all CQs run");
    assert_eq!(outcomes.len(), 3);
    for o in &outcomes {
        assert!(
            o.expected_found,
            "{}: expected rows missing:\n{}",
            o.scenario.name, o.bindings
        );
    }
    // CQ1 and CQ2 match the paper exactly; CQ3 has one extra row from the
    // richer curated KG (documented in EXPERIMENTS.md).
    assert_eq!(outcomes[0].extra_rows, 0, "CQ1 exact");
    assert_eq!(outcomes[1].extra_rows, 0, "CQ2 exact");
    assert!(outcomes[2].extra_rows <= 1, "CQ3 shape");
}

#[test]
fn recommend_then_explain_round_trip() {
    // The deployment loop: Health Coach recommends, FEO explains, and the
    // explanation is consistent with the recommender's own reasons.
    let kg = curated();
    let user = UserProfile::new("u")
        .likes(&["BroccoliCheddarSoup"])
        .allergies(&["Broccoli"]);
    let ctx = SystemContext::new(Season::Autumn);
    let coach = HealthCoach::new(&kg);
    let recs = coach.recommend(&user, &ctx, 5);
    let top = recs.top().expect("recommended").to_string();

    let base = EngineBase::new(curated(), user, ctx)
        .expect("consistent")
        .with_recommendations(recs);
    let contextual = base
        .explain(
            &Question::WhyEat { food: top.clone() },
            &ExplainOptions::default(),
        )
        .unwrap();
    let trace = base
        .explain(
            &Question::WhatSteps { food: top },
            &ExplainOptions::default(),
        )
        .unwrap();
    assert!(contextual.is_informative() || trace.is_informative());
}

#[test]
fn materialized_export_round_trips_through_turtle() {
    // Export the materialized graph as Turtle, re-parse it, and verify
    // the competency query gives identical rows over the re-import.
    let s = scenario_b();
    let mut base = s.engine().expect("consistent");
    let direct = base
        .explain(&s.question, &ExplainOptions::default())
        .unwrap();

    // The answer came from a throwaway session; commit the question and
    // its closure so the exported head holds the question individual,
    // then export the full head view (base plus every committed layer).
    base.commit_with("question", |overlay| {
        assert_question(&s.question, overlay);
    });
    let head = base.ledger().head_view();
    let ttl = write_turtle(&head, feo::ontology::ns::PREFIXES);
    let mut reimported = Graph::new();
    parse_turtle_into(&ttl, &mut reimported, &Default::default()).expect("export parses");
    assert_eq!(head.len(), reimported.len(), "lossless export");

    let q = feo::core::queries::contrastive_query(&s.question);
    let table = query(&reimported, &q, &Default::default())
        .unwrap()
        .expect_solutions();
    assert_eq!(
        table.rows, direct.bindings.rows,
        "same rows over the re-import"
    );
}

#[test]
fn synthetic_kg_pipeline_end_to_end() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 60,
        ingredients: 50,
        seed: 99,
        ..Default::default()
    });
    let recipe = kg.recipes[3].id.clone();
    let user = UserProfile::new("u").likes(&[&kg.recipes[0].id]);
    let ctx = SystemContext::new(Season::Winter);
    let base = EngineBase::new(kg, user, ctx).expect("synthetic stack is consistent");
    assert!(base.inference().is_consistent());
    assert!(base.inference().warnings.is_empty());
    let e = base
        .explain(
            &Question::WhyEat { food: recipe },
            &ExplainOptions::default(),
        )
        .unwrap();
    // Synthetic recipes may or may not have winter support; either way the
    // pipeline must answer without error.
    assert!(!e.answer.is_empty());
}

#[test]
fn coach_beats_baseline_on_constraint_respect() {
    // The shape the paper's motivation predicts: a popularity baseline
    // recommends allergy-violating dishes; the Health Coach never does.
    let kg = curated();
    let population = feo::foodkg::random_profiles(&kg, 300, 13);
    let baseline = PopularityRecommender::from_population(&kg, &population);
    let coach = HealthCoach::new(&kg);
    let ctx = SystemContext::new(Season::Autumn);

    let mut baseline_violations = 0usize;
    let mut coach_violations = 0usize;
    let mut checked = 0usize;
    for user in feo::foodkg::random_profiles(&kg, 50, 17) {
        if user.allergies.is_empty() {
            continue;
        }
        checked += 1;
        let violates = |set: &feo::recommender::RecommendationSet| {
            set.recommendations.iter().any(|r| {
                kg.recipe(&r.recipe_id)
                    .map(|rec| rec.ingredients.iter().any(|i| user.allergies.contains(i)))
                    .unwrap_or(false)
            })
        };
        if violates(&baseline.recommend(&user, &ctx, 10)) {
            baseline_violations += 1;
        }
        if violates(&coach.recommend(&user, &ctx, 10)) {
            coach_violations += 1;
        }
    }
    assert!(checked > 0);
    assert_eq!(coach_violations, 0, "coach must never violate allergies");
    assert!(
        baseline_violations > 0,
        "popularity baseline should violate at least once over {checked} allergy users"
    );
}

#[test]
fn figures_regenerate() {
    let g = feo::ontology::schema::tbox_graph();
    let tree = feo::ontology::report::characteristic_tree(&g).unwrap();
    assert!(tree.size() >= 14);
    // Figure 1: the user and system characteristics §III-A names.
    let under = |parent: &str, children: &[&str]| {
        let node = tree.find(parent).unwrap_or_else(|| panic!("{parent}"));
        for child in children {
            assert!(node.find(child).is_some(), "{child} under {parent}");
        }
    };
    under(
        "UserCharacteristic",
        &[
            "LikedFoodCharacteristic",
            "DislikedFoodCharacteristic",
            "AllergicFoodCharacteristic",
            "DietCharacteristic",
            "NutritionalGoalCharacteristic",
            "PregnancyCharacteristic",
            "BudgetCharacteristic",
        ],
    );
    under(
        "SystemCharacteristic",
        &[
            "SeasonCharacteristic",
            "LocationCharacteristic",
            "TimeCharacteristic",
        ],
    );
    assert!(tree.find("Parameter").is_some());
    let lattice = feo::ontology::report::property_lattice(&g);
    assert!(lattice.len() >= 25);
    // Figure 2: the inverse pairs beside hasCharacteristic's.
    for (p, inverse) in [
        ("dislikes", "dislikedBy"),
        ("likes", "likedBy"),
        ("availableInSeason", "seasonOf"),
    ] {
        let info = lattice.iter().find(|i| i.local == p).unwrap();
        assert!(info.inverse_of.iter().any(|i| i == inverse), "{p}");
    }
    let matrix = feo::core::figure3_matrix();
    assert_eq!(matrix.len(), 4);
}

/// Figure 4: once CQ1 is committed, its neighbourhood in the head view
/// has the question → parameter link, the curry → cauliflower → autumn
/// chain, the inferred supportive edges, Autumn's presence in the
/// ecosystem and its inferred types.
#[test]
fn figure_four_neighbourhood_after_cq1() {
    let s = scenario_a();
    let mut base = s.engine().unwrap();
    let question = FoodKg::iri("WhyEatCauliflowerPotatoCurry");
    assert!(base.ledger().head_view().lookup_iri(&question).is_none());
    base.commit_with("cq1", |overlay| {
        assert_question(&s.question, overlay);
    });
    let g = base.ledger().head_view();
    let edges = |subject: &str| -> Vec<(String, String)> {
        let id = g.lookup_iri(&FoodKg::iri(subject)).expect(subject);
        (g.match_pattern(Some(id), None, None).into_iter())
            .map(|[_, p, o]| (g.term_name(p), g.term_name(o)))
            .collect()
    };
    for (subject, p, o) in [
        (
            "WhyEatCauliflowerPotatoCurry",
            "hasParameter",
            "CauliflowerPotatoCurry",
        ),
        ("WhyEatCauliflowerPotatoCurry", "type", "Question"),
        ("CauliflowerPotatoCurry", "type", "Parameter"),
        ("CauliflowerPotatoCurry", "hasIngredient", "Cauliflower"),
        ("CauliflowerPotatoCurry", "hasCharacteristic", "Cauliflower"),
        ("CauliflowerPotatoCurry", "hasCharacteristic", "Autumn"),
        ("Cauliflower", "availableInSeason", "Autumn"),
        ("Cauliflower", "hasCharacteristic", "Autumn"),
        ("Autumn", "isSupportiveCharacteristicOf", "Cauliflower"),
        (
            "Autumn",
            "isSupportiveCharacteristicOf",
            "CauliflowerPotatoCurry",
        ),
        ("Autumn", "presentIn", "CurrentEcosystem"),
        ("Autumn", "type", "SeasonCharacteristic"),
        ("Autumn", "type", "SystemCharacteristic"),
        ("Autumn", "type", "Characteristic"),
        ("Autumn", "type", "Fact"),
    ] {
        let out = edges(subject);
        assert!(
            out.iter().any(|(q, v)| q == p && v == o),
            "{subject} --{p}--> {o} missing from {out:?}"
        );
    }
}

#[test]
fn scenarios_are_mutually_consistent_with_recommender() {
    // Scenario B says the system recommends Butternut Squash Soup for the
    // broccoli-allergic soup lover — our recommender should agree that
    // squash soup outranks anything broccoli-based.
    let s = scenario_b();
    let kg = s.kg();
    let coach = HealthCoach::new(&kg);
    let set = coach.recommend(&s.user, &s.context, 10);
    assert!(set.get("ButternutSquashSoup").is_some());
    assert!(set.get("BroccoliCheddarSoup").is_none());

    // Scenario C: sushi survives for the non-pregnant user.
    let s = scenario_c();
    let set = coach.recommend(&s.user, &s.context, 40);
    assert!(set.get("Sushi").is_some());
}

#[test]
fn inference_counts_are_substantial() {
    // The reasoner must be doing real work: the materialized graph grows
    // by a large factor over the asserted one.
    let s = scenario_a();
    let base = s.engine().unwrap();
    let inferred = base.inference().added;
    assert!(
        inferred > 500,
        "expected substantive inference, got {inferred} added triples"
    );
}

#[test]
fn engine_base_supports_all_nine_types() {
    let kg = curated();
    let user = UserProfile::new("u")
        .likes(&["LentilSoup"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn);
    let kg2 = curated();
    let coach = HealthCoach::new(&kg2);
    let recs = coach.recommend(&user, &ctx, 10);
    let base = EngineBase::new(kg, user, ctx)
        .unwrap()
        .with_population(Population::generate(&curated(), 100, 1))
        .with_recommendations(recs);
    for q in [
        Question::WhyEat {
            food: "LentilSoup".into(),
        },
        Question::WhatSteps {
            food: "LentilSoup".into(),
        },
        Question::WhatOtherUsers {
            food: "LentilSoup".into(),
        },
        Question::WhyGenerally {
            food: "LentilSoup".into(),
        },
        Question::WhatLiterature {
            food: "LentilSoup".into(),
        },
        Question::WhatIfEatenDaily {
            food: "LentilSoup".into(),
        },
        Question::WhatEvidenceForDiet {
            diet: "Vegetarian".into(),
        },
    ] {
        base.explain(&q, &ExplainOptions::default())
            .unwrap_or_else(|e| panic!("{q:?}: {e}"));
    }
}

#[test]
fn curated_kg_is_iri_resolvable() {
    let kg = curated();
    let mut g = Graph::new();
    feo::foodkg::kg_to_rdf(&kg, &mut g);
    for r in &kg.recipes {
        assert!(
            g.lookup_iri(&FoodKg::iri(&r.id)).is_some(),
            "recipe {} missing from RDF",
            r.id
        );
    }
}
