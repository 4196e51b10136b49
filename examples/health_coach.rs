//! Full Health-Coach pipeline: profile a user, run the recommender, then
//! explain the top recommendation with several explanation types —
//! the paper's intended deployment ("integrating the ontology into a
//! health application", §VI).
//!
//! Run with: `cargo run --example health_coach`

use feo::core::{EngineBase, ExplainOptions, Population, Question};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};
use feo::recommender::{HealthCoach, Recommender};

fn main() {
    let kg = curated();
    let user = UserProfile::new("maya")
        .likes(&["LentilSoup", "KaleQuinoaBowl"])
        .dislikes(&["BeefStew"])
        .allergies(&["Peanuts"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"])
        .region("NewYork");
    let ctx = SystemContext::new(Season::Autumn).region("NewYork");

    // 1. Recommend.
    let coach = HealthCoach::new(&kg);
    let recs = coach.recommend(&user, &ctx, 5);
    println!("Top recommendations for {}:", user.id);
    for (i, r) in recs.recommendations.iter().enumerate() {
        println!("  {}. {} (score {:.2})", i + 1, r.recipe_id, r.score);
    }
    println!(
        "  ({} recipes eliminated by hard constraints)\n",
        recs.eliminated.len()
    );
    let top = recs.top().expect("something recommended").to_string();

    // 2. Explain, post-hoc, with FEO.
    let population = Population::generate(&kg, 200, 7);
    let base = EngineBase::new(curated(), user, ctx)
        .expect("consistent")
        .with_population(population)
        .with_recommendations(recs);

    for question in [
        Question::WhyEat { food: top.clone() },
        Question::WhatSteps { food: top.clone() },
        Question::WhatOtherUsers { food: top.clone() },
        Question::WhyGenerally { food: top.clone() },
        Question::WhatEvidenceForDiet {
            diet: "Vegetarian".into(),
        },
    ] {
        let e = base
            .explain(&question, &ExplainOptions::default())
            .expect("explained");
        println!("[{}]", e.explanation_type);
        println!("Q: {}", question.text());
        println!("A: {}\n", e.answer);
    }
}
