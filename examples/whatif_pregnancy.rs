//! The paper's §V-C counterfactual scenario ("What if I was pregnant?")
//! plus diet and allergy hypotheticals, showing how recommendations
//! would change under each hypothesis.
//!
//! Run with: `cargo run --example whatif_pregnancy`

use feo::core::{scenario_c, EngineBase, ExplainOptions, Hypothesis, Question};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};
use feo::recommender::{HealthCoach, Recommender};

fn main() {
    // Exact paper scenario.
    let s = scenario_c();
    println!("== {} ==", s.name);
    println!("Setup: {}", s.setup);
    let base = s.engine().expect("consistent");
    let e = base
        .explain(&s.question, &ExplainOptions::default())
        .expect("explained");
    println!("Q: {}", s.question.text());
    println!("\nListing 3 result table:\n{}", e.bindings);
    println!("A: {}", e.answer);
    println!("(paper: {})\n", s.paper_answer);

    // Cross-check against the recommender: with the hypothesis applied,
    // the recommendation set itself changes.
    let kg = curated();
    let base_user = UserProfile::new("u").likes(&["Sushi"]);
    let ctx = SystemContext::new(Season::Autumn);
    let coach = HealthCoach::new(&kg);
    let before = coach.recommend(&base_user, &ctx, 40);
    let after = coach.recommend(&base_user.clone().pregnant(true), &ctx, 40);
    println!("Recommender cross-check:");
    println!(
        "  sushi ranked before hypothesis: {}",
        before.get("Sushi").is_some()
    );
    println!(
        "  sushi ranked under pregnancy:   {}",
        after.get("Sushi").is_some()
    );
    if let Some(step) = after.elimination("Sushi") {
        println!("  recommender's reason: {step}\n");
    }

    // Other hypotheses.
    let base = EngineBase::new(curated(), base_user, ctx).expect("consistent");
    for hypothesis in [
        Hypothesis::FollowedDiet("Vegan".into()),
        Hypothesis::FollowedDiet("GlutenFree".into()),
        Hypothesis::AllergicTo("Peanuts".into()),
    ] {
        let q = Question::WhatIf { hypothesis };
        let e = base
            .explain(&q, &ExplainOptions::default())
            .expect("explained");
        println!("Q: {}", q.text());
        println!("A: {}\n", e.answer);
    }
}
