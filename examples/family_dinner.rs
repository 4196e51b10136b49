//! Group recommendation — the paper's §I motivation: "the seafood
//! allergy of one family member may preclude recipes including shrimp to
//! be recommended to the whole group". The group coach applies every
//! member's constraints, attributes each veto to the responsible member,
//! and FEO explains the surviving top pick.
//!
//! Run with: `cargo run --example family_dinner`

use feo::core::{EngineBase, ExplainOptions, Question};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};
use feo::recommender::GroupCoach;

fn main() {
    let kg = curated();
    let family = vec![
        UserProfile::new("ana").likes(&["ShrimpScampi", "PastaPrimavera"]),
        UserProfile::new("ben")
            .likes(&["LentilSoup"])
            .diet("Vegetarian"),
        UserProfile::new("dana")
            .allergies(&["Shrimp"])
            .goals(&["HighFiberGoal"]),
    ];
    let ctx = SystemContext::new(Season::Autumn);

    let coach = GroupCoach::new(&kg);
    let set = coach.recommend(&family, &ctx, 5);

    println!("Family dinner candidates (autumn):");
    for (i, r) in set.recommendations.iter().enumerate() {
        println!("  {}. {:<24} avg score {:.2}", i + 1, r.recipe_id, r.score);
    }

    println!("\nVetoed dishes (who objects, and why):");
    let mut seen = std::collections::BTreeSet::new();
    for (member, step) in &set.eliminated {
        let line = format!("  - [{member}] {step}");
        if seen.insert(line.clone()) {
            println!("{line}");
        }
    }

    // Explain the winning dish for the most constrained member.
    let top = set.top().expect("a dish survives").to_string();
    println!("\nWhy {} works for dana:", top);
    let base = EngineBase::new(curated(), family[2].clone(), ctx).expect("consistent");
    let e = base
        .explain(&Question::WhyEat { food: top }, &ExplainOptions::default())
        .expect("explained");
    println!("  {}", e.answer);
}
