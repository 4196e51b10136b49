//! The paper's §V-B contrastive scenario, plus further contrastive
//! comparisons across the menu: "Why X over Y?" answered with facts for
//! X and foils against Y (Figure 3 semantics).
//!
//! Run with: `cargo run --example contrastive_meal_planning`

use feo::core::{scenario_b, EngineBase, ExplainOptions, Question};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};

fn main() {
    // Exact paper scenario first.
    let s = scenario_b();
    println!("== {} ==", s.name);
    println!("Setup: {}", s.setup);
    let base = s.engine().expect("consistent");
    let e = base
        .explain(&s.question, &ExplainOptions::default())
        .expect("explained");
    println!("Q: {}", s.question.text());
    println!("\nListing 2 result table:\n{}", e.bindings);
    println!("A: {}", e.answer);
    println!("(paper: {})\n", s.paper_answer);

    // A richer user, more comparisons.
    let user = UserProfile::new("sam")
        .likes(&["PastaPrimavera"])
        .dislikes(&["TunaSalad"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn);
    let base = EngineBase::new(curated(), user, ctx).expect("consistent");

    for (preferred, alternative) in [
        ("KaleQuinoaBowl", "GrilledChickenSalad"),
        ("PumpkinRisotto", "TunaSalad"),
        ("LentilSoup", "BeefStew"),
    ] {
        let q = Question::WhyEatOver {
            preferred: preferred.into(),
            alternative: alternative.into(),
        };
        let e = base
            .explain(&q, &ExplainOptions::default())
            .expect("explained");
        println!("Q: {}", q.text());
        println!("A: {}\n", e.answer);
    }
}
