//! Quickstart: build the engine over the curated knowledge graph, ask the
//! paper's contextual question, and print the answer with the underlying
//! SPARQL bindings.
//!
//! Run with: `cargo run --example quickstart`

use feo::core::{EngineBase, ExplainOptions, Question};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};

fn main() {
    // The user and the system context form FEO's "ecosystem".
    let user = UserProfile::new("demo-user").region("Florida");
    let ctx = SystemContext::new(Season::Autumn).region("Florida");

    // Assemble TBoxes + FoodKG + ecosystem and materialize inferences
    // (the paper's "run the reasoner, export the inferred axioms" step).
    let base = EngineBase::new(curated(), user, ctx).expect("ontology stack is consistent");
    println!(
        "materialized graph: {} triples ({} inferred, {} reasoning rounds)\n",
        base.graph().len(),
        base.inference().added,
        base.inference().rounds
    );

    // The paper's §V-A competency question.
    let question = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };
    let explanation = base
        .explain(&question, &ExplainOptions::default())
        .expect("explanation generated");

    println!("Q: {}", question.text());
    println!(
        "\nSPARQL bindings (paper Listing 1 result):\n{}",
        explanation.bindings
    );
    println!("A: {}", explanation.answer);
}
