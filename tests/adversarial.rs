//! Fault-injection harness: the whole pipeline under hostile inputs.
//!
//! Contract asserted for every case: no panic, a typed `Exhausted` /
//! syntax error or a bounded partial result, and wall-clock time bounded
//! by the deadline (plus scheduling slack). The pathological inputs come
//! from `feo_foodkg::adversarial`.

use std::time::{Duration, Instant};

use feo_foodkg::adversarial::{
    closure_blowup_turtle, cyclic_subclass_turtle, deep_transitive_chain_turtle,
    malformed_turtle_corpus,
};
use feo_owl::{MaterializeOptions, Reasoner, ReasonerError};
use feo_rdf::governor::{Budget, CancelFlag, Guard, Resource};
use feo_rdf::turtle::{parse_turtle, parse_turtle_into};
use feo_rdf::{Graph, GraphView, ParseOptions, RdfError};
use feo_sparql::{query, QueryOptions, SparqlError};

/// Generous ceiling for "the governor actually stopped the work": each
/// case sets a deadline in the tens of milliseconds; a run that takes
/// longer than this either ignored the guard or looped.
const HARD_CEILING: Duration = Duration::from_secs(20);

fn load(src: &str) -> Graph {
    let mut g = Graph::new();
    parse_turtle_into(src, &mut g, &Default::default()).expect("adversarial fixture parses");
    g
}

#[test]
fn malformed_turtle_yields_typed_positioned_errors() {
    let guard = Guard::default();
    for doc in malformed_turtle_corpus() {
        match parse_turtle(
            doc,
            &ParseOptions {
                guard: Some(&guard),
            },
        ) {
            Err(RdfError::Syntax(e)) => {
                assert!(e.line >= 1 && e.column >= 1, "position for {doc:?}");
            }
            Err(RdfError::Exhausted(e)) => panic!("unlimited guard tripped: {e}"),
            Err(RdfError::Store(e)) => panic!("parser surfaced a store error: {e}"),
            Ok(_) => panic!("malformed document parsed: {doc:?}"),
        }
    }
}

#[test]
fn subclass_cycle_terminates_and_stays_consistent() {
    let started = Instant::now();
    let mut g = load(&cyclic_subclass_turtle(64));
    let guard = Budget::new().with_deadline(Duration::from_secs(10)).start();
    let result = Reasoner::new()
        .materialize(&mut g, &MaterializeOptions::guarded(&guard))
        .expect("a subclass cycle is legal OWL and must close within budget");
    assert!(result.converged);
    // Every class in the cycle is equivalent: the victim gets all 64.
    let victim = g.lookup_iri("http://adversarial/victim").unwrap();
    let ty = g
        .lookup_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        .unwrap();
    for i in 0..64 {
        let c = g.lookup_iri(&format!("http://adversarial/C{i}")).unwrap();
        assert!(g.contains_ids(victim, ty, c), "victim typed C{i}");
    }
    assert!(started.elapsed() < HARD_CEILING);
}

#[test]
fn deep_transitive_chain_is_cut_by_inference_budget() {
    let started = Instant::now();
    // 10k-deep chain: the full closure would be ~50M pairs. The budget
    // stops it after 100k derived triples.
    let mut g = load(&deep_transitive_chain_turtle(10_000));
    let guard = Budget::new()
        .with_max_inferred(100_000)
        .with_deadline(Duration::from_secs(15))
        .start();
    let err = Reasoner::new()
        .materialize(&mut g, &MaterializeOptions::guarded(&guard))
        .expect_err("50M-pair closure cannot fit a 100k budget");
    let ReasonerError::Exhausted { exhausted, partial } = err;
    assert!(
        exhausted.resource == Resource::InferredTriples
            || exhausted.resource == Resource::WallClock,
        "tripped on {exhausted}"
    );
    // The partial closure is sound: whatever was derived is in the graph.
    assert!(partial.added > 0, "partial result carries derived triples");
    assert!(started.elapsed() < HARD_CEILING);
}

#[test]
fn closure_blowup_is_cut_by_round_or_triple_budget() {
    let started = Instant::now();
    let mut g = load(&closure_blowup_turtle(40, 4));
    let guard = Budget::new()
        .with_max_rounds(5)
        .with_deadline(Duration::from_secs(10))
        .start();
    // Membership cascades one equivalence level per round; 40 levels
    // cannot finish in 5 rounds.
    let err = Reasoner::new()
        .materialize(&mut g, &MaterializeOptions::guarded(&guard))
        .expect_err("40-level cascade cannot fit 5 rounds");
    let ReasonerError::Exhausted { exhausted, partial } = err;
    assert_eq!(exhausted.resource, Resource::Rounds);
    assert!(!partial.converged, "partial result is marked non-converged");
    assert!(started.elapsed() < HARD_CEILING);
}

#[test]
fn pathological_query_on_pathological_graph_is_bounded() {
    let started = Instant::now();
    let mut g = load(&deep_transitive_chain_turtle(300));
    // Close what a small budget allows, keep the partial graph.
    let guard = Budget::new().with_max_inferred(5_000).start();
    let _ = Reasoner::new().materialize(&mut g, &MaterializeOptions::guarded(&guard));
    // Then hit the partial closure with a cross-product query under a
    // fresh solution budget.
    let guard = Budget::new()
        .with_max_solutions(10_000)
        .with_deadline(Duration::from_secs(10))
        .start();
    let err = query(
        &g,
        "SELECT * WHERE { ?a ?p ?b . ?c ?q ?d }",
        &QueryOptions::guarded(&guard),
    )
    .expect_err("cross-product over thousands of triples must trip");
    match err {
        SparqlError::Exhausted(e) => assert!(
            e.resource == Resource::Solutions || e.resource == Resource::WallClock,
            "tripped on {e}"
        ),
        other => panic!("expected Exhausted, got {other:?}"),
    }
    assert!(started.elapsed() < HARD_CEILING);
}

#[test]
fn cancellation_interrupts_materialization() {
    let mut g = load(&deep_transitive_chain_turtle(2_000));
    let flag = CancelFlag::new();
    flag.cancel();
    let guard = Budget::new().with_cancel(flag).start();
    let err = Reasoner::new()
        .materialize(&mut g, &MaterializeOptions::guarded(&guard))
        .expect_err("pre-cancelled run must stop");
    assert_eq!(err.exhausted().resource, Resource::Cancelled);
}

#[test]
fn oversized_documents_are_rejected_before_parsing() {
    let src = deep_transitive_chain_turtle(1_000);
    let guard = Budget::new().with_max_input_bytes(1024).start();
    match parse_turtle(
        &src,
        &ParseOptions {
            guard: Some(&guard),
        },
    ) {
        Err(RdfError::Exhausted(e)) => {
            assert_eq!(e.resource, Resource::InputSize);
            assert!(e.spent as usize == src.len());
        }
        other => panic!("expected input-size trip, got {other:?}"),
    }
}

#[test]
fn end_to_end_engine_survives_budget_exhaustion() {
    use feo_core::{EngineBase, Question};
    use feo_foodkg::{curated, Season, SystemContext, UserProfile};
    use feo_rdf::Parallelism;

    let base = EngineBase::new(
        curated(),
        UserProfile::new("user").allergies(&["Broccoli"]),
        SystemContext::new(Season::Autumn),
    )
    .unwrap();
    let questions = vec![
        Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        },
        Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        },
    ];
    // A budget too small for the batch: the engine must return what it
    // could do plus a degradation report, not an error or a panic.
    let budget = Budget::new().with_max_solutions(1);
    let outcome = base
        .explain_batch_with_budget(&questions, &budget, Parallelism::Off)
        .unwrap();
    let report = outcome.degradation.expect("budget must trip");
    assert_eq!(report.exhausted.resource, Resource::Solutions);
    assert_eq!(
        report.completed.len() + report.skipped.len(),
        questions.len()
    );
}
