//! Batch determinism: `Parallelism` is a throughput knob, never a
//! semantics knob. Threads exist at one level — the question — so the
//! one thing it sizes is `explain_batch`, whose answers at
//! `Fixed(2/4/8)` must equal `Off` slot for slot, errors included.
//!
//! Below the question everything runs on the calling thread. That
//! single path is pinned here too: tracked derivations are
//! reproducible with premises inside the closure, and neither
//! `feo_sparql::query` nor `materialize_delta` asks its view to be
//! `Sync`, so neither can fan out again unnoticed.

use std::cell::Cell;

use feo::core::ecosystem::{assemble, assert_question};
use feo::core::queries::contextual_query;
use feo::core::{EngineBase, ExplainOptions, Population, Question};
use feo::foodkg::{curated, synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::owl::{CompiledRules, MaterializeOptions, Reasoner, ReasonerOptions};
use feo::rdf::{Graph, GraphView, IdTriple, Overlay, Parallelism, PredicateStats, Term, TermId};
use feo::sparql::query;
use proptest::prelude::*;

fn synthetic_world(recipes: usize, seed: u64) -> Graph {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 10,
        seed,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let ctx = SystemContext::new(Season::Autumn);
    assemble(&kg, &user, &ctx)
}

/// A mixed batch over the synthetic KG: contextual, contrastive,
/// knowledge-based, simulation, case-based, and statistical questions,
/// cycled across the generated recipe names.
fn question_batch(names: &[String], len: usize) -> Vec<Question> {
    (0..len)
        .map(|i| {
            let food = names[i % names.len()].clone();
            match i % 6 {
                0 => Question::WhyEat { food },
                1 => Question::WhyEatOver {
                    preferred: food,
                    alternative: names[(i + 1) % names.len()].clone(),
                },
                2 => Question::WhyGenerally { food },
                3 => Question::WhatIfEatenDaily { food },
                4 => Question::WhatOtherUsers { food },
                _ => Question::WhatEvidenceForDiet {
                    diet: "Vegetarian".into(),
                },
            }
        })
        .collect()
}

/// One comparable line per batch slot: the rendered answer plus the
/// binding rows on success, the error's debug form on failure.
fn batch_fingerprint(
    base: &EngineBase,
    questions: &[Question],
    parallelism: Parallelism,
) -> Vec<String> {
    let opts = ExplainOptions {
        parallelism,
        ..Default::default()
    };
    base.explain_batch(questions, &opts)
        .into_iter()
        .map(|r| match r {
            Ok(e) => format!("ok|{}|{:?}|{:?}", e.answer, e.statements, e.bindings.rows),
            Err(err) => format!("err|{err:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `explain_batch` output is byte-identical slot for slot, including
    /// which slots hold errors.
    #[test]
    fn parallel_explain_batch_matches_sequential(
        recipes in 15usize..40,
        seed in 0u64..10_000,
    ) {
        let kg = synthetic(&SyntheticConfig {
            recipes,
            ingredients: recipes / 2 + 10,
            seed,
            ..Default::default()
        });
        let population = Population::generate(&kg, 40, seed);
        let names: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
        let user = UserProfile::new("u")
            .likes(&[&names[0]])
            .diet("Vegetarian")
            .goals(&["HighFiberGoal"]);
        let ctx = SystemContext::new(Season::Autumn).region("Florida");
        let base = EngineBase::new(kg, user, ctx)
            .expect("synthetic world is consistent")
            .with_population(population);
        let questions = question_batch(&names, 12);
        let reference = batch_fingerprint(&base, &questions, Parallelism::Off);
        for workers in [2usize, 4, 8] {
            let got = batch_fingerprint(&base, &questions, Parallelism::Fixed(workers));
            prop_assert_eq!(
                &got, &reference,
                "explain_batch diverged at {} workers on seed {}", workers, seed
            );
        }
    }
}

/// Derivation tracking changes what is recorded, never what is derived:
/// the closure is byte-identical with tracking on, the run is
/// reproducible (same derivation map twice), and every recorded
/// derivation is structurally sound — its premises are triples of the
/// closed graph, so proof trees render without dangling references.
/// (The name predates the removal of intra-closure fan-out; it is kept
/// because the test id is pinned.)
#[test]
fn tracked_derivations_survive_the_parallel_path() {
    let close = |track_derivations: bool| {
        let mut g = synthetic_world(40, 7);
        let result = Reasoner::with_options(ReasonerOptions { track_derivations })
            .materialize(&mut g, &Default::default())
            .expect("converges");
        (g, result)
    };

    let (plain_g, plain) = close(false);
    let (g, tracked) = close(true);
    let (g2, tracked2) = close(true);

    assert_eq!(
        plain_g.iter_ids().collect::<Vec<_>>(),
        g.iter_ids().collect::<Vec<_>>(),
        "closure diverged with tracking on"
    );
    assert_eq!(g.len(), g2.len());
    assert_eq!(tracked.derivations.len(), tracked2.derivations.len());
    for (t, d) in &tracked.derivations {
        let again = tracked2.derivations.get(t).expect("reproducible key set");
        assert_eq!((d.rule, &d.premises), (again.rule, &again.premises));
    }

    // Every inferred triple is explained, and premises always reference
    // real triples of the closure (acyclic proof DAG).
    assert_eq!(tracked.derivations.len(), plain.added);
    assert!(!tracked.derivations.is_empty(), "tracking recorded nothing");
    for (t, d) in &tracked.derivations {
        assert!(
            g.contains_ids(t[0], t[1], t[2]),
            "derived triple missing from closure"
        );
        for p in &d.premises {
            assert!(
                g.contains_ids(p[0], p[1], p[2]),
                "premise of {:?} ({}) not in closure",
                t,
                d.rule
            );
        }
        let node = feo::owl::proof(&tracked, *t);
        assert!(!node.render(&g).is_empty());
    }
}

/// A view that is deliberately `!Sync`: it counts `match_pattern` calls
/// in a `Cell`. Only the required methods delegate.
struct CountingView<'g> {
    inner: &'g Graph,
    scans: Cell<u64>,
}

impl GraphView for CountingView<'_> {
    fn len(&self) -> usize {
        GraphView::len(self.inner)
    }
    fn term_count(&self) -> usize {
        GraphView::term_count(self.inner)
    }
    fn lookup(&self, term: &Term) -> Option<TermId> {
        GraphView::lookup(self.inner, term)
    }
    fn term(&self, id: TermId) -> &Term {
        GraphView::term(self.inner, id)
    }
    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        GraphView::contains_ids(self.inner, s, p, o)
    }
    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        self.scans.set(self.scans.get() + 1);
        GraphView::match_pattern(self.inner, s, p, o)
    }
    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        GraphView::predicate_stats(self.inner, p)
    }
    fn class_instance_count(&self, class_id: TermId) -> u64 {
        GraphView::class_instance_count(self.inner, class_id)
    }
    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        GraphView::iter_ids(self.inner)
    }
}

/// Pins at the type level that nothing below the question fans out: a
/// delta closure and CQ1 both run over a `!Sync` view (this test does
/// not compile if either layer asks for `Sync` again) and answer
/// exactly as they do over the plain graph.
#[test]
fn closure_and_query_run_over_a_non_sync_view() {
    let kg = curated();
    let user = UserProfile::new("u")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let mut g = assemble(&kg, &user, &ctx);
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut g);
    reasoner
        .materialize(&mut g, &MaterializeOptions::with_rules(&rules))
        .expect("curated KG converges");

    let question = Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    };
    fn answer<V: GraphView>(
        view: V,
        question: &Question,
        rules: &CompiledRules,
    ) -> (usize, Vec<Vec<String>>) {
        let mut overlay = Overlay::new(view);
        assert_question(question, &mut overlay);
        let inference = Reasoner::new()
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(rules))
            .expect("delta closure converges");
        let table = query(&overlay, &contextual_query(question), &Default::default())
            .expect("CQ1 evaluates")
            .expect_solutions();
        (inference.added, table.local_rows())
    }

    let reference = answer(&g, &question, &rules);
    assert!(reference.0 > 0, "the question must derive something");
    assert!(!reference.1.is_empty(), "CQ1 must bind something");

    let counting = CountingView {
        inner: &g,
        scans: Cell::new(0),
    };
    assert_eq!(answer(&counting, &question, &rules), reference);
    assert!(counting.scans.get() > 0, "the view was never scanned");
}
