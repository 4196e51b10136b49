//! The prepared competency templates against their text form.
//!
//! Every SPARQL-backed explanation runs a template that was parsed and
//! planned once with its base and is bound to the question by a seed
//! row. The reference is the text form: the same query with the
//! question's IRIs written in, parsed, planned and run by
//! `feo_sparql::query` over the same view. Each explanation's table must
//! equal the reference row for row and term for term — on the curated KG
//! with a population and recommendations (memory and store-opened
//! bases), and on the benchmark's 400-recipe world at the head and after
//! 16 commits. Explaining must not touch the plan cache, and CQ1–CQ3's
//! plans must not depend on what a commit changes: their signature is
//! the same at every epoch of a 64-commit chain.

use std::fmt::Write as _;

use feo::core::ecosystem::{apply_hypothesis, assert_question};
use feo::core::knowledge::{EVERYDAY_RECORD, SCIENTIFIC_RECORD};
use feo::core::queries::{contextual_query, contrastive_query, counterfactual_query};
use feo::core::{EngineBase, EpochId, ExplainOptions, Hypothesis, Population, Question};
use feo::foodkg::{
    curated, synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile,
};
use feo::ontology::ns::{feo as feo_ns, sparql_prologue};
use feo::owl::{MaterializeOptions, Reasoner};
use feo::rdf::vocab::rdf;
use feo::rdf::{GraphView, Overlay};
use feo::recommender::{HealthCoach, Recommender};
use feo::sparql::ast::{GroupElement, Path, TermPattern, TriplePattern};
use feo::sparql::plan::{ElementPlan, GroupPlan};
use feo::sparql::{parse_query, plan_query, query, QueryOptions};

fn subject(hypothesis: &Hypothesis) -> String {
    match hypothesis {
        Hypothesis::Pregnant => feo_ns::PREGNANCY_STATE.to_string(),
        Hypothesis::FollowedDiet(d) => FoodKg::iri(d),
        Hypothesis::AllergicTo(i) => FoodKg::iri(i),
    }
}

/// The question's competency query as text. CQ1–CQ3 come from the
/// public renderers; the other three are written out here with their
/// constants spliced in, as the engine built them before it prepared
/// its templates.
fn text_form(base: &EngineBase, question: &Question) -> String {
    let p = sparql_prologue();
    let records = |food: &str, class: &str| {
        format!(
            "{p}SELECT DISTINCT ?record ?about ?text ?source WHERE {{ \
             <{}> feo:hasCharacteristic ?about . \
             ?record a <{class}> ; eo:inRelationTo ?about ; rdfs:comment ?text . \
             OPTIONAL {{ ?record eo:isBasedOn ?source . }} }} ORDER BY ?record",
            FoodKg::iri(food)
        )
    };
    match question {
        Question::WhyEat { .. } => contextual_query(question),
        Question::WhyEatOver { .. } => contrastive_query(question),
        Question::WhatIf { hypothesis } => counterfactual_query(&subject(hypothesis)),
        Question::WhatOtherUsers { food } => {
            let (user, food) = (FoodKg::iri(&base.user().id), FoodKg::iri(food));
            format!(
                "{p}SELECT (COUNT(DISTINCT ?other) AS ?supporters) WHERE {{ \
                 ?other food:likes <{food}> . FILTER (?other != <{user}>) . \
                 {{ <{user}> food:followsDiet ?d . ?other food:followsDiet ?d . }} UNION \
                 {{ <{user}> food:hasGoal ?g . ?other food:hasGoal ?g . }} }}"
            )
        }
        Question::WhyGenerally { food } => records(food, EVERYDAY_RECORD),
        Question::WhatLiterature { food } => records(food, SCIENTIFIC_RECORD),
        Question::WhatEvidenceForDiet { diet } => format!(
            "{p}SELECT (COUNT(DISTINCT ?follower) AS ?total) \
             (COUNT(DISTINCT ?winner) AS ?succeeded) WHERE {{ \
             ?follower food:followsDiet <{}> . \
             OPTIONAL {{ ?follower feo:achievedGoal ?g . BIND (?follower AS ?winner) . }} }}",
            FoodKg::iri(diet)
        ),
        other => panic!("{other:?} runs no SPARQL"),
    }
}

/// Explains `question` on `base` and runs its text form over the view
/// the engine queried: the session overlay, or for a what-if the
/// hypothetical world closed over it. Returns how many rows matched.
fn check(base: &EngineBase, question: &Question) -> usize {
    let mut session = base.session();
    let explanation = session
        .explain(question, &ExplainOptions::default())
        .unwrap_or_else(|e| panic!("{question:?}: {e}"));
    let (overlay, _) = session.into_parts();
    let text = text_form(base, question);
    let reference = match question {
        Question::WhatIf { hypothesis } => {
            let mut world = Overlay::new(overlay.base().clone());
            apply_hypothesis(hypothesis, base.user(), &mut world);
            assert_question(question, &mut world);
            Reasoner::new()
                .materialize_delta(&mut world, &MaterializeOptions::with_rules(base.rules()))
                .expect("unguarded closure cannot trip");
            query(&world, &text, &QueryOptions::default())
        }
        _ => query(&overlay, &text, &QueryOptions::default()),
    }
    .unwrap_or_else(|e| panic!("{e}:\n{text}"))
    .expect_solutions();
    assert_eq!(explanation.bindings, reference, "{question:?}\n{text}");
    reference.len()
}

fn assert_no_plan_lookups(base: &EngineBase) {
    let stats = base.plan_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 0, 0),
        "explain looked a plan up"
    );
}

fn curated_world() -> (FoodKg, UserProfile, SystemContext) {
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    (
        curated(),
        user,
        SystemContext::new(Season::Autumn).region("Florida"),
    )
}

/// Every SPARQL-backed question the curated KG can be asked: the
/// per-food types for every recipe, why-over for neighbouring recipes,
/// and a what-if and the statistical type for every diet.
fn curated_questions(kg: &FoodKg) -> Vec<Question> {
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
    questions
}

#[test]
fn curated_templates_match_their_text_on_memory_and_store_bases() {
    let (kg, user, ctx) = curated_world();
    let recommendations = HealthCoach::new(&kg).recommend(&user, &ctx, 10);
    let population = Population::generate(&kg, 150, 42);
    let questions = curated_questions(&kg);

    let mut memory = EngineBase::new(kg.clone(), user.clone(), ctx.clone())
        .expect("curated is consistent")
        .with_population(population.clone())
        .with_recommendations(recommendations.clone());
    let rows: usize = questions.iter().map(|q| check(&memory, q)).sum();
    assert!(
        rows > questions.len(),
        "the questions must find rows: {rows}"
    );
    assert_no_plan_lookups(&memory);

    let dir = std::env::temp_dir().join(format!("feo-prepared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    memory.save_to(&dir).expect("store saves");
    drop(memory);
    let mut opened = EngineBase::open(&dir, kg, user, ctx)
        .expect("store opens")
        .with_recommendations(recommendations);
    opened.mark_population(population);
    for question in &questions {
        check(&opened, question);
    }
    assert_no_plan_lookups(&opened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's world: 400 recipes, the pinned world seed.
fn world400() -> EngineBase {
    let kg = synthetic(&SyntheticConfig {
        recipes: 400,
        ingredients: 225,
        seed: 0xF00D,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    EngineBase::new(kg, user, SystemContext::new(Season::Autumn))
        .expect("synthetic world is consistent")
}

/// CQ1–CQ3 over the world: why-eat and why-over on recipes past the
/// liked one, what-if for pregnancy, every diet, and head and tail
/// allergens.
fn cq_questions(kg: &FoodKg, per_kind: usize) -> Vec<Question> {
    let recipes = &kg.recipes[1..];
    let mut questions: Vec<Question> = recipes[..per_kind]
        .iter()
        .map(|r| Question::WhyEat { food: r.id.clone() })
        .collect();
    questions.extend(
        recipes[per_kind..3 * per_kind]
            .chunks(2)
            .map(|pair| Question::WhyEatOver {
                preferred: pair[0].id.clone(),
                alternative: pair[1].id.clone(),
            }),
    );
    let mut hypotheses = vec![Hypothesis::Pregnant];
    hypotheses.extend(
        kg.diets
            .iter()
            .map(|d| Hypothesis::FollowedDiet(d.id.clone())),
    );
    hypotheses.extend(
        kg.ingredients
            .iter()
            .skip(1)
            .step_by(kg.ingredients.len() / per_kind)
            .map(|i| Hypothesis::AllergicTo(i.id.clone())),
    );
    questions.extend(
        hypotheses
            .into_iter()
            .map(|hypothesis| Question::WhatIf { hypothesis }),
    );
    questions
}

/// What the benchmark's `commit_mixed` commits: a fresh hypothesis about
/// a fresh user, so every delta is new.
fn commit_fresh(base: &mut EngineBase, n: u64) {
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

#[test]
fn world_templates_match_their_text_at_the_head_and_after_commits() {
    let mut base = world400();
    let questions = cq_questions(base.kg(), 8);
    for question in &questions {
        check(&base, question);
    }
    for n in 0..16 {
        commit_fresh(&mut base, n);
    }
    assert_eq!(base.head(), EpochId(16));
    for question in &questions {
        check(&base, question);
    }
    assert_no_plan_lookups(&base);
}

/// Join order, index and operator per step, and filter placement and
/// keys per group: what decides how a plan runs. Estimates are left out.
fn signature(group: &GroupPlan, out: &mut String) {
    let _ = write!(out, "filters {:?} keys {:?} {{", group.filters, group.keys);
    for element in &group.elements {
        match element {
            ElementPlan::Bgp(bgp) => {
                for step in &bgp.steps {
                    let _ = write!(out, " {}:{:?}:{:?}", step.pattern, step.index, step.algo);
                }
            }
            ElementPlan::Group(inner)
            | ElementPlan::Optional(inner)
            | ElementPlan::Minus(inner) => signature(inner, out),
            ElementPlan::Union(arms) => arms.iter().for_each(|arm| signature(arm, out)),
            ElementPlan::Leaf => out.push_str(" leaf"),
        }
    }
    out.push_str(" }");
}

fn plan_signature<G: GraphView>(view: &G, text: &str) -> String {
    let parsed = parse_query(text).expect("template text parses");
    let plan = plan_query(view, &parsed);
    let mut out = String::new();
    signature(&plan.root, &mut out);
    for body in &plan.exists {
        out.push_str(" exists ");
        signature(body, &mut out);
    }
    out
}

/// The templates are planned once, against the base they were built
/// with. That is sound only while what a commit changes cannot change a
/// plan: every CQ1–CQ3 plan on the world must be the same at each epoch
/// of a 64-commit chain as at epoch 0.
#[test]
fn plans_are_the_same_at_every_epoch_of_a_commit_chain() {
    let mut base = world400();
    let texts: Vec<String> = cq_questions(base.kg(), 4)
        .iter()
        .map(|q| text_form(&base, q))
        .collect();
    for n in 0..64 {
        commit_fresh(&mut base, n);
    }
    let at = |epoch: u64| {
        let view = base.ledger().view(EpochId(epoch)).expect("epoch exists");
        texts
            .iter()
            .map(|t| plan_signature(&view, t))
            .collect::<Vec<_>>()
    };
    let first = at(0);
    for epoch in 1..=64 {
        assert_eq!(at(epoch), first, "a plan changed at epoch {epoch}");
    }
}

/// The variables `tp` mentions.
fn pattern_vars(tp: &TriplePattern) -> Vec<&str> {
    let mut vars = Vec::new();
    for term in [&tp.subject, &tp.object] {
        if let TermPattern::Var(v) = term {
            vars.push(v.as_str());
        }
    }
    if let Path::Var(v) = &tp.path {
        vars.push(v.as_str());
    }
    vars
}

/// The steps of `text`'s WHERE-group BGPs that share no variable with
/// what is already bound, past each BGP's first step, other than
/// `?x rdf:type <C>` scans.
fn cross_products<G: GraphView>(view: &G, text: &str) -> Vec<String> {
    let parsed = parse_query(text).expect("template text parses");
    let plan = plan_query(view, &parsed);
    let mut bound: Vec<&str> = Vec::new();
    let mut found = Vec::new();
    for (element, planned) in parsed
        .where_pattern
        .elements
        .iter()
        .zip(&plan.root.elements)
    {
        match (element, planned) {
            (GroupElement::Bind(_, v), _) => bound.push(v),
            (GroupElement::Triples(patterns), ElementPlan::Bgp(bgp)) => {
                for (n, step) in bgp.steps.iter().enumerate() {
                    let tp = &patterns[step.pattern];
                    let vars = pattern_vars(tp);
                    let class_scan = matches!(
                        (&tp.path, &tp.object),
                        (Path::Iri(p), TermPattern::Iri(_)) if p == rdf::TYPE
                    );
                    if n > 0 && !class_scan && !vars.iter().any(|v| bound.contains(v)) {
                        found.push(format!("step {} {tp:?}", n + 1));
                    }
                    bound.extend(vars);
                }
            }
            _ => {}
        }
    }
    found
}

/// The planner makes no cross product while a joining pattern is left
/// (DESIGN.md "Query planning"). A prepared plan is made once on the base
/// and serves every later epoch, so CQ1's ecosystem scan must wait for
/// the characteristic it joins on even where its estimate is the
/// smallest: on the world at epoch 0 and at the head of a 64-commit
/// chain, no CQ1–CQ3 step after a BGP's first shares no bound variable,
/// class scans aside.
#[test]
fn no_cq_plan_pairs_rows_with_an_unjoined_scan() {
    let mut base = world400();
    let texts: Vec<String> = cq_questions(base.kg(), 4)
        .iter()
        .map(|q| text_form(&base, q))
        .collect();
    let check = |base: &EngineBase, epoch: u64| {
        let view = base.ledger().view(EpochId(epoch)).expect("epoch exists");
        for text in &texts {
            let found = cross_products(&view, text);
            assert!(found.is_empty(), "epoch {epoch}: {found:?} in\n{text}");
        }
    };
    check(&base, 0);
    for n in 0..64 {
        commit_fresh(&mut base, n);
    }
    check(&base, 64);
}
