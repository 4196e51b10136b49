//! Filter placement and the correlated sub-pattern cache are
//! optimisations, never semantics:
//!
//! - a plan that runs each FILTER where its variables are final returns
//!   the byte-identical, row-ordered table (or the same error) as the
//!   same plan with every filter at group end, on a memory base, an mmap
//!   segment and an overlay;
//! - an `EXISTS` or `OPTIONAL` evaluated once per distinct key agrees,
//!   row by row, with an independent oracle that runs the sub-pattern as
//!   a query of its own with the row's bindings in `VALUES`;
//! - rows an `OPTIONAL` replays from its cache are charged to the
//!   solution budget.

use feo::core::ecosystem::{apply_hypothesis, assemble, assert_question};
use feo::core::queries::{contextual_query, contrastive_query, counterfactual_query};
use feo::core::{Hypothesis, Question};
use feo::foodkg::{synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::{feo as feo_ns, sparql_prologue};
use feo::owl::{MaterializeOptions, Reasoner};
use feo::rdf::disk::segment::{write_segment, Segment};
use feo::rdf::governor::Budget;
use feo::rdf::{Graph, GraphStore, GraphView, Overlay, Term};
use feo::sparql::plan::{ElementPlan, GroupPlan};
use feo::sparql::{
    execute_prepared, parse_query, plan_query, query, QueryOptions, QueryResult, SolutionTable,
    SparqlError,
};
use proptest::prelude::*;

/// A seeded world: generated, assembled and closed, before any what-if.
fn base_world(recipes: usize, seed: u64) -> (FoodKg, UserProfile, Graph) {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 10,
        seed,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let mut g = assemble(&kg, &user, &SystemContext::new(Season::Autumn));
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded materialization converges");
    (kg, user, g)
}

/// The hypotheses CQ3 asks about and the questions CQ1 / CQ2 read.
fn what_if(g: &mut impl GraphStore, kg: &FoodKg, user: &UserProfile) {
    for hypothesis in hypotheses(kg) {
        apply_hypothesis(&hypothesis, user, g);
    }
    for question in questions(kg) {
        assert_question(&question, g);
    }
}

fn hypotheses(kg: &FoodKg) -> Vec<Hypothesis> {
    vec![
        Hypothesis::Pregnant,
        Hypothesis::FollowedDiet("Vegan".into()),
        Hypothesis::AllergicTo(kg.ingredients[1].id.clone()),
    ]
}

fn questions(kg: &FoodKg) -> Vec<Question> {
    vec![
        Question::WhyEat {
            food: kg.recipes[1].id.clone(),
        },
        Question::WhyEatOver {
            preferred: kg.recipes[1].id.clone(),
            alternative: kg.recipes[2].id.clone(),
        },
    ]
}

/// The base with the what-if delta folded in and fully re-closed.
fn closed_what_if(base: &Graph, kg: &FoodKg, user: &UserProfile) -> Graph {
    let mut g = base.clone();
    what_if(&mut g, kg, user);
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded materialization converges");
    g
}

/// The what-if delta on an overlay over the base, closed from the delta.
fn overlay_what_if<'b>(base: &'b Graph, kg: &FoodKg, user: &UserProfile) -> Overlay<&'b Graph> {
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut base.clone());
    let mut overlay = Overlay::new(base);
    what_if(&mut overlay, kg, user);
    reasoner
        .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
        .expect("unguarded delta closure converges");
    overlay
}

/// CQ1–CQ3 as the engine asks them, then the edge cases of placement.
fn placement_queries(kg: &FoodKg) -> Vec<String> {
    let p = sparql_prologue();
    let ing0 = FoodKg::iri(&kg.ingredients[0].id);
    let mut out: Vec<String> = questions(kg)
        .iter()
        .map(|q| match q {
            Question::WhyEat { .. } => contextual_query(q),
            _ => contrastive_query(q),
        })
        .collect();
    out.push(counterfactual_query(feo_ns::PREGNANCY_STATE));
    out.push(counterfactual_query(&FoodKg::iri("Vegan")));
    out.push(counterfactual_query(&FoodKg::iri(&kg.ingredients[1].id)));
    out.extend([
        // A FILTER before and after a BIND: both wait for the BIND.
        format!(
            "{p}SELECT ?r ?c ?k ?i WHERE {{\n\
               ?r food:calories ?c .\n\
               FILTER (?c > 300) .\n\
               BIND (?c * 2 AS ?k) .\n\
               FILTER (?k < 1400) .\n\
               ?r food:hasIngredient ?i .\n\
             }}"
        ),
        // A filter that would drop every row before the BIND raises its
        // "would rebind" error: the error must survive placement.
        format!(
            "{p}SELECT ?r ?k WHERE {{\n\
               ?r food:calories ?c .\n\
               OPTIONAL {{ ?r food:priceTier ?k }}\n\
               FILTER (?c > 100000) .\n\
               BIND (1 AS ?k) .\n\
             }}"
        ),
        // !BOUND over an OPTIONAL variable: runs after the OPTIONAL.
        format!(
            "{p}SELECT ?i ?s WHERE {{\n\
               ?i a food:Ingredient .\n\
               OPTIONAL {{ ?i food:availableInSeason ?s }}\n\
               FILTER (!BOUND(?s)) .\n\
             }}"
        ),
        // A filter inside an OPTIONAL on an outer variable: runs on the
        // OPTIONAL's input.
        format!(
            "{p}SELECT ?r ?c ?i WHERE {{\n\
               ?r food:calories ?c .\n\
               OPTIONAL {{ ?r food:hasIngredient ?i . FILTER (?c > 500) }}\n\
             }}"
        ),
        // EXISTS under ||, placed before a later, unrelated join.
        format!(
            "{p}SELECT ?r ?c ?t WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:calories ?c .\n\
               FILTER (?c < 200 || EXISTS {{ ?r food:hasIngredient <{ing0}> }}) .\n\
               ?r food:priceTier ?t .\n\
             }}"
        ),
        // Nested EXISTS.
        format!(
            "{p}SELECT ?r WHERE {{\n\
               ?r a food:Recipe .\n\
               FILTER EXISTS {{\n\
                 ?r food:hasIngredient ?i .\n\
                 FILTER NOT EXISTS {{ ?i food:availableInSeason ?s }}\n\
               }}\n\
             }}"
        ),
        // An EXISTS key unbound in some rows (?s after the OPTIONAL).
        format!(
            "{p}SELECT ?i ?s WHERE {{\n\
               ?i a food:Ingredient .\n\
               OPTIONAL {{ ?i food:availableInSeason ?s }}\n\
               FILTER EXISTS {{ ?r food:hasIngredient ?i . ?i food:availableInSeason ?s }}\n\
             }}"
        ),
        // A filter in a UNION arm, one over the union, and a MINUS.
        format!(
            "{p}SELECT ?r ?x WHERE {{\n\
               ?r a food:Recipe .\n\
               {{ ?r food:calories ?x . FILTER (?x > 400) }} UNION {{ ?r food:priceTier ?x }}\n\
               FILTER (?r != <{ing0}>) .\n\
               MINUS {{ ?r food:hasIngredient <{ing0}> }}\n\
             }}"
        ),
    ]);
    out
}

/// Removes every filter placement from a plan's tree: every filter runs
/// at group end.
fn clear_placement(plan: &mut GroupPlan) {
    plan.filters.clear();
    for el in &mut plan.elements {
        match el {
            ElementPlan::Group(p) | ElementPlan::Optional(p) | ElementPlan::Minus(p) => {
                clear_placement(p)
            }
            ElementPlan::Union(arms) => arms.iter_mut().for_each(clear_placement),
            ElementPlan::Bgp(_) | ElementPlan::Leaf => {}
        }
    }
}

/// A table, or the error, rendered for byte comparison.
fn outcome(result: Result<QueryResult, SparqlError>) -> Result<SolutionTable, String> {
    result
        .map(QueryResult::expect_solutions)
        .map_err(|e| e.to_string())
}

/// Runs every placement query with its plan and with the same plan's
/// placement cleared; returns how many plans moved a filter.
fn assert_placement_invisible<G: GraphView + Copy>(view: G, kg: &FoodKg, backend: &str) -> usize {
    let opts = QueryOptions::default();
    let mut moved = 0;
    for text in placement_queries(kg) {
        let q = parse_query(&text).expect("placement query parses");
        let plan = plan_query(&view, &q);
        let mut cleared = plan.clone();
        clear_placement(&mut cleared.root);
        cleared.exists.iter_mut().for_each(clear_placement);
        let placed = outcome(execute_prepared(view, &q, &plan, &opts));
        let at_end = outcome(execute_prepared(view, &q, &cleared, &opts));
        assert_eq!(placed, at_end, "{backend}: placement changed:\n{text}");
        if plan
            .root
            .filters
            .iter()
            .any(|&(point, _)| point < q.where_pattern.elements.len())
        {
            moved += 1;
        }
    }
    moved
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Placement is invisible on a memory base, an mmap segment and an
    /// overlay, and it does move filters on the CQ shapes.
    #[test]
    fn placement_is_byte_identical(recipes in 15usize..35, seed in 0u64..10_000) {
        let (kg, user, base) = base_world(recipes, seed);
        let memory = closed_what_if(&base, &kg, &user);
        let moved = assert_placement_invisible(&memory, &kg, "memory");
        prop_assert!(moved >= 3, "only {} plans moved a filter", moved);

        let path = std::env::temp_dir().join(format!(
            "feo-filter-placement-{}-{recipes}-{seed}.seg",
            std::process::id()
        ));
        write_segment(&path, &memory, memory.stats(), 0).expect("segment writes");
        let segment = Segment::open(&path, true).expect("segment opens");
        assert_placement_invisible(&segment, &kg, "mmap");
        drop(segment);
        let _ = std::fs::remove_file(&path);

        let overlay = overlay_what_if(&base, &kg, &user);
        assert_placement_invisible(&overlay, &kg, "overlay");
    }

    /// Every cached EXISTS and OPTIONAL agrees row by row with the
    /// sub-pattern run as its own query.
    #[test]
    fn cached_sub_patterns_match_the_values_oracle(
        recipes in 15usize..35,
        seed in 0u64..10_000,
    ) {
        let (kg, user, base) = base_world(recipes, seed);
        let world = overlay_what_if(&base, &kg, &user);
        for case in oracle_cases(&kg) {
            check_case(&world, &case);
        }
    }
}

/// One correlated sub-pattern `sub` over an outer pattern `outer`.
struct Case {
    /// Variables of `outer`, all projected.
    outer_vars: Vec<&'static str>,
    outer: String,
    /// Variables only `sub` binds (projected for OPTIONAL).
    sub_vars: Vec<&'static str>,
    sub: String,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Exists,
    NotExists,
    Optional,
}

fn oracle_cases(kg: &FoodKg) -> Vec<Case> {
    let vegan = FoodKg::iri("Vegan");
    let cq3_outer = format!(
        "<{vegan}> ?property ?baseFood . \
         ?property rdfs:subPropertyOf feo:isCharacteristicOf . \
         ?baseFood a food:Food ."
    );
    let ing0 = FoodKg::iri(&kg.ingredients[0].id);
    vec![
        // CQ3's NOT EXISTS and OPTIONAL.
        Case {
            outer_vars: vec!["property", "baseFood"],
            outer: cq3_outer.clone(),
            sub_vars: vec!["subp"],
            sub: "?subp rdfs:subPropertyOf ?property .".into(),
            kind: Kind::NotExists,
        },
        Case {
            outer_vars: vec!["property", "baseFood"],
            outer: cq3_outer,
            sub_vars: vec!["inheritedFood"],
            sub: "?baseFood food:isIngredientOf ?inheritedFood .".into(),
            kind: Kind::Optional,
        },
        // CQ1's leaf-class NOT EXISTS.
        Case {
            outer_vars: vec!["c", "classes"],
            outer: "?c a ?classes . ?classes rdfs:subClassOf feo:Characteristic .".into(),
            sub_vars: vec!["sub"],
            sub: "?sub rdfs:subClassOf ?classes .".into(),
            kind: Kind::NotExists,
        },
        // A key unbound in some rows.
        Case {
            outer_vars: vec!["i", "s"],
            outer: "?i a food:Ingredient . OPTIONAL { ?i food:availableInSeason ?s }".into(),
            sub_vars: vec!["r"],
            sub: "?r food:hasIngredient ?i . ?i food:availableInSeason ?s .".into(),
            kind: Kind::Exists,
        },
        // A nested NOT EXISTS inside the sub-pattern.
        Case {
            outer_vars: vec!["r"],
            outer: "?r a food:Recipe .".into(),
            sub_vars: vec!["i", "s"],
            sub: "?r food:hasIngredient ?i . \
                  FILTER NOT EXISTS { ?i food:availableInSeason ?s }"
                .into(),
            kind: Kind::Exists,
        },
        // Many rows sharing few keys, several extensions per key, and a
        // filter on an outer variable inside the OPTIONAL.
        Case {
            outer_vars: vec!["r", "i"],
            outer: "?r food:hasIngredient ?i .".into(),
            sub_vars: vec!["s"],
            sub: format!("?i food:availableInSeason ?s . FILTER (?i != <{ing0}>)"),
            kind: Kind::Optional,
        },
    ]
}

fn vars_list(vars: &[&str]) -> String {
    vars.iter()
        .map(|v| format!("?{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn solutions<G: GraphView>(view: G, text: &str) -> SolutionTable {
    query(view, text, &QueryOptions::default())
        .unwrap_or_else(|e| panic!("{e}:\n{text}"))
        .expect_solutions()
}

/// `VALUES` pinning the outer variables to one outer row.
fn values_row(outer_vars: &[&str], row: &[Option<Term>]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|t| t.as_ref().map_or("UNDEF".to_string(), Term::to_string))
        .collect();
    format!(
        "VALUES ({}) {{ ({}) }}",
        vars_list(outer_vars),
        cells.join(" ")
    )
}

fn check_case<G: GraphView + Copy>(view: G, case: &Case) {
    let p = sparql_prologue();
    let outer_vars = vars_list(&case.outer_vars);
    let outer_rows = solutions(
        view,
        &format!("{p}SELECT {outer_vars} WHERE {{ {} }}", case.outer),
    )
    .rows;
    match case.kind {
        Kind::Exists | Kind::NotExists => {
            let negated = matches!(case.kind, Kind::NotExists);
            let not = if negated { "NOT " } else { "" };
            let engine = solutions(
                view,
                &format!(
                    "{p}SELECT {outer_vars} WHERE {{ {} FILTER {not}EXISTS {{ {} }} }}",
                    case.outer, case.sub
                ),
            );
            let mut expected = Vec::new();
            for row in outer_rows {
                let ask = format!(
                    "{p}ASK {{ {} {} }}",
                    values_row(&case.outer_vars, &row),
                    case.sub
                );
                let found = query(view, &ask, &QueryOptions::default())
                    .unwrap_or_else(|e| panic!("{e}:\n{ask}"))
                    .expect_boolean();
                if found != negated {
                    expected.push(row);
                }
            }
            assert_eq!(engine.rows, expected, "{not}EXISTS diverged:\n{}", case.sub);
        }
        Kind::Optional => {
            let all_vars: Vec<&str> = case
                .outer_vars
                .iter()
                .chain(&case.sub_vars)
                .copied()
                .collect();
            let all = vars_list(&all_vars);
            let engine = solutions(
                view,
                &format!(
                    "{p}SELECT {all} WHERE {{ {} OPTIONAL {{ {} }} }}",
                    case.outer, case.sub
                ),
            );
            let mut engine_rows = engine.rows.into_iter();
            for row in outer_rows {
                let extensions = solutions(
                    view,
                    &format!(
                        "{p}SELECT {all} WHERE {{ {} {} }}",
                        values_row(&case.outer_vars, &row),
                        case.sub
                    ),
                );
                let mut expected = extensions.rows;
                if expected.is_empty() {
                    let mut unextended = row.clone();
                    unextended.resize(all_vars.len(), None);
                    expected.push(unextended);
                }
                let mut got: Vec<_> = engine_rows.by_ref().take(expected.len()).collect();
                // The oracle may join the sub-pattern in another order;
                // per row, the extensions are a set.
                got.sort();
                expected.sort();
                assert_eq!(got, expected, "OPTIONAL diverged on {row:?}:\n{}", case.sub);
            }
            assert!(engine_rows.next().is_none(), "OPTIONAL produced extra rows");
        }
    }
}

/// 100 rows share one OPTIONAL key with five extensions: the one fresh
/// evaluation produces 5 rows and the cache replays 495, which the
/// budget must see.
#[test]
fn budget_trips_on_rows_replayed_from_the_optional_cache() {
    let mut g = Graph::new();
    for i in 0..100 {
        g.insert_iris(&format!("http://e/s{i}"), "http://e/p", "http://e/k");
    }
    for j in 0..5 {
        g.insert_iris("http://e/k", "http://e/q", &format!("http://e/v{j}"));
    }
    let text = "SELECT * WHERE { ?s <http://e/p> ?k OPTIONAL { ?k <http://e/q> ?v } }";
    let unguarded = solutions(&g, text);
    assert_eq!(unguarded.rows.len(), 500);

    // 100 outer rows + 5 fresh extensions stay far below 300; only the
    // replayed rows can trip it.
    let tight = Budget::new().with_max_solutions(300);
    let guard = tight.start();
    match query(&g, text, &QueryOptions::guarded(&guard)) {
        Err(SparqlError::Exhausted(_)) => {}
        other => panic!("replayed rows escaped the budget: {other:?}"),
    }

    let roomy = Budget::new().with_max_solutions(1_000);
    let guard = roomy.start();
    let table = query(&g, text, &QueryOptions::guarded(&guard))
        .expect("a roomy budget completes")
        .expect_solutions();
    assert_eq!(table, unguarded);
}
