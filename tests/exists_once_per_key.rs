//! A correlated sub-pattern costs what its distinct inputs cost: CQ3
//! for a diet evaluates its `NOT EXISTS` group at most once per distinct
//! `?property`, not once per row, counted by `join_counters()` deltas.
//!
//! The operator counters are process-wide, so this file is a test
//! binary of its own with a single test: nothing else running in the
//! process can move them between two readings.

use feo::core::ecosystem::{apply_hypothesis, assemble};
use feo::core::queries::counterfactual_query;
use feo::core::Hypothesis;
use feo::foodkg::{synthetic, FoodKg, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::sparql_prologue;
use feo::owl::{MaterializeOptions, Reasoner};
use feo::rdf::{GraphView, Overlay};
use feo::sparql::{join_counters, query, QueryOptions};

/// Operator executions (nested + hash) while `text` runs, and its rows.
fn operators_and_rows<G: GraphView>(view: G, text: &str) -> (u64, usize) {
    let before = join_counters();
    let table = query(view, text, &QueryOptions::default())
        .unwrap_or_else(|e| panic!("{e}:\n{text}"))
        .expect_solutions();
    let after = join_counters();
    let ops = (after.nested - before.nested) + (after.hash - before.hash);
    (ops, table.rows.len())
}

#[test]
fn cq3_runs_not_exists_once_per_distinct_property() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 120,
        ingredients: 70,
        seed: 1,
        ..Default::default()
    });
    let user = UserProfile::new("u").likes(&[&kg.recipes[0].id]);
    let mut base = assemble(&kg, &user, &SystemContext::new(Season::Autumn));
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut base);
    reasoner
        .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
        .expect("materialize");
    let mut world = Overlay::new(&base);
    apply_hypothesis(&Hypothesis::FollowedDiet("Vegan".into()), &user, &mut world);
    reasoner
        .materialize_delta(&mut world, &MaterializeOptions::with_rules(&rules))
        .expect("delta closure");

    let p = sparql_prologue();
    let vegan = FoodKg::iri("Vegan");
    let bgp = format!(
        "<{vegan}> ?property ?baseFood . \
         ?property rdfs:subPropertyOf feo:isCharacteristicOf . \
         ?baseFood a food:Food ."
    );
    let not_exists = "FILTER NOT EXISTS { ?subp rdfs:subPropertyOf ?property }";
    // What the cache may cost: the BGP's own operators, one OPTIONAL
    // evaluation per distinct ?baseFood the filter keeps, and one
    // NOT EXISTS evaluation per distinct ?property.
    let (bgp_ops, bgp_rows) = operators_and_rows(&world, &format!("{p}SELECT * WHERE {{ {bgp} }}"));
    let (_, properties) = operators_and_rows(
        &world,
        &format!("{p}SELECT DISTINCT ?property WHERE {{ {bgp} }}"),
    );
    let (_, kept_foods) = operators_and_rows(
        &world,
        &format!("{p}SELECT DISTINCT ?baseFood WHERE {{ {bgp} {not_exists} }}"),
    );
    assert!(
        bgp_rows > 10 * properties,
        "the diet must give many rows per property: {bgp_rows} rows, {properties} properties"
    );

    let (cq3_ops, _) = operators_and_rows(&world, &counterfactual_query(&vegan));
    let exists_runs = cq3_ops - bgp_ops - kept_foods as u64;
    assert!(
        (1..=properties as u64).contains(&exists_runs),
        "NOT EXISTS ran {exists_runs} times for {properties} distinct properties \
         over {bgp_rows} rows ({cq3_ops} operators in all)"
    );
}
