//! Paired measurement of the cost-based planner's gain.
//!
//! Same methodology as `governor_overhead`: wall-clock drift on a shared
//! machine dwarfs the effects being measured, so each comparison
//! tightly interleaves the two arms (drift lands on both alike) and
//! reports the median of per-round ratios.
//!
//! Two experiments:
//!  1. CQ1–CQ3 explanations, cost-based (the plans prepared with the
//!     base — the production hot path) vs. greedy reordering. The contract is
//!     "planned no slower than greedy".
//!  2. An adversarially-authored BGP (the first two patterns share no
//!     variable, so author order opens with a cartesian product) over
//!     the synthetic KG: cost-based vs. author order (contract: ≥ 2×
//!     faster) and vs. greedy.
//!
//! Run with `cargo run --release -p feo-bench --bin planner_gain`;
//! `--smoke` shrinks the rounds for CI.

use std::time::{Duration, Instant};

use feo_bench::synthetic_fixture;
use feo_core::ecosystem::assemble;
use feo_core::{all_scenarios, EngineBase, ExplainOptions, Question, Scenario};
use feo_ontology::ns::sparql_prologue;
use feo_owl::Reasoner;
use feo_rdf::Graph;
use feo_sparql::{query, Planner, QueryOptions};

struct Params {
    warmup: usize,
    repeats: usize,
    pairs: usize,
}

const FULL: Params = Params {
    warmup: 50,
    repeats: 5,
    pairs: 1_500,
};

const SMOKE: Params = Params {
    warmup: 5,
    repeats: 3,
    pairs: 30,
};

fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ratios[ratios.len() / 2]
}

/// Median over `repeats` rounds of the interleaved-pair total-time
/// ratio `run(a) / run(b)`.
fn paired_ratio(params: &Params, mut run: impl FnMut(bool) -> Duration) -> f64 {
    let mut ratios = Vec::with_capacity(params.repeats);
    for repeat in 0..params.repeats {
        let mut a = Duration::ZERO;
        let mut b = Duration::ZERO;
        for pair in 0..params.pairs {
            // Alternate which arm goes first so scheduler noise and
            // frequency scaling land evenly on both.
            if (pair + repeat) % 2 == 0 {
                a += run(true);
                b += run(false);
            } else {
                b += run(false);
                a += run(true);
            }
        }
        ratios.push(a.as_secs_f64() / b.as_secs_f64());
    }
    median(ratios)
}

fn one_explain(base: &EngineBase, question: &Question, planner: Planner) -> Duration {
    let opts = ExplainOptions {
        planner,
        ..Default::default()
    };
    let started = Instant::now();
    std::hint::black_box(base.explain(question, &opts).expect("happy path explains"));
    started.elapsed()
}

/// planned/greedy ratio for one scenario's competency question.
fn measure_explain(scenario: &Scenario, params: &Params) -> f64 {
    let base = EngineBase::new(
        scenario.kg(),
        scenario.user.clone(),
        scenario.context.clone(),
    )
    .expect("consistent");
    for _ in 0..params.warmup {
        one_explain(&base, &scenario.question, Planner::CostBased);
        one_explain(&base, &scenario.question, Planner::Greedy);
    }
    paired_ratio(params, |planned| {
        let planner = if planned {
            Planner::CostBased
        } else {
            Planner::Greedy
        };
        one_explain(&base, &scenario.question, planner)
    })
}

fn one_query(g: &Graph, q: &str, planner: Planner) -> Duration {
    let opts = QueryOptions {
        planner,
        ..Default::default()
    };
    let started = Instant::now();
    std::hint::black_box(query(g, q, &opts).expect("benchmark query runs"));
    started.elapsed()
}

/// Ratio of `a` over `b` on one query.
fn measure_query(g: &Graph, q: &str, a: Planner, b: Planner, params: &Params) -> f64 {
    for _ in 0..params.warmup {
        one_query(g, q, a);
        one_query(g, q, b);
    }
    paired_ratio(params, |first| one_query(g, q, if first { a } else { b }))
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let params = if smoke { SMOKE } else { FULL };
    println!(
        "planner gain, median over {} runs of {} interleaved pairs{}:",
        params.repeats,
        params.pairs,
        if smoke { " (smoke)" } else { "" }
    );

    println!("  CQ explanations, cost-based (prepared plans) vs greedy:");
    for scenario in all_scenarios() {
        let label = scenario.name.split(' ').next().unwrap_or("cq");
        let ratio = measure_explain(&scenario, &params);
        println!(
            "    {label}: planned/greedy = {ratio:.4} ({:+.2}%)",
            (ratio - 1.0) * 100.0
        );
    }

    // The ablation query from DESIGN.md: author order opens with a
    // cartesian product; both planners move the connecting pattern up.
    let (kg, user, ctx) = synthetic_fixture(200);
    let mut g = assemble(&kg, &user, &ctx);
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("materializes");
    let adversarial = format!(
        "{}SELECT ?r ?i ?s WHERE {{\n\
           ?r food:calories ?c .\n\
           ?i food:availableInSeason ?s .\n\
           ?r food:hasIngredient ?i .\n\
           FILTER (?c > 700) .\n\
         }}",
        sparql_prologue()
    );

    println!("  adversarially-ordered BGP (synthetic KG, 200 recipes):");
    let vs_author = measure_query(&g, &adversarial, Planner::CostBased, Planner::Off, &params);
    println!(
        "    planned/author_order = {vs_author:.4} ({:.1}x speedup)",
        1.0 / vs_author
    );
    let vs_greedy = measure_query(
        &g,
        &adversarial,
        Planner::CostBased,
        Planner::Greedy,
        &params,
    );
    println!(
        "    planned/greedy = {vs_greedy:.4} ({:+.2}%)",
        (vs_greedy - 1.0) * 100.0
    );
}
