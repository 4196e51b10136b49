//! Paired measurement of epoch-ledger operation costs.
//!
//! Same methodology as `planner_gain`: wall-clock
//! drift on a shared machine dwarfs the effects being measured, so each
//! comparison tightly interleaves the two arms (drift lands on both
//! alike) and reports the median of per-round ratios.
//!
//! Three workloads over a 200-recipe synthetic `EngineBase`:
//!  1. `commit_with` (delta closure + layer freeze + chained hash)
//!     against a throwaway counterfactual explanation of the same kind
//!     of hypothesis delta — the freeze must not dominate the closure;
//!  2. `branch_create` + `branch_apply` against the same throwaway
//!     counterfactual — forking must not copy the base closure, so a
//!     branch commit should cost about one ordinary commit;
//!  3. a join query as of epoch 0 against the same query at a head
//!     sitting on 32 committed layers — the layer stack must not tax
//!     time travel, and per-epoch plan-cache entries serve both.
//!
//! Run with `cargo run --release -p feo-bench --bin ledger_ops`;
//! `--smoke` shrinks the rounds for CI. Results are also written
//! machine-readably to `BENCH_pr6.json` at the repository root.

use std::time::{Duration, Instant};

use feo_bench::synthetic_fixture;
use feo_core::ecosystem::apply_hypothesis;
use feo_core::{EngineBase, EpochId, ExplainOptions, Hypothesis, Question};
use feo_foodkg::UserProfile;
use feo_ontology::ns::sparql_prologue;

struct Params {
    warmup: usize,
    repeats: usize,
    pairs: usize,
}

fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ratios[ratios.len() / 2]
}

/// Median over `repeats` rounds of the interleaved-pair total-time
/// ratio `run(measured) / run(baseline)`.
fn paired_ratio(params: &Params, mut run: impl FnMut(bool) -> Duration) -> f64 {
    let mut ratios = Vec::with_capacity(params.repeats);
    for repeat in 0..params.repeats {
        let mut measured = Duration::ZERO;
        let mut baseline = Duration::ZERO;
        for pair in 0..params.pairs {
            // Alternate which arm goes first so scheduler noise and
            // frequency scaling land evenly on both.
            if (pair + repeat) % 2 == 0 {
                measured += run(true);
                baseline += run(false);
            } else {
                baseline += run(false);
                measured += run(true);
            }
        }
        ratios.push(measured.as_secs_f64() / baseline.as_secs_f64());
    }
    median(ratios)
}

fn fixture() -> (EngineBase, UserProfile) {
    let (kg, user, ctx) = synthetic_fixture(200);
    let base = EngineBase::new(kg, user.clone(), ctx).expect("synthetic world is consistent");
    (base, user)
}

/// A fresh hypothesis per call so every delta is non-empty: repeating
/// one hypothesis would make later deltas no-ops and measure nothing.
fn fresh_hypothesis(counter: &mut usize) -> Hypothesis {
    *counter += 1;
    if (*counter).is_multiple_of(2) {
        Hypothesis::FollowedDiet(format!("BenchDiet{counter}"))
    } else {
        Hypothesis::AllergicTo(format!("BenchIngredient{counter}"))
    }
}

/// One committed epoch: scoped overlay write, delta closure, layer
/// freeze, chained hash.
fn one_commit(base: &mut EngineBase, user: &UserProfile, counter: &mut usize) -> Duration {
    let hypothesis = fresh_hypothesis(counter);
    let started = Instant::now();
    std::hint::black_box(base.commit_with("bench", |overlay| {
        apply_hypothesis(&hypothesis, user, overlay);
    }));
    started.elapsed()
}

/// One throwaway counterfactual: the same kind of hypothesis delta is
/// closed in a session overlay, queried, and dropped — the pre-ledger
/// way of exploring a what-if.
fn one_throwaway(base: &EngineBase, counter: &mut usize) -> Duration {
    let hypothesis = fresh_hypothesis(counter);
    let question = Question::WhatIf { hypothesis };
    let started = Instant::now();
    std::hint::black_box(
        base.explain_as_of(base.head(), &question, &ExplainOptions::default())
            .expect("counterfactual explains"),
    );
    started.elapsed()
}

/// One branch world: fork at head, apply a hypothesis as the branch's
/// own commit. Must not copy the base closure.
fn one_branch(base: &mut EngineBase, counter: &mut usize, names: &mut usize) -> Duration {
    let hypothesis = fresh_hypothesis(counter);
    *names += 1;
    let name = format!("bench-{names}");
    let started = Instant::now();
    let head = base.head();
    base.branch_create(&name, head).expect("fresh name");
    std::hint::black_box(
        base.branch_apply(&name, &hypothesis)
            .expect("branch applies"),
    );
    started.elapsed()
}

fn one_as_of_query(base: &EngineBase, epoch: EpochId, q: &str) -> Duration {
    let started = Instant::now();
    std::hint::black_box(base.query_as_of(epoch, q).expect("query evaluates"));
    started.elapsed()
}

struct Row {
    workload: &'static str,
    ratio: f64,
    contract: f64,
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let (ops, queries) = if smoke {
        (
            Params {
                warmup: 1,
                repeats: 2,
                pairs: 2,
            },
            Params {
                warmup: 1,
                repeats: 2,
                pairs: 4,
            },
        )
    } else {
        (
            Params {
                warmup: 2,
                repeats: 5,
                pairs: 10,
            },
            Params {
                warmup: 3,
                repeats: 5,
                pairs: 20,
            },
        )
    };
    println!(
        "ledger ops, paired-interleaved medians{}:",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut counter = 0usize;
    let mut names = 0usize;

    // 1. Commit vs throwaway counterfactual. The counterfactual does
    // the same delta closure plus a query; the commit does the delta
    // closure plus the layer freeze. Freezing must stay in the same
    // ballpark.
    {
        let (mut base, user) = fixture();
        for _ in 0..ops.warmup {
            one_commit(&mut base, &user, &mut counter);
            one_throwaway(&base, &mut counter);
        }
        let ratio = paired_ratio(&ops, |measured| {
            if measured {
                one_commit(&mut base, &user, &mut counter)
            } else {
                one_throwaway(&base, &mut counter)
            }
        });
        println!("  commit_with / throwaway counterfactual = {ratio:.4}");
        rows.push(Row {
            workload: "commit_vs_throwaway",
            ratio,
            contract: 1.5,
        });
    }

    // 2. Branch fork+apply vs throwaway counterfactual. If forking
    // copied the base closure this ratio would explode; sharing the
    // parent chain keeps it at about one commit.
    {
        let (mut base, _) = fixture();
        for _ in 0..ops.warmup {
            one_branch(&mut base, &mut counter, &mut names);
            one_throwaway(&base, &mut counter);
        }
        let ratio = paired_ratio(&ops, |measured| {
            if measured {
                one_branch(&mut base, &mut counter, &mut names)
            } else {
                one_throwaway(&base, &mut counter)
            }
        });
        println!("  branch fork+apply / throwaway counterfactual = {ratio:.4}");
        rows.push(Row {
            workload: "branch_vs_throwaway",
            ratio,
            contract: 1.5,
        });
    }

    // 3. Time travel under a stack of layers: the same join query as
    // of epoch 0 (no layers in view) vs at a head carrying 32 layers.
    // Old epochs keep their plan-cache entries, so both arms run
    // prepared plans; the stack must not tax either direction much.
    {
        let (mut base, user) = fixture();
        for _ in 0..32 {
            one_commit(&mut base, &user, &mut counter);
        }
        let head = base.head();
        let q = format!(
            "{}SELECT ?r ?i ?n WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:hasIngredient ?i .\n\
               ?i food:hasNutrient ?n .\n\
             }}",
            sparql_prologue()
        );
        for _ in 0..queries.warmup {
            one_as_of_query(&base, EpochId(0), &q);
            one_as_of_query(&base, head, &q);
        }
        let ratio = paired_ratio(&queries, |measured| {
            if measured {
                one_as_of_query(&base, head, &q)
            } else {
                one_as_of_query(&base, EpochId(0), &q)
            }
        });
        println!("  join query at head (+32 layers) / at epoch 0 = {ratio:.4}");
        rows.push(Row {
            workload: "as_of_head_vs_epoch0",
            ratio,
            contract: 2.0,
        });
    }

    // Acceptance contracts. Smoke rounds are too short for the ratios
    // to be meaningful, so a missed contract is a WARN there (and never
    // gates), a FAIL only on full runs.
    let mut pass = true;
    for row in &rows {
        let ok = row.ratio <= row.contract;
        pass &= ok || smoke;
        let verdict = match (ok, smoke) {
            (true, _) => "PASS",
            (false, true) => "WARN",
            (false, false) => "FAIL",
        };
        println!(
            "  {verdict} {}: {:.4} (contract <= {:.2})",
            row.workload, row.ratio, row.contract
        );
    }

    // Machine-readable artifact at the repository root. Smoke runs
    // (CI) skip the write so they never clobber recorded full numbers.
    if smoke {
        println!("  smoke mode: BENCH_pr6.json left untouched");
        return;
    }
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"ratio\": {:.4}, \"contract_max\": {:.2}}}",
                r.workload, r.ratio, r.contract
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ledger_ops\",\n  \"mode\": \"full\",\n  \"baseline\": \"throwaway counterfactual / epoch-0 query\",\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6.json");
    match std::fs::write(out, json) {
        Ok(()) => println!("  wrote {out}"),
        Err(e) => eprintln!("  could not write {out}: {e}"),
    }
    if !pass {
        std::process::exit(1);
    }
}
