//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - reasoner derivation tracking off vs. on;
//! - explanation-pipeline cost split: assemble vs. materialize vs. query.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use feo_bench::synthetic_fixture;
use feo_core::ecosystem::{assemble, assert_question};
use feo_core::{queries, Question};
use feo_owl::{Reasoner, ReasonerOptions};
use feo_sparql::{query, QueryOptions};

fn bench_pipeline_phases(c: &mut Criterion) {
    let (kg, user, ctx) = synthetic_fixture(200);
    let mut group = c.benchmark_group("ablation_pipeline_phases");
    group.sample_size(10);

    group.bench_function("phase1_assemble", |b| {
        b.iter(|| black_box(assemble(&kg, &user, &ctx)))
    });

    let assembled = assemble(&kg, &user, &ctx);
    group.bench_function("phase2_materialize", |b| {
        b.iter(|| {
            let mut g = assembled.clone();
            black_box(Reasoner::new().materialize(&mut g, &Default::default()))
        })
    });

    let question = Question::WhyEat {
        food: kg.recipes[1].id.clone(),
    };
    let mut materialized = assembled.clone();
    assert_question(&question, &mut materialized);
    Reasoner::new()
        .materialize(&mut materialized, &Default::default())
        .expect("materialize");
    let q = queries::contextual_query(&question);
    group.bench_function("phase3_query", |b| {
        b.iter(|| black_box(query(&materialized, &q, &QueryOptions::default()).expect("runs")))
    });
    group.finish();
}

fn bench_derivation_tracking(c: &mut Criterion) {
    // The cost of Pellet-style proof recording.
    let (kg, user, ctx) = synthetic_fixture(200);
    let base = assemble(&kg, &user, &ctx);
    let mut group = c.benchmark_group("ablation_derivation_tracking");
    group.sample_size(10);
    for (label, track) in [("untracked", false), ("tracked", true)] {
        let opts = ReasonerOptions {
            track_derivations: track,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut g = base.clone();
                black_box(
                    Reasoner::with_options(opts.clone()).materialize(&mut g, &Default::default()),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_phases, bench_derivation_tracking);
criterion_main!(benches);
