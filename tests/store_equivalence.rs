//! Differential store equivalence: the mmap-backed disk store is a
//! *representation* change, never a semantics change. For seeded
//! synthetic KGs, an engine reopened from a persistent store
//! (`EngineBase::save_to` → `EngineBase::open`) must answer every
//! CQ1–CQ3 explanation and every probe query byte-identically to a
//! freshly built in-memory engine. Commits
//! replay through the WAL to the same epochs, the same layer sizes, and
//! the same tamper-evidence hashes; compaction folds the WAL without
//! perturbing a single byte of any answer.

use feo::core::ecosystem::{apply_hypothesis, assert_question};
use feo::core::{EngineBase, EpochId, ExplainOptions, Hypothesis, Question, ToJson};
use feo::foodkg::{
    random_profiles, synthetic, user_to_rdf, FoodKg, Season, SyntheticConfig, SystemContext,
    UserProfile,
};
use feo::ontology::ns::sparql_prologue;
use feo::rdf::GraphStore;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A unique, self-cleaning store directory per proptest case.
fn store_dir(tag: &str, recipes: usize, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "feo-store-eq-{tag}-{}-{recipes}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn world(recipes: usize, seed: u64) -> (FoodKg, UserProfile) {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 10,
        seed,
        ..Default::default()
    });
    let user = random_profiles(&kg, 1, seed)
        .pop()
        .unwrap_or_else(|| UserProfile::new("u"))
        .likes(&[&kg.recipes[0].id]);
    (kg, user)
}

/// Builds the memory reference and its disk twin: one throwaway build
/// persists the store, a *fresh* build stays purely in memory (no
/// store attached), and `open` memory-maps the persisted segment.
fn twin_engines(
    kg: &FoodKg,
    user: &UserProfile,
    dir: &Path,
) -> Result<(EngineBase, EngineBase), TestCaseError> {
    let ctx = SystemContext::new(Season::Autumn);
    let mut builder = EngineBase::new(kg.clone(), user.clone(), ctx)
        .map_err(|e| TestCaseError::fail(format!("build: {e}")))?;
    builder
        .save_to(dir)
        .map_err(|e| TestCaseError::fail(format!("save_to: {e}")))?;
    drop(builder);

    let mem = EngineBase::new(kg.clone(), user.clone(), SystemContext::new(Season::Autumn))
        .map_err(|e| TestCaseError::fail(format!("rebuild: {e}")))?;
    let disk = EngineBase::open(
        dir,
        kg.clone(),
        user.clone(),
        SystemContext::new(Season::Autumn),
    )
    .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
    prop_assert!(disk.store().is_some(), "open attaches the disk store");
    Ok((mem, disk))
}

/// The paper's three competency questions over the generated recipes.
fn cq_questions(kg: &FoodKg) -> Vec<Question> {
    vec![
        Question::WhyEat {
            food: kg.recipes[0].id.clone(),
        },
        Question::WhyEatOver {
            preferred: kg.recipes[0].id.clone(),
            alternative: kg.recipes[1 % kg.recipes.len()].id.clone(),
        },
        Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
    ]
}

/// Join-heavy probe queries with real rows at epoch 0 (the CQ
/// templates themselves bind per-session question individuals, which
/// `explain_fingerprint` covers through the session path).
fn probe_queries() -> Vec<String> {
    let p = sparql_prologue();
    vec![
        format!(
            "{p}SELECT ?r ?i ?n WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:hasIngredient ?i .\n\
               ?i food:hasNutrient ?n .\n\
             }} ORDER BY ?r ?i ?n"
        ),
        format!("{p}SELECT ?r ?n WHERE {{ ?r (food:hasIngredient/food:hasNutrient) ?n }} ORDER BY ?r ?n"),
    ]
}

/// Everything observable about one explanation: the rendered sentence,
/// the supporting statements, the raw binding rows, and the serialized
/// JSON the HTTP service would ship.
fn explain_fingerprint(
    base: &EngineBase,
    epoch: EpochId,
    question: &Question,
) -> Result<String, TestCaseError> {
    let e = base
        .explain_as_of(epoch, question, &ExplainOptions::default())
        .map_err(|e| TestCaseError::fail(format!("explain_as_of: {e}")))?;
    Ok(format!(
        "{}|{:?}|{:?}|{}",
        e.answer,
        e.statements,
        e.bindings.rows,
        e.to_json()
    ))
}

/// A raw query's full serialized result through an epoch session.
fn query_fingerprint(
    base: &EngineBase,
    epoch: EpochId,
    sparql: &str,
) -> Result<String, TestCaseError> {
    let session = base
        .at_epoch(epoch)
        .ok_or_else(|| TestCaseError::fail(format!("epoch {} off the chain", epoch.0)))?;
    let result = session
        .query(sparql)
        .map_err(|e| TestCaseError::fail(format!("query: {e}")))?;
    Ok(result.to_json())
}

/// One comparable line per history row — the whole chain including the
/// tamper-evidence hashes.
fn history_fingerprint(base: &EngineBase) -> Vec<String> {
    base.history()
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{}|{}|{}|{:016x}",
                c.epoch.0, c.label, c.triples, c.terms, c.inferred, c.hash
            )
        })
        .collect()
}

/// The same seeded ABox delta `tests/ledger.rs` commits: a newcomer
/// profile, a hypothesis, and a question individual.
fn write_delta(g: &mut impl GraphStore, kg: &FoodKg, user: &UserProfile, seed: u64) {
    let newcomer = random_profiles(kg, 1, seed ^ 0xBEEF)
        .pop()
        .unwrap_or_else(|| UserProfile::new("newcomer"));
    user_to_rdf(&newcomer, g);
    let hypothesis = match seed % 3 {
        0 => Hypothesis::Pregnant,
        1 => Hypothesis::FollowedDiet("Vegan".into()),
        _ => Hypothesis::AllergicTo("Broccoli".into()),
    };
    apply_hypothesis(&hypothesis, user, g);
    assert_question(
        &Question::WhyEat {
            food: format!("R{}", seed % 7),
        },
        g,
    );
}

/// Asserts the two backends are observably indistinguishable at every
/// epoch on the chain: closure size, dictionary size, history chain,
/// every CQ explanation, and every probe query.
fn assert_twins_equal(
    mem: &EngineBase,
    disk: &EngineBase,
    kg: &FoodKg,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        mem.graph().len(),
        disk.graph().len(),
        "{}: base size",
        label
    );
    prop_assert_eq!(
        mem.graph().term_count(),
        disk.graph().term_count(),
        "{}: dictionary size",
        label
    );
    prop_assert_eq!(mem.head(), disk.head(), "{}: head epoch", label);
    prop_assert_eq!(
        history_fingerprint(mem),
        history_fingerprint(disk),
        "{}: history chain (labels, sizes, hashes)",
        label
    );
    for epoch in (0..=mem.head().0).map(EpochId) {
        for q in cq_questions(kg) {
            prop_assert_eq!(
                explain_fingerprint(mem, epoch, &q)?,
                explain_fingerprint(disk, epoch, &q)?,
                "{}: {:?} diverged at epoch {}",
                label,
                q,
                epoch.0
            );
        }
        for sparql in probe_queries() {
            prop_assert_eq!(
                query_fingerprint(mem, epoch, &sparql)?,
                query_fingerprint(disk, epoch, &sparql)?,
                "{}: query diverged at epoch {}:\n{}",
                label,
                epoch.0,
                sparql
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Epoch 0 over the mmap segment answers byte-identically to the
    /// freshly materialized in-memory graph.
    #[test]
    fn sealed_base_is_byte_identical_across_backends(
        recipes in 10usize..24,
        seed in 0u64..10_000,
    ) {
        let (kg, user) = world(recipes, seed);
        let dir = store_dir("base", recipes, seed);
        let (mem, disk) = twin_engines(&kg, &user, &dir)?;
        assert_twins_equal(&mem, &disk, &kg, "sealed base")?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same commit chain applied to both backends lands on the
    /// same epochs, hashes, and answers — and a *third* engine that
    /// replays the WAL from disk (warm reopen) matches both.
    #[test]
    fn committed_chains_replay_identically(
        recipes in 10usize..24,
        seed in 0u64..10_000,
        commits in 1usize..4,
    ) {
        let (kg, user) = world(recipes, seed);
        let dir = store_dir("chain", recipes, seed);
        let (mut mem, mut disk) = twin_engines(&kg, &user, &dir)?;

        for i in 0..commits {
            let delta_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E37);
            let mem_epoch = mem.commit_with("delta", |overlay| {
                write_delta(overlay, &kg, &user, delta_seed);
            });
            let disk_epoch = disk.commit_with("delta", |overlay| {
                write_delta(overlay, &kg, &user, delta_seed);
            });
            prop_assert_eq!(mem_epoch, disk_epoch, "commit {} epoch", i);
        }
        assert_twins_equal(&mem, &disk, &kg, "committed chain")?;

        // Warm reopen: the WAL-appended commits replay from disk.
        let reopened = EngineBase::open(
            &dir,
            kg.clone(),
            user.clone(),
            SystemContext::new(Season::Autumn),
        )
        .map_err(|e| TestCaseError::fail(format!("reopen: {e}")))?;
        assert_twins_equal(&mem, &reopened, &kg, "warm reopen")?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction folds the WAL into a fresh segment without changing
    /// the head's answers — before, after, and after yet another
    /// reopen of the compacted store.
    #[test]
    fn compaction_preserves_head_answers(
        recipes in 10usize..20,
        seed in 0u64..10_000,
    ) {
        let (kg, user) = world(recipes, seed);
        let dir = store_dir("compact", recipes, seed);
        let (mut mem, mut disk) = twin_engines(&kg, &user, &dir)?;
        mem.commit_with("delta", |overlay| write_delta(overlay, &kg, &user, seed));
        disk.commit_with("delta", |overlay| write_delta(overlay, &kg, &user, seed));

        let head = disk.head();
        let before: Vec<String> = cq_questions(&kg)
            .iter()
            .map(|q| explain_fingerprint(&disk, head, q))
            .collect::<Result<_, _>>()?;

        disk.compact().map_err(|e| TestCaseError::fail(format!("compact: {e}")))?;
        prop_assert_eq!(disk.head(), EpochId(0), "compaction reseals the chain");
        prop_assert_eq!(disk.history().len(), 1, "history collapses to the new base");

        let after: Vec<String> = cq_questions(&kg)
            .iter()
            .map(|q| {
                explain_fingerprint(&disk, EpochId(0), q)
            })
            .collect::<Result<_, _>>()?;
        prop_assert_eq!(&before, &after, "compaction changed a head answer");

        // The in-memory engine's head agrees with the compacted base.
        let mem_head: Vec<String> = cq_questions(&kg)
            .iter()
            .map(|q| explain_fingerprint(&mem, mem.head(), q))
            .collect::<Result<_, _>>()?;
        prop_assert_eq!(&before, &mem_head, "compacted store diverged from memory head");

        let reopened = EngineBase::open(
            &dir,
            kg.clone(),
            user.clone(),
            SystemContext::new(Season::Autumn),
        )
        .map_err(|e| TestCaseError::fail(format!("reopen compacted: {e}")))?;
        let again: Vec<String> = cq_questions(&kg)
            .iter()
            .map(|q| {
                explain_fingerprint(&reopened, EpochId(0), q)
            })
            .collect::<Result<_, _>>()?;
        prop_assert_eq!(&before, &again, "reopened compacted store diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
