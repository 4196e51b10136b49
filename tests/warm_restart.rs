//! Warm restart: a persisted store reopens via mmap *without*
//! re-running materialization and answers CQ1–CQ3 byte-identically to
//! the engine that saved it — in the same process (structural
//! assertions on the reopened engine) and across real process
//! boundaries (the `feo` binary, each invocation a fresh process).

use std::path::PathBuf;
use std::process::Command;

use feo::core::{EngineBase, EpochId, ExplainOptions, Hypothesis, Question, ToJson};
use feo::foodkg::{curated, Season, SystemContext, UserProfile};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("feo-warm-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn paper_user() -> UserProfile {
    UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup", "LentilSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
}

fn cqs() -> Vec<Question> {
    vec![
        Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        },
        Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        },
        Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
    ]
}

fn fingerprint(base: &EngineBase, epoch: EpochId, q: &Question) -> String {
    let e = base
        .explain_as_of(epoch, q, &ExplainOptions::default())
        .expect("epoch on chain");
    format!(
        "{}|{:?}|{:?}|{}",
        e.answer,
        e.statements,
        e.bindings.rows,
        e.to_json()
    )
}

/// Same process: save, reopen, and prove the reopened engine (a) never
/// ran the reasoner and (b) answers every CQ at every epoch
/// byte-identically.
#[test]
fn reopened_engine_skips_materialization_and_answers_identically() {
    let dir = tmp_dir("inproc");
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    let mut original = EngineBase::new(curated(), paper_user(), ctx).expect("consistent");
    original.commit_with("pregnant", |overlay| {
        feo::core::ecosystem::apply_hypothesis(&Hypothesis::Pregnant, &paper_user(), overlay);
    });
    original.save_to(&dir).expect("save");
    assert!(
        original.inference().rounds > 0,
        "the cold build ran the reasoner"
    );

    let reopened = EngineBase::open(
        &dir,
        curated(),
        paper_user(),
        SystemContext::new(Season::Autumn).region("Florida"),
    )
    .expect("open");

    // No materialization on the warm path: zero reasoner rounds, yet
    // the inferred-triple bookkeeping carries over exactly.
    assert_eq!(
        reopened.inference().rounds,
        0,
        "warm open must not re-run materialization"
    );
    assert_eq!(reopened.inference().added, original.inference().added);
    assert!(reopened.inference().converged);
    assert!(reopened.store().is_some(), "store stays attached");

    // Same chain, same sizes, same hashes.
    assert_eq!(reopened.head(), original.head());
    let fp = |b: &EngineBase| {
        b.history()
            .iter()
            .map(|c| {
                format!(
                    "{}|{}|{}|{}|{:016x}",
                    c.epoch.0, c.label, c.triples, c.inferred, c.hash
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(fp(&reopened), fp(&original));

    // Byte-identical CQ1–CQ3 at every epoch.
    for epoch in (0..=original.head().0).map(EpochId) {
        for q in cqs() {
            assert_eq!(
                fingerprint(&reopened, epoch, &q),
                fingerprint(&original, epoch, &q),
                "{q:?} diverged at epoch {}",
                epoch.0
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compaction carries the base's hash instead of rehashing the base it
/// writes: after `compact` and two more commits, epoch 0's hash and the
/// history of every later commit equal a cold open's of the same store.
#[test]
fn compacted_chain_hashes_as_a_cold_open() {
    let dir = tmp_dir("compact-hash");
    let ctx = || SystemContext::new(Season::Autumn).region("Florida");
    let mut engine = EngineBase::new(curated(), paper_user(), ctx()).expect("consistent");
    engine.save_to(&dir).expect("save");
    let commit = |engine: &mut EngineBase, name: &str, hypothesis: Hypothesis| {
        let user = UserProfile::new(name);
        engine.commit_with(name, |overlay| {
            feo::core::ecosystem::apply_hypothesis(&hypothesis, &user, overlay);
        });
    };
    commit(&mut engine, "before", Hypothesis::Pregnant);
    engine.compact().expect("compact");
    commit(
        &mut engine,
        "vegan",
        Hypothesis::FollowedDiet("Vegan".into()),
    );
    commit(&mut engine, "nuts", Hypothesis::AllergicTo("Peanut".into()));
    assert_eq!(engine.head(), EpochId(2), "both commits made a layer");

    let reopened = EngineBase::open(&dir, curated(), paper_user(), ctx()).expect("open");
    let base_hash = |b: &EngineBase| b.ledger().hash_at(EpochId(0));
    assert_eq!(base_hash(&engine), base_hash(&reopened));
    let history = |b: &EngineBase| {
        b.history()
            .iter()
            .map(|c| {
                let (epoch, label, hash) = (c.epoch.0, &c.label, c.hash);
                format!(
                    "{epoch}|{label}|{}|{}|{}|{hash:016x}",
                    c.triples, c.terms, c.inferred
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(history(&engine), history(&reopened));
    assert_eq!(reopened.ledger().verify_chain(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- fresh-process restarts (the real contract) ------------------------

fn feo(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_feo"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

/// One fixed profile for every invocation — the store is bootstrapped
/// with it, so memory and disk answer for the same world.
const PROFILE: [&str; 6] = [
    "--likes",
    "BroccoliCheddarSoup,LentilSoup",
    "--allergies",
    "Broccoli",
    "--diet",
    "Vegetarian",
];

/// The CLI invocations whose stdout must be bitwise stable across
/// restarts: one per competency question, plus a query.
fn cli_probes() -> Vec<Vec<String>> {
    let with_profile = |mut v: Vec<String>| -> Vec<String> {
        v.extend(PROFILE.iter().map(|s| s.to_string()));
        v
    };
    vec![
        with_profile(vec![
            "explain".into(),
            "why-eat".into(),
            "CauliflowerPotatoCurry".into(),
        ]),
        with_profile(vec![
            "explain".into(),
            "why-over".into(),
            "ButternutSquashSoup".into(),
            "BroccoliCheddarSoup".into(),
        ]),
        with_profile(vec!["explain".into(), "what-if-pregnant".into()]),
        with_profile(vec![
            "query".into(),
            "SELECT ?r ?i WHERE { ?r food:hasIngredient ?i } ORDER BY ?r ?i".into(),
        ]),
    ]
}

fn run_probes(store: Option<&str>, label: &str) -> Vec<String> {
    cli_probes()
        .iter()
        .map(|probe| {
            let mut args: Vec<&str> = probe.iter().map(String::as_str).collect();
            if let Some(dir) = store {
                args.push("--store");
                args.push(dir);
            }
            let (stdout, stderr, ok) = feo(&args);
            assert!(ok, "{label}: {args:?} failed: {stderr}");
            stdout
        })
        .collect()
}

/// Bootstrap the store in one process, then re-answer everything from
/// the mmap in fresh processes — every stdout byte-identical to the
/// memory-only runs, before and after `feo compact`.
#[test]
fn fresh_process_restart_is_byte_identical() {
    let dir = tmp_dir("cli");
    let store = dir.to_string_lossy().to_string();

    // Memory reference (no store), then a bootstrap pass (cold build +
    // save on first probe, warm opens after), then a pure warm pass in
    // fresh processes. All byte-identical.
    let memory = run_probes(None, "memory");
    let bootstrap = run_probes(Some(&store), "bootstrap");
    assert!(
        dir.join("MANIFEST").exists(),
        "first pass persisted the store"
    );
    let warm = run_probes(Some(&store), "warm");
    assert_eq!(
        memory, bootstrap,
        "store-backed answers diverged from memory"
    );
    assert_eq!(memory, warm, "restarted process answered differently");

    // Append an epoch to the WAL, replay it in a fresh process.
    let (h1, _, ok) = feo(&["history", "--store", &store, "--commit", "pregnant"]);
    assert!(ok);
    let (h2, _, ok) = feo(&["history", "--store", &store]);
    assert!(ok);
    assert_eq!(h1, h2, "WAL replay changed the chain the committer saw");
    assert!(h2.contains("pregnant"), "committed epoch persisted");

    // Compaction folds the committed epoch into a new base segment;
    // the head the probes answer at is semantically unchanged, so
    // their stdout must not move by a byte.
    let committed = run_probes(Some(&store), "committed");
    let (out, stderr, ok) = feo(&["compact", "--store", &store]);
    assert!(ok, "compact failed: {stderr}");
    assert!(out.contains("compacted"), "compact reported nothing: {out}");
    let after = run_probes(Some(&store), "post-compact");
    assert_eq!(committed, after, "compaction changed an answer");
    let _ = std::fs::remove_dir_all(&dir);
}
