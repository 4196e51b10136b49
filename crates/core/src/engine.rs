//! The explanation engine — the paper's pipeline end to end.
//!
//! The engine is split along the snapshot + ledger architecture:
//!
//! - [`EngineBase`] assembles the reasoning graph (TBoxes + FoodKG +
//!   user + system context + knowledge records), compiles the OWL rule
//!   set once, materializes the closure once, and seals the result as
//!   epoch 0 of an append-only [`Ledger`]. Committing a session delta
//!   ([`EngineBase::commit`]) appends an immutable layer — with its own
//!   intern spill, its per-commit closure, and a chained
//!   tamper-evidence hash — instead of destructively absorbing it, so
//!   every historical epoch stays addressable:
//!   [`EngineBase::at_epoch`] / [`EngineBase::explain_as_of`] reproduce
//!   old answers byte-identically, and named branches
//!   ([`EngineBase::branch_create`]) fork counterfactual worlds from
//!   any epoch without copying the base closure.
//! - [`Session`] answers questions against a borrowed epoch view.
//!   Question individuals are asserted into a per-session [`Overlay`]
//!   and closed incrementally with the precompiled rules — committed
//!   layers are never touched, so concurrent sessions cannot observe
//!   each other.
//! - [`ExplanationEngine`] is the original single-owner façade: it wraps
//!   an [`EngineBase`] and commits each session's delta as a new epoch,
//!   preserving the accumulate-across-questions behaviour (and proof
//!   trees) of earlier versions while using the incremental closure
//!   underneath.
//!
//! Each `explain` call asserts the question individual, re-closes the
//! view, runs the explanation type's SPARQL template (prepared once with
//! the base, bound to the question by a seed row), and renders the
//! answer — the exact §IV reasoning-then-querying workflow.

use feo_foodkg::{FoodKg, Season, SystemContext, UserProfile};
use feo_ontology::ns::feo;
use feo_owl::{
    CompiledRules, InferenceResult, MaterializeOptions, Reasoner, ReasonerError, ReasonerOptions,
};
use feo_rdf::disk::OpenOptions as StoreOpenOptions;
use feo_rdf::governor::{Budget, Exhausted, Guard};
use feo_rdf::ledger::{diff_views, BaseStore, BranchChain, EpochId, Ledger, LedgerView};
use feo_rdf::pool::map_chunks;
use feo_rdf::{
    DiskStore, GraphView, IdTriple, Overlay, Parallelism, Segment, StoreError, Term, WalRecord,
};

use feo_recommender::{RecommendationSet, TraceStep};
use feo_sparql::{
    execute_prepared, execute_seeded, QueryOptions, QueryResult, SolutionTable, SparqlError,
};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use crate::cache::{PlanCache, PlanCacheStats};
use crate::ecosystem::{apply_hypothesis, assemble, assert_question};
use crate::explanation::{humanize, Explanation};
use crate::knowledge::{records_to_rdf, Population, EVERYDAY_RECORD, SCIENTIFIC_RECORD};
use crate::queries::{Prepared, Templates};
use crate::question::{ExplanationType, Hypothesis, Question};

/// Errors raised by the explanation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The assembled ontology is inconsistent.
    Inconsistent(Vec<String>),
    /// A SPARQL template failed (indicates an engine bug, surfaced rather
    /// than swallowed).
    Sparql(String),
    /// The question references an entity the KG does not know.
    UnknownEntity(String),
    /// Trace-based explanation requested without recommender output.
    MissingRecommendations,
    /// Case-based/statistical explanation requested without a reference
    /// population.
    MissingPopulation,
    /// An execution budget tripped while reasoning or querying (see
    /// [`feo_rdf::governor`]). Catch this to degrade gracefully — or use
    /// [`EngineBase::explain_with_budget`], which does it for you.
    Exhausted(Exhausted),
    /// A time-travel call named an epoch past the ledger head.
    UnknownEpoch(u64),
    /// A branch operation named a branch that was never created.
    UnknownBranch(String),
    /// `branch_create` was given a name already in use (or `"main"`).
    DuplicateBranch(String),
    /// The persistent store failed: I/O, corruption, or an incompatible
    /// on-disk format version (see [`feo_rdf::StoreError`]).
    Store(StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Inconsistent(details) => {
                write!(f, "ontology inconsistent: {}", details.join("; "))
            }
            EngineError::Sparql(e) => write!(f, "competency query failed: {e}"),
            EngineError::UnknownEntity(e) => write!(f, "unknown entity: {e}"),
            EngineError::MissingRecommendations => {
                write!(f, "trace-based explanations need recommender output")
            }
            EngineError::MissingPopulation => {
                write!(
                    f,
                    "case-based/statistical explanations need a reference population"
                )
            }
            EngineError::Exhausted(e) => write!(f, "explanation stopped early: {e}"),
            EngineError::UnknownEpoch(n) => write!(f, "unknown epoch: {n} is past the ledger head"),
            EngineError::UnknownBranch(name) => write!(f, "unknown branch: {name}"),
            EngineError::DuplicateBranch(name) => {
                write!(f, "branch name already in use: {name}")
            }
            EngineError::Store(e) => write!(f, "persistent store: {e}"),
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

impl std::error::Error for EngineError {}

/// Options accepted by the unified explanation entry points
/// ([`EngineBase::explain`] / [`Session::explain`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplainOptions<'a> {
    /// Execution governor checked by incremental closes and SPARQL
    /// evaluation; `None` runs unguarded.
    pub guard: Option<&'a Guard>,
    /// Batch worker count: how many threads
    /// [`EngineBase::explain_batch`] fans a slice of questions across.
    /// Read by `explain_batch*` only — one question always closes and
    /// queries on the thread that asked. A throughput knob: results are
    /// identical at every setting.
    pub parallelism: Parallelism,
}

impl<'a> ExplainOptions<'a> {
    /// Options with only a guard set.
    pub fn guarded(guard: &'a Guard) -> Self {
        ExplainOptions {
            guard: Some(guard),
            parallelism: Parallelism::default(),
        }
    }
}

impl From<SparqlError> for EngineError {
    fn from(e: SparqlError) -> Self {
        match e {
            SparqlError::Exhausted(exhausted) => EngineError::Exhausted(exhausted),
            other => EngineError::Sparql(other.to_string()),
        }
    }
}

impl From<Exhausted> for EngineError {
    fn from(e: Exhausted) -> Self {
        EngineError::Exhausted(e)
    }
}

impl From<ReasonerError> for EngineError {
    fn from(e: ReasonerError) -> Self {
        EngineError::Exhausted(*e.exhausted())
    }
}

/// What a budgeted explanation run could not finish, and why.
///
/// Returned inside [`BudgetedOutcome`] when the shared budget trips
/// partway through a batch: `completed` lists the explanation types that
/// were fully answered before the trip, `skipped` the ones that were not.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The resource that tripped, with spent/limit figures.
    pub exhausted: Exhausted,
    /// Explanation types answered before the budget ran out.
    pub completed: Vec<ExplanationType>,
    /// Explanation types skipped (the one in flight when the budget
    /// tripped, plus everything after it).
    pub skipped: Vec<ExplanationType>,
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = |ts: &[ExplanationType]| -> String {
            if ts.is_empty() {
                "none".to_string()
            } else {
                ts.iter().map(|t| t.label()).collect::<Vec<_>>().join(", ")
            }
        };
        write!(
            f,
            "{}; completed: {}; skipped: {}",
            self.exhausted,
            names(&self.completed),
            names(&self.skipped)
        )
    }
}

/// Result of [`EngineBase::explain_with_budget`]: every explanation that
/// finished within the budget, plus a [`DegradationReport`] when the
/// budget tripped before the batch completed.
#[derive(Debug)]
pub struct BudgetedOutcome {
    pub explanations: Vec<Explanation>,
    /// `None` when every question was answered within the budget.
    pub degradation: Option<DegradationReport>,
}

impl BudgetedOutcome {
    /// True when every requested explanation completed.
    pub fn is_complete(&self) -> bool {
        self.degradation.is_none()
    }
}

/// One line of [`EngineBase::history`]: what a commit added and the
/// chained hash sealing it.
#[derive(Debug, Clone)]
pub struct CommitInfo {
    pub epoch: EpochId,
    /// Provenance label recorded at commit time (`"base"` for epoch 0).
    pub label: String,
    /// Triples this epoch added (the whole closed base for epoch 0).
    pub triples: usize,
    /// Dictionary terms this epoch added.
    pub terms: usize,
    /// How many of the added triples the per-commit closure derived.
    pub inferred: usize,
    /// Chained tamper-evidence hash at this epoch.
    pub hash: u64,
}

/// One line of [`EngineBase::branch_list`].
#[derive(Debug, Clone)]
pub struct BranchInfo {
    pub name: String,
    /// Main-chain epoch the branch forked from.
    pub fork: EpochId,
    /// Commits the branch has made since forking.
    pub commits: usize,
    /// The branch's head epoch (fork + its own commits).
    pub head: EpochId,
    /// Hash of the branch's newest layer (`None` before any commit).
    pub head_hash: Option<u64>,
}

/// Content-level difference between two branch heads, as rendered
/// triples (each view renders through its own dictionary, so diverged
/// id spaces compare correctly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchDiff {
    pub only_in_a: Vec<String>,
    pub only_in_b: Vec<String>,
}

impl BranchDiff {
    /// True when both heads hold exactly the same triples.
    pub fn is_empty(&self) -> bool {
        self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }
}

struct NamedBranch {
    name: String,
    /// Stable non-zero plan-cache chain id (creation order + 1):
    /// partitions this branch's cached ad-hoc plans from the main chain
    /// and from every other branch.
    cache_chain: u64,
    chain: BranchChain,
}

/// Per-commit provenance kept alongside the ledger layers (entry `k`
/// describes epoch `k + 1`).
struct CommitNote {
    label: String,
    inferred: usize,
}

/// The shared, materialized snapshot of the reasoning world — the
/// anchor of an append-only epoch [`Ledger`].
///
/// Built once per (KG, user, context) triple: the graph is assembled,
/// the rule set compiled from the TBox, and the closure materialized as
/// epoch 0. Reads take `&self` — [`EngineBase::explain`] spins up a
/// throwaway [`Session`] per question, so one base behind an `Arc`
/// serves any number of threads concurrently. Commits take `&mut self`
/// and append immutable layers; old epochs stay addressable through
/// [`EngineBase::at_epoch`] and named branches.
pub struct EngineBase {
    kg: FoodKg,
    user: UserProfile,
    ctx: SystemContext,
    /// Epoch 0 (the closed base) plus every committed delta layer.
    ledger: Ledger,
    /// Provenance for each committed layer, parallel to `ledger.layers()`.
    commit_log: Vec<CommitNote>,
    /// Named counterfactual worlds forked from main-chain epochs.
    branches: Vec<NamedBranch>,
    rules: CompiledRules,
    /// Closure statistics and derivations aggregated across the base
    /// and every main-chain commit (branch closures stay branch-local).
    inference: InferenceResult,
    population: Option<Population>,
    recommendations: Option<RecommendationSet>,
    track_proofs: bool,
    /// The competency templates, prepared against the sealed base.
    templates: Templates,
    /// Parsed ad-hoc queries and their cost-based plans, keyed by chain,
    /// epoch and query text (see [`crate::cache`]).
    plan_cache: PlanCache,
    /// Attached persistent store, when the base was opened from or
    /// saved to disk. Commits append WAL records here; a failed append
    /// detaches the store and surfaces as an inference warning rather
    /// than poisoning the in-memory chain.
    store: Option<DiskStore>,
}

impl EngineBase {
    /// Assembles and materializes the reasoning graph.
    pub fn new(kg: FoodKg, user: UserProfile, ctx: SystemContext) -> Result<Self, EngineError> {
        Self::build(kg, user, ctx, false)
    }

    /// Like [`EngineBase::new`], but the reasoner tracks derivations so
    /// [`EngineBase::proof_of_type`] can render Pellet-style proof trees
    /// for inferred classifications.
    pub fn new_with_proofs(
        kg: FoodKg,
        user: UserProfile,
        ctx: SystemContext,
    ) -> Result<Self, EngineError> {
        Self::build(kg, user, ctx, true)
    }

    fn build(
        kg: FoodKg,
        user: UserProfile,
        ctx: SystemContext,
        track_proofs: bool,
    ) -> Result<Self, EngineError> {
        let mut graph = assemble(&kg, &user, &ctx);
        records_to_rdf(&mut graph);
        let reasoner = Self::reasoner(track_proofs);
        // Compile once; sessions only ever add ABox triples, so the rule
        // set stays valid for every incremental close that follows.
        let rules = reasoner.compile(&mut graph);
        // Unguarded materialization cannot trip; keep whatever closure
        // completed if that ever changes.
        let inference = reasoner
            .materialize(&mut graph, &MaterializeOptions::with_rules(&rules))
            .unwrap_or_else(|e| e.into_partial());
        if !inference.is_consistent() {
            return Err(EngineError::Inconsistent(
                inference
                    .inconsistencies
                    .iter()
                    .map(|i| i.detail.clone())
                    .collect(),
            ));
        }
        let templates = Templates::prepare(&graph)?;
        Ok(EngineBase {
            kg,
            user,
            ctx,
            ledger: Ledger::new(graph),
            commit_log: Vec::new(),
            branches: Vec::new(),
            rules,
            inference,
            population: None,
            recommendations: None,
            track_proofs,
            templates,
            plan_cache: PlanCache::default(),
            store: None,
        })
    }

    fn reasoner(track_proofs: bool) -> Reasoner {
        Reasoner::with_options(ReasonerOptions {
            track_derivations: track_proofs,
            ..Default::default()
        })
    }

    /// Adds a reference population (enables case-based and statistical
    /// explanations). The population ABox is closed incrementally — it
    /// is written into an overlay, `materialize_delta` derives its
    /// consequences against the already-closed head, and the delta is
    /// committed as a new epoch — rather than re-running the full
    /// fixpoint. Order-insensitive with
    /// [`EngineBase::with_recommendations`].
    pub fn with_population(mut self, population: Population) -> Self {
        self.commit_with("population", |overlay| population.to_rdf(overlay));
        self.population = Some(population);
        self
    }

    /// Adds recommender output (enables trace-based explanations).
    /// Order-insensitive with [`EngineBase::with_population`].
    pub fn with_recommendations(mut self, set: RecommendationSet) -> Self {
        self.recommendations = Some(set);
        self
    }

    /// Commits a closed session delta as a new epoch on the main chain
    /// and returns its [`EpochId`]. The delta follows the
    /// [`Overlay::into_delta`] contract: spill terms in overlay-id
    /// order (which the ledger layer preserves verbatim, so the delta's
    /// id triples and any derivation records stay valid), triples in
    /// SPO order. `inference` is the per-commit closure that produced
    /// the delta — it is recorded alongside the layer, never recomputed
    /// on replay.
    pub fn commit(
        &mut self,
        spill: Vec<Term>,
        delta: Vec<IdTriple>,
        inference: InferenceResult,
    ) -> EpochId {
        self.commit_labeled("session", spill, delta, inference)
    }

    /// [`EngineBase::commit`] with a provenance label for
    /// [`EngineBase::history`].
    pub fn commit_labeled(
        &mut self,
        label: &str,
        spill: Vec<Term>,
        delta: Vec<IdTriple>,
        inference: InferenceResult,
    ) -> EpochId {
        // Write-ahead: persist the delta before the in-memory commit so
        // a crash after this point replays it on reopen. A failed append
        // detaches the store (the in-memory chain stays authoritative)
        // and surfaces as a warning instead of an error — callers of
        // `commit` hold closed session results that must not be lost.
        if let Some(store) = self.store.take() {
            let rec = WalRecord {
                label: label.to_string(),
                inferred: inference.added as u64,
                terms: spill.clone(),
                triples: delta
                    .iter()
                    .map(|t| {
                        [
                            t[0].index() as u32,
                            t[1].index() as u32,
                            t[2].index() as u32,
                        ]
                    })
                    .collect(),
            };
            match store.append_delta(&rec) {
                Ok(()) => self.store = Some(store),
                Err(e) => self
                    .inference
                    .warnings
                    .push(format!("store detached: WAL append failed: {e}")),
            }
        }
        let epoch = self.ledger.commit(spill, delta);
        self.commit_log.push(CommitNote {
            label: label.to_string(),
            inferred: inference.added,
        });
        self.inference.added += inference.added;
        self.inference.warnings.extend(inference.warnings);
        self.inference
            .inconsistencies
            .extend(inference.inconsistencies);
        self.inference.derivations.extend(inference.derivations);
        // Old epochs' cached plans stay valid (their statistics are
        // frozen with their layers); only the head key moves.
        self.plan_cache.advance_head(epoch.0);
        epoch
    }

    /// Runs `write` against a fresh overlay on the head view, closes
    /// the delta incrementally with the precompiled rules, and commits
    /// the result as a new epoch. The one-stop commit entry point used
    /// by [`EngineBase::with_population`], branch materialization, and
    /// tests.
    pub fn commit_with<F>(&mut self, label: &str, write: F) -> EpochId
    where
        F: for<'v> FnOnce(&mut Overlay<LedgerView<'v>>),
    {
        let (spill, delta, inference) = {
            let mut overlay = Overlay::new(self.ledger.head_view());
            write(&mut overlay);
            let inference = Self::reasoner(self.track_proofs)
                .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&self.rules))
                .unwrap_or_else(|e| e.into_partial());
            let (spill, delta) = overlay.into_delta();
            (spill, delta, inference)
        };
        self.commit_labeled(label, spill, delta, inference)
    }

    /// Hit/miss counters and head epoch of the plan cache for ad-hoc
    /// query text ([`Session::query`]), shared by this base's sessions.
    /// Explanations run prepared templates and never look a plan up.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// The newest committed epoch on the main chain.
    pub fn head(&self) -> EpochId {
        self.ledger.head()
    }

    /// The underlying epoch ledger — layers, hashes, and raw views.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The commit chain, oldest first: epoch 0 (the sealed base) plus
    /// one line per committed layer.
    pub fn history(&self) -> Vec<CommitInfo> {
        let base = self.ledger.base();
        let mut out = vec![CommitInfo {
            epoch: EpochId(0),
            label: "base".to_string(),
            triples: base.len(),
            terms: base.term_count(),
            inferred: self
                .inference
                .added
                .saturating_sub(self.commit_log.iter().map(|n| n.inferred).sum::<usize>()),
            hash: self.ledger.hash_at(EpochId(0)).unwrap_or_default(),
        }];
        for (i, (layer, note)) in self
            .ledger
            .layers()
            .iter()
            .zip(&self.commit_log)
            .enumerate()
        {
            out.push(CommitInfo {
                epoch: EpochId(i as u64 + 1),
                label: note.label.clone(),
                triples: layer.len(),
                terms: layer.term_len(),
                inferred: note.inferred,
                hash: layer.hash(),
            });
        }
        out
    }

    /// Opens a question-answering session over the head epoch. The
    /// session writes only into its private overlay; any number of
    /// sessions can run concurrently over one base.
    pub fn session(&self) -> Session<'_> {
        let epoch = self.ledger.head();
        Session {
            base: self,
            epoch,
            chain: 0,
            overlay: Overlay::new(self.ledger.head_view()),
            inference: InferenceResult::default(),
            guard: None,
        }
    }

    /// Opens a session pinned at a historical epoch — the view stacks
    /// exactly the first `epoch` layers, so answers reproduce what the
    /// engine knew then, byte for byte. `None` past the head.
    ///
    /// Structured side-channels that never lived in the graph
    /// (recommender traces, the population's presence flag) are not
    /// versioned: graph-backed answers are epoch-exact, trace-based
    /// ones reflect the current recommender output.
    pub fn at_epoch(&self, epoch: EpochId) -> Option<Session<'_>> {
        let view = self.ledger.view(epoch)?;
        Some(Session {
            base: self,
            epoch,
            chain: 0,
            overlay: Overlay::new(view),
            inference: InferenceResult::default(),
            guard: None,
        })
    }

    /// Answers `question` exactly as the engine would have at `epoch`:
    /// the session view stacks only the layers committed up to then, so
    /// later commits cannot perturb the answer.
    pub fn explain_as_of(
        &self,
        epoch: EpochId,
        question: &Question,
        opts: &ExplainOptions<'_>,
    ) -> Result<Explanation, EngineError> {
        self.at_epoch(epoch)
            .ok_or(EngineError::UnknownEpoch(epoch.0))?
            .explain(question, opts)
    }

    /// Runs a SPARQL query over a historical epoch's view.
    pub fn query_as_of(&self, epoch: EpochId, sparql: &str) -> Result<QueryResult, EngineError> {
        self.at_epoch(epoch)
            .ok_or(EngineError::UnknownEpoch(epoch.0))?
            .query(sparql)
    }

    // ---- persistent store --------------------------------------------

    /// Saves the main chain into `dir` as a persistent store — the
    /// sealed epoch-0 base as a dictionary-encoded, memory-mappable
    /// segment, every committed layer as one WAL record — and attaches
    /// the store so later commits append to the WAL. Reopen with
    /// [`EngineBase::open`]; fold the WAL back into the segment with
    /// [`EngineBase::compact`]. An existing store in `dir` is
    /// superseded atomically (MANIFEST rename).
    pub fn save_to(&mut self, dir: &Path) -> Result<(), EngineError> {
        let records: Vec<WalRecord> = self
            .ledger
            .layers()
            .iter()
            .zip(&self.commit_log)
            .map(|(layer, note)| WalRecord {
                label: note.label.clone(),
                inferred: note.inferred as u64,
                terms: layer.spill_terms().to_vec(),
                triples: layer.spo_raw().to_vec(),
            })
            .collect();
        let base = self.ledger.base();
        let base_inferred = self
            .inference
            .added
            .saturating_sub(self.commit_log.iter().map(|n| n.inferred).sum::<usize>())
            as u64;
        let store = DiskStore::save(dir, base, base.stats(), base_inferred, &records)?;
        self.store = Some(store);
        Ok(())
    }

    /// Opens a store written by [`EngineBase::save_to`]: the segment is
    /// memory-mapped as the epoch-0 base — no re-assembly, no
    /// re-materialization — and each WAL record replays through
    /// [`Ledger::commit`], reconstructing the same chain (same epochs,
    /// same term ids, same layer hashes), so answers are byte-identical
    /// to the engine that saved it.
    ///
    /// `kg`, `user`, and `ctx` supply the structured side-channels that
    /// never lived in the graph (recipe metadata, the user id, the
    /// season); they must match what the store was built from. Traits
    /// that are not persisted must be re-attached explicitly:
    /// [`EngineBase::mark_population`] for the population flag,
    /// [`EngineBase::with_recommendations`] for recommender output.
    /// Derivations are likewise not persisted, so
    /// [`EngineBase::proof_of_type`] cannot explain typings inferred
    /// before the save. A torn WAL tail is repaired during open and
    /// reported as an inference warning.
    pub fn open(
        dir: &Path,
        kg: FoodKg,
        user: UserProfile,
        ctx: SystemContext,
    ) -> Result<Self, EngineError> {
        let opened = DiskStore::open(dir, StoreOpenOptions::default())?;
        let mut inference = InferenceResult {
            added: opened.segment.base_inferred() as usize,
            converged: true,
            ..Default::default()
        };
        if let Some(e) = &opened.recovered {
            inference.warnings.push(format!("wal recovered: {e}"));
        }
        let mut ledger = Ledger::from_base(BaseStore::Disk(opened.segment.clone()));
        let mut commit_log = Vec::new();
        for rec in &opened.records {
            ledger.commit(rec.terms.clone(), rec.id_triples());
            commit_log.push(CommitNote {
                label: rec.label.clone(),
                inferred: rec.inferred as usize,
            });
            inference.added += rec.inferred as usize;
        }
        // Recompile the rule set from the persisted TBox. The segment
        // dictionary already holds the reasoner's vocabulary (it was
        // interned before the save), so the compile pass normally spills
        // nothing; if it ever does, the spill is committed — and
        // WAL-logged — as its own layer so ids stay aligned on disk.
        let (rules, spill, delta) = {
            let mut overlay = Overlay::new(ledger.head_view());
            let rules = Self::reasoner(false).compile(&mut overlay);
            let (spill, delta) = overlay.into_delta();
            (rules, spill, delta)
        };
        let templates = Templates::prepare(ledger.base())?;
        let plan_cache = PlanCache::default();
        plan_cache.advance_head(ledger.head().0);
        let mut engine = EngineBase {
            kg,
            user,
            ctx,
            ledger,
            commit_log,
            branches: Vec::new(),
            rules,
            inference,
            population: None,
            recommendations: None,
            track_proofs: false,
            templates,
            plan_cache,
            store: Some(opened.store),
        };
        if !spill.is_empty() || !delta.is_empty() {
            engine.commit_labeled("vocab", spill, delta, InferenceResult::default());
        }
        Ok(engine)
    }

    /// Folds every committed layer into a fresh base segment with an
    /// empty WAL — log-structured compaction for the attached store.
    /// The MANIFEST rename publishes the new segment/WAL pair
    /// atomically, so a crash mid-compaction leaves the old pair
    /// intact. Afterwards the in-memory chain re-anchors on the new
    /// segment: history collapses to a single epoch 0, and branches and
    /// cached plans (both keyed by the old chain's epochs) are dropped.
    /// Term ids are preserved by the flatten, so accumulated
    /// derivations stay valid.
    pub fn compact(&mut self) -> Result<(), EngineError> {
        let Some(store) = self.store.as_mut() else {
            return Err(EngineError::Store(StoreError::Corrupt {
                what: "compact without an attached store (open or save_to first)".to_string(),
            }));
        };
        let stats = self
            .ledger
            .layers()
            .iter()
            .fold(self.ledger.base().stats().clone(), |acc, layer| {
                acc.merged_with(layer.stats())
            });
        store.compact(
            &self.ledger.head_view(),
            &stats,
            self.inference.added as u64,
        )?;
        let segment = Segment::open(&store.segment_path(), true)?;
        self.ledger = Ledger::from_base(BaseStore::Disk(Arc::new(segment)));
        self.commit_log.clear();
        self.branches.clear();
        self.plan_cache = PlanCache::default();
        Ok(())
    }

    /// Flags that a reference population is present without committing
    /// anything — for warm-opened stores whose population layer was
    /// already replayed from the WAL. (Committing it again through
    /// [`EngineBase::with_population`] would append a duplicate layer
    /// and shift every later epoch.)
    pub fn mark_population(&mut self, population: Population) {
        self.population = Some(population);
    }

    /// The attached persistent store, when the base was opened from or
    /// saved to disk.
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    // ---- named branches ----------------------------------------------

    fn branch(&self, name: &str) -> Option<&NamedBranch> {
        self.branches.iter().find(|b| b.name == name)
    }

    /// Forks a named branch at `from`. The branch shares the base and
    /// the forked prefix by reference — nothing is copied; it diverges
    /// only through its own commits ([`EngineBase::branch_commit_with`]
    /// / [`EngineBase::branch_apply`]).
    pub fn branch_create(&mut self, name: &str, from: EpochId) -> Result<EpochId, EngineError> {
        if name == "main" || self.branch(name).is_some() {
            return Err(EngineError::DuplicateBranch(name.to_string()));
        }
        let chain = self
            .ledger
            .fork(from)
            .ok_or(EngineError::UnknownEpoch(from.0))?;
        self.branches.push(NamedBranch {
            name: name.to_string(),
            cache_chain: self.branches.len() as u64 + 1,
            chain,
        });
        Ok(from)
    }

    /// Runs `write` against an overlay on the branch's head view,
    /// closes it incrementally, and commits the delta onto the branch's
    /// own chain. The main chain and every other branch are untouched.
    pub fn branch_commit_with<F>(&mut self, name: &str, write: F) -> Result<EpochId, EngineError>
    where
        F: for<'v> FnOnce(&mut Overlay<LedgerView<'v>>),
    {
        let track = self.track_proofs;
        let rules = &self.rules;
        let ledger = &self.ledger;
        let branch = self
            .branches
            .iter_mut()
            .find(|b| b.name == name)
            .ok_or_else(|| EngineError::UnknownBranch(name.to_string()))?;
        let (spill, delta) = {
            let mut overlay = Overlay::new(ledger.branch_view(&branch.chain));
            write(&mut overlay);
            Self::reasoner(track)
                .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(rules))
                .map(|_| ())
                .unwrap_or_else(|e| {
                    let _ = e.into_partial();
                });
            overlay.into_delta()
        };
        Ok(ledger.commit_branch(&mut branch.chain, spill, delta))
    }

    /// Applies a hypothesis as a commit on the named branch — the
    /// branch-world form of a counterfactual session: the hypothesis
    /// ABox is closed incrementally against the branch head and the
    /// result appended to the branch chain.
    pub fn branch_apply(
        &mut self,
        name: &str,
        hypothesis: &Hypothesis,
    ) -> Result<EpochId, EngineError> {
        let user = self.user.clone();
        self.branch_commit_with(name, |overlay| {
            apply_hypothesis(hypothesis, &user, overlay);
        })
    }

    /// Opens a session over the named branch's head view. Its ad-hoc
    /// queries share the base's plan cache through their own key
    /// partition — `(branch id, branch epoch, query)` — so they never
    /// collide with the main epoch of the same number.
    pub fn branch_session(&self, name: &str) -> Option<Session<'_>> {
        let branch = self.branch(name)?;
        Some(Session {
            base: self,
            epoch: branch.chain.head(),
            chain: branch.cache_chain,
            overlay: Overlay::new(self.ledger.branch_view(&branch.chain)),
            inference: InferenceResult::default(),
            guard: None,
        })
    }

    /// Answers a question in a throwaway session over a branch head.
    pub fn explain_on_branch(
        &self,
        name: &str,
        question: &Question,
        opts: &ExplainOptions<'_>,
    ) -> Result<Explanation, EngineError> {
        self.branch_session(name)
            .ok_or_else(|| EngineError::UnknownBranch(name.to_string()))?
            .explain(question, opts)
    }

    /// All branches, in creation order.
    pub fn branch_list(&self) -> Vec<BranchInfo> {
        self.branches
            .iter()
            .map(|b| BranchInfo {
                name: b.name.clone(),
                fork: b.chain.fork_epoch(),
                commits: b.chain.layers().len(),
                head: b.chain.head(),
                head_hash: b.chain.head_hash(),
            })
            .collect()
    }

    fn diff_view<'s>(&'s self, name: &str) -> Result<LedgerView<'s>, EngineError> {
        if name == "main" {
            return Ok(self.ledger.head_view());
        }
        self.branch(name)
            .map(|b| self.ledger.branch_view(&b.chain))
            .ok_or_else(|| EngineError::UnknownBranch(name.to_string()))
    }

    /// Content-level difference between two branch heads (`"main"`
    /// names the main chain): triples only in `a` and triples only in
    /// `b`. The shared base and common prefix cancel out — only
    /// diverged layers contribute.
    pub fn branch_diff(&self, a: &str, b: &str) -> Result<BranchDiff, EngineError> {
        let va = self.diff_view(a)?;
        let vb = self.diff_view(b)?;
        let (only_in_a, only_in_b) = diff_views(&va, &vb);
        Ok(BranchDiff {
            only_in_a,
            only_in_b,
        })
    }

    /// Answers a question in a fresh throwaway session. Takes `&self`,
    /// so explanations can be produced from many threads over one
    /// `Arc<EngineBase>` — and no question can leak state into the next.
    ///
    /// [`ExplainOptions`] carries the execution guard (a trip surfaces
    /// as [`EngineError::Exhausted`] instead of unbounded work).
    pub fn explain<'s>(
        &'s self,
        question: &Question,
        opts: &ExplainOptions<'s>,
    ) -> Result<Explanation, EngineError> {
        self.session().explain(question, opts)
    }

    /// Answers a batch of questions under one shared [`Budget`],
    /// degrading gracefully when it trips.
    ///
    /// One [`Guard`] meters the whole batch — reasoning and querying for
    /// every question draw from the same deadline and budgets. When a
    /// budget trips mid-batch the call still succeeds: the outcome
    /// carries every explanation completed before the trip plus a
    /// [`DegradationReport`] naming the tripped resource and the skipped
    /// explanation types. Non-budget errors (unknown entity, missing
    /// population, engine bugs) abort the batch as a real `Err`.
    pub fn explain_with_budget(
        &self,
        questions: &[Question],
        budget: &Budget,
    ) -> Result<BudgetedOutcome, EngineError> {
        let guard = budget.start();
        let mut explanations = Vec::new();
        let mut completed = Vec::new();
        for (i, question) in questions.iter().enumerate() {
            match self.explain(question, &ExplainOptions::guarded(&guard)) {
                Ok(explanation) => {
                    completed.push(explanation.explanation_type);
                    explanations.push(explanation);
                }
                Err(EngineError::Exhausted(exhausted)) => {
                    let skipped = questions[i..]
                        .iter()
                        .map(Question::explanation_type)
                        .collect();
                    return Ok(BudgetedOutcome {
                        explanations,
                        degradation: Some(DegradationReport {
                            exhausted,
                            completed,
                            skipped,
                        }),
                    });
                }
                Err(other) => return Err(other),
            }
        }
        Ok(BudgetedOutcome {
            explanations,
            degradation: None,
        })
    }

    /// Answers a batch of questions concurrently — one throwaway
    /// [`Session`] per question, all reading this shared snapshot.
    ///
    /// Questions are partitioned contiguously across the worker pool
    /// ([`ExplainOptions::parallelism`], with the `FEO_THREADS` override
    /// honoured by [`Parallelism::Auto`]); each worker answers its slice
    /// in input order and the slices are merged back in input order, so
    /// the result vector is byte-identical to calling
    /// [`EngineBase::explain`] in a loop. Each session closes and
    /// queries on its worker's thread; nothing fans out below the
    /// question.
    ///
    /// A guard in `opts` meters the whole batch. Questions that trip (or
    /// start after the trip) report [`EngineError::Exhausted`] in their
    /// own slot instead of aborting the batch — per-question errors like
    /// [`EngineError::UnknownEntity`] likewise stay in their slot. For
    /// the aggregate completed/skipped view, see
    /// [`EngineBase::explain_batch_with_budget`].
    pub fn explain_batch(
        &self,
        questions: &[Question],
        opts: &ExplainOptions<'_>,
    ) -> Vec<Result<Explanation, EngineError>> {
        map_chunks(opts.parallelism.workers(), questions, |_, chunk| {
            chunk
                .iter()
                .map(|q| self.explain(q, opts))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Parallel counterpart of [`EngineBase::explain_with_budget`]: the
    /// batch fans out across the pool under one shared [`Budget`], and
    /// the outcome aggregates what finished before the budget tripped.
    ///
    /// Unlike the sequential form, workers race the shared budget — so
    /// *which* questions land in `completed` versus `skipped` after a
    /// trip depends on scheduling. The guarantees that do hold at every
    /// worker count: every returned explanation is complete and correct,
    /// `completed` ∪ `skipped` covers the batch exactly once, and a run
    /// whose budget never trips is byte-identical to the sequential
    /// path. Non-budget errors abort with `Err` as before.
    pub fn explain_batch_with_budget(
        &self,
        questions: &[Question],
        budget: &Budget,
        parallelism: Parallelism,
    ) -> Result<BudgetedOutcome, EngineError> {
        let guard = budget.start();
        let opts = ExplainOptions {
            guard: Some(&guard),
            parallelism,
        };
        let results = self.explain_batch(questions, &opts);
        let mut explanations = Vec::new();
        let mut completed = Vec::new();
        let mut skipped = Vec::new();
        let mut exhausted = None;
        for (question, result) in questions.iter().zip(results) {
            match result {
                Ok(explanation) => {
                    completed.push(explanation.explanation_type);
                    explanations.push(explanation);
                }
                Err(EngineError::Exhausted(e)) => {
                    skipped.push(question.explanation_type());
                    exhausted.get_or_insert(e);
                }
                Err(other) => return Err(other),
            }
        }
        Ok(BudgetedOutcome {
            explanations,
            degradation: exhausted.map(|exhausted| DegradationReport {
                exhausted,
                completed,
                skipped,
            }),
        })
    }

    /// Renders the reasoner's proof tree for `individual rdf:type class`
    /// over the head closure. Requires [`EngineBase::new_with_proofs`];
    /// returns `None` when the typing does not hold or was asserted
    /// rather than inferred.
    pub fn proof_of_type(&self, individual_local: &str, class_iri: &str) -> Option<String> {
        let view = self.ledger.head_view();
        let ind = view.lookup_iri(&FoodKg::iri(individual_local))?;
        let ty = view.lookup_iri(feo_rdf::vocab::rdf::TYPE)?;
        let class = view.lookup_iri(class_iri)?;
        if !view.contains_ids(ind, ty, class) {
            return None;
        }
        let node = feo_owl::proof(&self.inference, [ind, ty, class]);
        Some(node.render(&view))
    }

    pub fn inference(&self) -> &InferenceResult {
        &self.inference
    }

    /// The sealed epoch-0 base (TBox + curated ABox + recipe export,
    /// fully closed at build time): an in-memory [`feo_rdf::Graph`] for
    /// a freshly built engine, a memory-mapped [`Segment`] for one
    /// opened from disk. Later commits live in ledger layers stacked on
    /// top — see [`EngineBase::ledger`] for the full head view.
    pub fn graph(&self) -> &BaseStore {
        self.ledger.base()
    }

    /// The rule set compiled from the base TBox, reused by every
    /// incremental close.
    pub fn rules(&self) -> &CompiledRules {
        &self.rules
    }

    pub fn kg(&self) -> &FoodKg {
        &self.kg
    }

    pub fn user(&self) -> &UserProfile {
        &self.user
    }

    pub fn context(&self) -> &SystemContext {
        &self.ctx
    }
}

/// A per-question view over a shared [`EngineBase`], pinned at one
/// epoch of its ledger (the head for [`EngineBase::session`], any
/// historical epoch for [`EngineBase::at_epoch`], a branch head for
/// [`EngineBase::branch_session`]).
///
/// Question individuals (and everything the reasoner derives from them)
/// land in the session's [`Overlay`]; SPARQL templates evaluate over the
/// stacked epoch view + delta. Dropping the session discards the delta.
pub struct Session<'a> {
    base: &'a EngineBase,
    /// The ledger epoch this session's view is pinned at.
    epoch: EpochId,
    /// Plan-cache chain of the epoch: 0 for the main chain, the
    /// branch's id on a branch.
    chain: u64,
    overlay: Overlay<LedgerView<'a>>,
    /// Closure stats and derivations accumulated by this session's
    /// incremental closes (disjoint from the base's own inference).
    inference: InferenceResult,
    /// Execution governor checked by incremental closes and SPARQL
    /// evaluation; `None` on the legacy unguarded path.
    guard: Option<&'a Guard>,
}

impl<'a> Session<'a> {
    /// The base this session reads through.
    pub fn base(&self) -> &'a EngineBase {
        self.base
    }

    /// The ledger epoch this session's view is pinned at.
    pub fn epoch(&self) -> EpochId {
        self.epoch
    }

    /// Inference accumulated by this session's incremental closes.
    pub fn inference(&self) -> &InferenceResult {
        &self.inference
    }

    /// Number of triples in the session delta.
    pub fn delta_len(&self) -> usize {
        self.overlay.delta_len()
    }

    /// Decomposes the session into its overlay and inference — used by
    /// [`ExplanationEngine`] to commit the delta as a ledger epoch.
    pub fn into_parts(self) -> (Overlay<LedgerView<'a>>, InferenceResult) {
        (self.overlay, self.inference)
    }

    fn query_options(&self) -> QueryOptions<'a> {
        QueryOptions {
            guard: self.guard,
            ..Default::default()
        }
    }

    /// Runs a competency template over `view`, its parameters bound to
    /// the IRIs in `args` by a seed row, under the session guard.
    fn run_template<V: GraphView>(
        &self,
        view: V,
        template: &Prepared,
        args: &[&str],
    ) -> Result<SolutionTable, EngineError> {
        let seed: Vec<(&str, Term)> = (template.params.iter().copied())
            .zip(args.iter().map(|iri| Term::iri(*iri)))
            .collect();
        let result = execute_seeded(
            view,
            &template.query,
            &template.plan,
            &seed,
            &self.query_options(),
        )?;
        Ok(result.expect_solutions())
    }

    /// Runs an arbitrary SPARQL query over this session's epoch view
    /// plus its private delta — the entry point behind `/query` and
    /// `feo query --as-of`. The parsed query and its plan come from the
    /// base's plan cache, planned against the session's epoch view.
    pub fn query(&self, sparql: &str) -> Result<QueryResult, EngineError> {
        let (parsed, plan) = self.base.plan_cache.get_or_insert(
            sparql,
            (self.chain, self.epoch.0),
            self.overlay.base(),
        )?;
        Ok(execute_prepared(
            &self.overlay,
            &parsed,
            &plan,
            &self.query_options(),
        )?)
    }

    /// Like [`Session::query`], but under the guard carried by `opts`
    /// (which sticks for the rest of this session, exactly as with
    /// [`Session::explain`]). This is the
    /// request-scoped entry point the HTTP service uses: the guard
    /// carries the request's clamped [`Budget`] and its disconnect
    /// [`feo_rdf::CancelFlag`], so an abandoned or over-budget query
    /// stops with a typed [`EngineError::Exhausted`] instead of
    /// holding its connection thread.
    pub fn query_opts(
        &mut self,
        sparql: &str,
        opts: &ExplainOptions<'a>,
    ) -> Result<QueryResult, EngineError> {
        self.guard = opts.guard;
        self.query(sparql)
    }

    /// Answers a question with the matching explanation type, under the
    /// guard carried by [`ExplainOptions`] (which sticks for the rest of
    /// this session).
    pub fn explain(
        &mut self,
        question: &Question,
        opts: &ExplainOptions<'a>,
    ) -> Result<Explanation, EngineError> {
        self.guard = opts.guard;
        match question {
            Question::WhyEat { food } => self.contextual(question, food),
            Question::WhyEatOver { .. } => self.contrastive(question),
            Question::WhatIf { hypothesis } => self.counterfactual(question, hypothesis),
            Question::WhatSteps { food } => self.trace_based(question, food),
            Question::WhatOtherUsers { food } => self.case_based(question, food),
            Question::WhyGenerally { food } => {
                self.knowledge_based(question, food, EVERYDAY_RECORD, ExplanationType::Everyday)
            }
            Question::WhatLiterature { food } => self.knowledge_based(
                question,
                food,
                SCIENTIFIC_RECORD,
                ExplanationType::Scientific,
            ),
            Question::WhatIfEatenDaily { food } => self.simulation(question, food),
            Question::WhatEvidenceForDiet { diet } => self.statistical(question, diet),
        }
    }

    fn require_recipe(&self, food: &str) -> Result<(), EngineError> {
        if self.base.kg.recipe(food).is_none() && self.base.kg.ingredient(food).is_none() {
            return Err(EngineError::UnknownEntity(food.to_string()));
        }
        Ok(())
    }

    /// Asserts the question into the overlay and re-closes incrementally:
    /// the precompiled rules run semi-naïvely from the delta, which is
    /// equivalent to the paper's full "export with inferred axioms" over
    /// the extended graph because the base is already closed and the
    /// question triples are pure ABox.
    fn assert_and_close(&mut self, question: &Question) -> Result<(), EngineError> {
        assert_question(question, &mut self.overlay);
        let reasoner = EngineBase::reasoner(self.base.track_proofs);
        let opts = MaterializeOptions {
            guard: self.guard,
            rules: Some(&self.base.rules),
        };
        let (inference, tripped) = match reasoner.materialize_delta(&mut self.overlay, &opts) {
            Ok(inference) => (inference, None),
            // Keep the partial closure's statistics: the derived triples
            // are already in the overlay (sound but incomplete), and the
            // degradation report should account for them.
            Err(ReasonerError::Exhausted { exhausted, partial }) => (*partial, Some(exhausted)),
        };
        self.inference.added += inference.added;
        self.inference.rounds += inference.rounds;
        self.inference.warnings.extend(inference.warnings);
        self.inference
            .inconsistencies
            .extend(inference.inconsistencies);
        self.inference.derivations.extend(inference.derivations);
        match tripped {
            Some(exhausted) => Err(EngineError::Exhausted(exhausted)),
            None => Ok(()),
        }
    }

    // ---- CQ1: contextual ---------------------------------------------

    fn contextual(&mut self, question: &Question, food: &str) -> Result<Explanation, EngineError> {
        self.require_recipe(food)?;
        self.assert_and_close(question)?;
        let iri = question.iri();
        let table = self.run_template(&self.overlay, &self.base.templates.contextual, &[&iri])?;

        let mut statements = Vec::new();
        for row in table.local_rows() {
            let (characteristic, class) = (&row[0], &row[1]);
            statements.push(self.contextual_sentence(food, characteristic, class));
        }
        let answer = if statements.is_empty() {
            format!("No external context currently supports {}.", humanize(food))
        } else {
            statements.join(" ")
        };
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::Contextual,
            bindings: table,
            statements,
            answer,
        })
    }

    /// Renders one contextual statement, tracing the characteristic back
    /// through the recipe's ingredients the way the paper's example
    /// answer does ("uses the ingredient Cauliflower, which is available
    /// in the current season").
    fn contextual_sentence(&self, food: &str, characteristic: &str, class: &str) -> String {
        let kg = &self.base.kg;
        let food_h = humanize(food);
        match class {
            "SeasonCharacteristic" => {
                // Which ingredient carries the season?
                let season = Season::ALL
                    .iter()
                    .find(|s| s.name() == characteristic)
                    .copied();
                let carrier = kg.recipe(food).and_then(|r| {
                    r.ingredients.iter().find(|i| {
                        kg.ingredient(i)
                            .zip(season)
                            .map(|(ing, s)| ing.seasons.contains(&s))
                            .unwrap_or(false)
                    })
                });
                match carrier {
                    Some(ing) => format!(
                        "{food_h} uses the ingredient {}, which is available in the current season ({characteristic}).",
                        humanize(ing)
                    ),
                    None => format!(
                        "{food_h} is available in the current season ({characteristic})."
                    ),
                }
            }
            "LocationCharacteristic" => {
                let carrier = kg.recipe(food).and_then(|r| {
                    r.ingredients.iter().find(|i| {
                        kg.ingredient(i)
                            .map(|ing| ing.regions.iter().any(|reg| reg == characteristic))
                            .unwrap_or(false)
                    })
                });
                match carrier {
                    Some(ing) => format!(
                        "{food_h} uses the ingredient {}, which is available in your region ({characteristic}).",
                        humanize(ing)
                    ),
                    None => format!("{food_h} is available in your region ({characteristic})."),
                }
            }
            "BudgetCharacteristic" => {
                format!("{food_h} fits your budget ({}).", humanize(characteristic))
            }
            "TimeCharacteristic" => format!(
                "{food_h} suits the current time ({}).",
                humanize(characteristic)
            ),
            other => format!(
                "{food_h} matches your context through {} ({other}).",
                humanize(characteristic)
            ),
        }
    }

    // ---- CQ2: contrastive ----------------------------------------------

    fn contrastive(&mut self, question: &Question) -> Result<Explanation, EngineError> {
        let Question::WhyEatOver {
            preferred,
            alternative,
        } = question
        else {
            unreachable!("dispatch guarantees the shape");
        };
        self.require_recipe(preferred)?;
        self.require_recipe(alternative)?;
        self.assert_and_close(question)?;
        let iri = question.iri();
        let table = self.run_template(&self.overlay, &self.base.templates.contrastive, &[&iri])?;

        let (mut fact_parts, mut fact_seen) = (Vec::new(), HashSet::new());
        let (mut foil_parts, mut foil_seen) = (Vec::new(), HashSet::new());
        for row in table.local_rows() {
            let (fact_type, fact, foil_type, foil) = (&row[0], &row[1], &row[2], &row[3]);
            // Parameter-typed rows are the question parameters themselves
            // (self-characteristics from preference seeds); their polarity
            // already surfaces through the Liked/Disliked rows.
            if fact_type != "Parameter" {
                let f = self.fact_clause(preferred, fact, fact_type);
                push_unique(&mut fact_parts, &mut fact_seen, f);
            }
            if foil_type != "Parameter" {
                let o = self.foil_clause(alternative, foil, foil_type);
                push_unique(&mut foil_parts, &mut foil_seen, o);
            }
        }
        let mut statements = fact_parts.clone();
        statements.extend(foil_parts.iter().cloned());
        let answer = if fact_parts.is_empty() && foil_parts.is_empty() {
            format!(
                "No decisive facts or foils distinguish {} from {}.",
                humanize(preferred),
                humanize(alternative)
            )
        } else {
            format!(
                "{} is better than {} because {}.",
                humanize(preferred),
                humanize(alternative),
                fact_parts
                    .iter()
                    .chain(foil_parts.iter())
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", and ")
            )
        };
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::Contrastive,
            bindings: table,
            statements,
            answer,
        })
    }

    fn fact_clause(&self, preferred: &str, fact: &str, fact_type: &str) -> String {
        match fact_type {
            "SeasonCharacteristic" => {
                format!("{} is currently in season ({fact})", humanize(preferred))
            }
            "LocationCharacteristic" => format!(
                "{} is available in your region ({fact})",
                humanize(preferred)
            ),
            "LikedFoodCharacteristic" => format!("you like {}", humanize(fact)),
            "NutritionalGoalCharacteristic" => format!(
                "{} advances your goal ({})",
                humanize(preferred),
                humanize(fact)
            ),
            "BudgetCharacteristic" => {
                format!("{} fits your budget", humanize(preferred))
            }
            _ => format!(
                "{} is supported by {} ({})",
                humanize(preferred),
                humanize(fact),
                humanize(fact_type)
            ),
        }
    }

    fn foil_clause(&self, alternative: &str, foil: &str, foil_type: &str) -> String {
        match foil_type {
            "AllergicFoodCharacteristic" => format!(
                "you are allergic to {} in {}",
                humanize(foil),
                humanize(alternative)
            ),
            "DislikedFoodCharacteristic" => format!("you dislike {}", humanize(foil)),
            "SeasonCharacteristic" => format!(
                "{} depends on {}, which is out of season",
                humanize(alternative),
                humanize(foil)
            ),
            "DietCharacteristic" | "Diet" => format!(
                "{} conflicts with your {} diet",
                humanize(alternative),
                humanize(foil)
            ),
            "BudgetCharacteristic" => {
                format!("{} exceeds your budget", humanize(alternative))
            }
            _ => format!(
                "{} is opposed by {} ({})",
                humanize(alternative),
                humanize(foil),
                humanize(foil_type)
            ),
        }
    }

    // ---- CQ3: counterfactual ---------------------------------------------

    fn counterfactual(
        &mut self,
        question: &Question,
        hypothesis: &Hypothesis,
    ) -> Result<Explanation, EngineError> {
        // Counterfactuals reason over a hypothetical world: a throwaway
        // overlay on this session's epoch view (the view is a stack of
        // references — no triples are copied). The hypothesis is pure
        // ABox, so the precompiled rules close it incrementally; the
        // world is discarded when this call returns. For a *persistent*
        // what-if world, use [`EngineBase::branch_create`] +
        // [`EngineBase::branch_apply`] instead.
        let mut world = Overlay::new(self.overlay.base().clone());
        apply_hypothesis(hypothesis, &self.base.user, &mut world);
        assert_question(question, &mut world);
        Reasoner::new().materialize_delta(
            &mut world,
            &MaterializeOptions {
                guard: self.guard,
                rules: Some(&self.base.rules),
            },
        )?;

        let subject_iri = match hypothesis {
            Hypothesis::Pregnant => feo::PREGNANCY_STATE.to_string(),
            Hypothesis::FollowedDiet(d) => FoodKg::iri(d),
            Hypothesis::AllergicTo(i) => FoodKg::iri(i),
        };
        let table =
            self.run_template(&world, &self.base.templates.counterfactual, &[&subject_iri])?;

        let (mut forbidden, mut forbidden_seen) = (Vec::new(), HashSet::new());
        let (mut suggested, mut suggested_seen) = (Vec::new(), HashSet::new());
        for row in table.local_rows() {
            let (property, base, inherited) = (&row[0], &row[1], &row[2]);
            match property.as_str() {
                "forbids" => {
                    push_unique(&mut forbidden, &mut forbidden_seen, humanize(base));
                }
                "recommends" => {
                    let item = if inherited.is_empty() {
                        humanize(base)
                    } else {
                        humanize(inherited)
                    };
                    push_unique(&mut suggested, &mut suggested_seen, item);
                }
                _ => {}
            }
        }

        let mut statements = Vec::new();
        let mut sentences = Vec::new();
        if !forbidden.is_empty() {
            let s = format!(
                "If {}, you would be forbidden from eating {}.",
                hypothesis.describe(),
                forbidden.join(", ")
            );
            statements.push(s.clone());
            sentences.push(s);
        }
        if !suggested.is_empty() {
            let s = format!("You would be suggested to eat {}.", suggested.join(", "));
            statements.push(s.clone());
            sentences.push(s);
        }
        if sentences.is_empty() {
            sentences.push(format!(
                "If {}, your recommendations would not change.",
                hypothesis.describe()
            ));
        }
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::Counterfactual,
            bindings: table,
            statements,
            answer: sentences.join(" "),
        })
    }

    // ---- trace-based -------------------------------------------------------

    fn trace_based(&mut self, question: &Question, food: &str) -> Result<Explanation, EngineError> {
        let set = self
            .base
            .recommendations
            .as_ref()
            .ok_or(EngineError::MissingRecommendations)?;
        let mut statements: Vec<String> = Vec::new();
        if let Some(rec) = set.get(food) {
            statements.push(format!(
                "{} was ranked with score {:.2}.",
                humanize(food),
                rec.score
            ));
            statements.extend(rec.trace.iter().map(TraceStep::to_string));
        } else if let Some(step) = set.elimination(food) {
            statements.push(step.to_string());
        } else {
            return Err(EngineError::UnknownEntity(food.to_string()));
        }
        let answer = format!(
            "Steps that led to the recommendation of {}: {}",
            humanize(food),
            statements.join("; ")
        );
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::TraceBased,
            bindings: SolutionTable::default(),
            statements,
            answer,
        })
    }

    // ---- case-based ---------------------------------------------------------

    fn case_based(&mut self, question: &Question, food: &str) -> Result<Explanation, EngineError> {
        if self.base.population.is_none() {
            return Err(EngineError::MissingPopulation);
        }
        self.require_recipe(food)?;
        let table = self.run_template(
            &self.overlay,
            &self.base.templates.case_based,
            &[&FoodKg::iri(&self.base.user.id), &FoodKg::iri(food)],
        )?;
        let supporters: i64 = table
            .rows
            .first()
            .and_then(|r| r[0].as_ref())
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_integer())
            .unwrap_or(0);
        let statements = vec![format!(
            "{supporters} users who share your diet or goals also like {}.",
            humanize(food)
        )];
        let answer = statements[0].clone();
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::CaseBased,
            bindings: table,
            statements,
            answer,
        })
    }

    // ---- everyday & scientific -------------------------------------------

    fn knowledge_based(
        &mut self,
        question: &Question,
        food: &str,
        record_class: &str,
        explanation_type: ExplanationType,
    ) -> Result<Explanation, EngineError> {
        self.require_recipe(food)?;
        let table = self.run_template(
            &self.overlay,
            &self.base.templates.knowledge_record,
            &[&FoodKg::iri(food), record_class],
        )?;
        let mut statements = Vec::new();
        for row in table.local_rows() {
            let (about, text, source) = (&row[1], &row[2], &row[3]);
            let s = if source.is_empty() {
                format!("{} ({}).", text.trim_end_matches('.'), humanize(about))
            } else {
                format!("{} [{}]", text, source)
            };
            if !statements.contains(&s) {
                statements.push(s);
            }
        }
        let answer = if statements.is_empty() {
            format!("No recorded evidence mentions {}.", humanize(food))
        } else {
            statements.join(" ")
        };
        Ok(Explanation {
            question: question.clone(),
            explanation_type,
            bindings: table,
            statements,
            answer,
        })
    }

    // ---- simulation-based ---------------------------------------------------

    fn simulation(&mut self, question: &Question, food: &str) -> Result<Explanation, EngineError> {
        let kg = &self.base.kg;
        let recipe = kg
            .recipe(food)
            .ok_or_else(|| EngineError::UnknownEntity(food.to_string()))?;
        let weekly = recipe.calories as i64 * 7;
        let nutrients = kg.recipe_nutrients(recipe);
        let categories = kg.recipe_categories(recipe);
        let mut statements = vec![format!(
            "Eating {} every day adds about {} kcal per week ({} kcal per serving).",
            humanize(food),
            weekly,
            recipe.calories
        )];
        if !nutrients.is_empty() {
            statements.push(format!(
                "You would consistently get {}.",
                nutrients
                    .iter()
                    .map(|n| humanize(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let missing: Vec<&str> = ["Protein", "Fiber", "VitaminC"]
            .into_iter()
            .filter(|n| !nutrients.iter().any(|have| have == n))
            .collect();
        if !missing.is_empty() {
            statements.push(format!(
                "A single-dish diet would lack {} — add variety.",
                missing.join(", ")
            ));
        }
        if categories.iter().any(|c| c == "HighCarb") && recipe.calories > 400 {
            statements.push(
                "Daily intake of a calorie-dense, high-carb dish risks exceeding energy needs."
                    .to_string(),
            );
        }
        let answer = statements.join(" ");
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::SimulationBased,
            bindings: SolutionTable::default(),
            statements,
            answer,
        })
    }

    // ---- statistical ----------------------------------------------------------

    fn statistical(&mut self, question: &Question, diet: &str) -> Result<Explanation, EngineError> {
        if self.base.population.is_none() {
            return Err(EngineError::MissingPopulation);
        }
        if self.base.kg.diet(diet).is_none() {
            return Err(EngineError::UnknownEntity(diet.to_string()));
        }
        let table = self.run_template(
            &self.overlay,
            &self.base.templates.statistical,
            &[&FoodKg::iri(diet)],
        )?;
        let get = |row: &Vec<Option<feo_rdf::Term>>, i: usize| -> i64 {
            row.get(i)
                .and_then(|c| c.as_ref())
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_integer())
                .unwrap_or(0)
        };
        let (total, succeeded) = table
            .rows
            .first()
            .map(|r| (get(r, 0), get(r, 1)))
            .unwrap_or((0, 0));
        let statements = vec![format!(
            "Of {total} users following the {} diet, {succeeded} achieved a nutritional goal.",
            humanize(diet)
        )];
        let answer = statements[0].clone();
        Ok(Explanation {
            question: question.clone(),
            explanation_type: ExplanationType::Statistical,
            bindings: table,
            statements,
            answer,
        })
    }
}

/// Appends `item` to `list` unless `seen` already holds it, so a list
/// built by repeated calls is deduplicated in first-seen order in one
/// pass.
fn push_unique(list: &mut Vec<String>, seen: &mut HashSet<String>, item: String) {
    if !seen.contains(&item) {
        seen.insert(item.clone());
        list.push(item);
    }
}

/// The FEO explanation engine — single-owner façade over [`EngineBase`].
///
/// Each [`ExplanationEngine::explain`] call runs a [`Session`] and then
/// commits the session's delta into the owned base, so question
/// individuals and their inferred classifications accumulate exactly as
/// in earlier versions (and [`ExplanationEngine::proof_of_type`] can
/// explain typings derived while answering). For isolated or concurrent
/// question answering use [`EngineBase`] directly.
pub struct ExplanationEngine {
    base: EngineBase,
}

impl ExplanationEngine {
    /// Assembles and materializes the reasoning graph.
    pub fn new(kg: FoodKg, user: UserProfile, ctx: SystemContext) -> Result<Self, EngineError> {
        EngineBase::new(kg, user, ctx).map(|base| ExplanationEngine { base })
    }

    /// Like [`ExplanationEngine::new`], but the reasoner tracks
    /// derivations so [`ExplanationEngine::proof_of_type`] can render
    /// Pellet-style proof trees for inferred classifications.
    pub fn new_with_proofs(
        kg: FoodKg,
        user: UserProfile,
        ctx: SystemContext,
    ) -> Result<Self, EngineError> {
        EngineBase::new_with_proofs(kg, user, ctx).map(|base| ExplanationEngine { base })
    }

    /// Adds a reference population (enables case-based and statistical
    /// explanations).
    pub fn with_population(mut self, population: Population) -> Self {
        self.base = self.base.with_population(population);
        self
    }

    /// Adds recommender output (enables trace-based explanations and the
    /// recommendation deltas in counterfactuals).
    pub fn with_recommendations(mut self, set: RecommendationSet) -> Self {
        self.base = self.base.with_recommendations(set);
        self
    }

    /// Answers a question, then commits the session's delta (question
    /// triples, derived classifications, derivations) as a new epoch on
    /// the base's ledger.
    pub fn explain(&mut self, question: &Question) -> Result<Explanation, EngineError> {
        let mut session = self.base.session();
        let result = session.explain(question, &ExplainOptions::default());
        let (overlay, inference) = session.into_parts();
        let (spill, delta) = overlay.into_delta();
        self.base.commit_labeled("explain", spill, delta, inference);
        result
    }

    /// Renders the reasoner's proof tree for `individual rdf:type class`,
    /// e.g. why Broccoli was classified an `eo:Foil`. Requires
    /// [`ExplanationEngine::new_with_proofs`]; returns `None` when the
    /// typing does not hold or was asserted rather than inferred.
    pub fn proof_of_type(&self, individual_local: &str, class_iri: &str) -> Option<String> {
        self.base.proof_of_type(individual_local, class_iri)
    }

    /// The shared base — e.g. to wrap it in an `Arc` for concurrent
    /// sessions after the stateful phase is over.
    pub fn into_base(self) -> EngineBase {
        self.base
    }

    pub fn base(&self) -> &EngineBase {
        &self.base
    }

    pub fn inference(&self) -> &InferenceResult {
        self.base.inference()
    }

    pub fn graph(&self) -> &BaseStore {
        self.base.graph()
    }

    pub fn kg(&self) -> &FoodKg {
        self.base.kg()
    }

    pub fn user(&self) -> &UserProfile {
        self.base.user()
    }

    pub fn context(&self) -> &SystemContext {
        self.base.context()
    }
}
