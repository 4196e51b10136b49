//! The explanation engine — the paper's pipeline end to end.
//!
//! [`EngineBase`] holds the state and composes the parts; each part
//! lives in one file:
//!
//! - this file: construction ([`EngineBase::new`] assembles, compiles
//!   and materializes the world once and seals it as epoch 0 of an
//!   append-only [`Ledger`]), the one incremental close every commit and
//!   session runs, and the accessors;
//! - `ledger`: commits (each appends an immutable layer with its own
//!   intern spill, its per-commit closure and a chained hash), the
//!   history, and named branches forked from any epoch;
//! - `store`: the disk-store lifecycle ([`EngineBase::save_to`],
//!   [`EngineBase::open`], [`EngineBase::compact`]);
//! - `batch`: many questions over one base, under one shared budget;
//! - `session`: [`Session`], a throwaway overlay over one epoch view
//!   that asserts the question, re-closes incrementally and runs the
//!   explanation type's SPARQL template (prepared once with the base,
//!   bound to the question by a seed row) — the exact §IV
//!   reasoning-then-querying workflow;
//! - `render`: the nine answer renderers.
//!
//! Sessions never write the ledger, so concurrent sessions cannot
//! observe each other. A caller that wants a question's delta on the
//! ledger commits it with [`EngineBase::commit_with`] and
//! [`crate::ecosystem::assert_question`].

mod batch;
mod ledger;
mod render;
mod session;
mod store;

pub use batch::{BudgetedOutcome, DegradationReport};
pub use ledger::{BranchDiff, BranchInfo, CommitInfo};
pub use session::Session;

use feo_foodkg::{FoodKg, SystemContext, UserProfile};
use feo_owl::{
    CompiledRules, InferenceResult, MaterializeOptions, Reasoner, ReasonerError, ReasonerOptions,
};
use feo_rdf::governor::{Exhausted, Guard};
use feo_rdf::ledger::{BaseStore, Ledger};
use feo_rdf::{DiskStore, GraphView, Overlay, Parallelism, StoreError};
use feo_recommender::RecommendationSet;
use feo_sparql::SparqlError;

use crate::cache::{ParseMemo, PlanCacheStats};
use crate::ecosystem::assemble;
use crate::knowledge::{records_to_rdf, Population};
use crate::queries::Templates;
use ledger::{CommitNote, NamedBranch};

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
    /// [`EngineBase::explain_batch_with_budget`], which does it for you.
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
    /// The rules that can derive a triple CQ3 reads: a what-if world is
    /// closed under these alone (see [`Session`]'s counterfactual).
    what_if_rules: CompiledRules,
    /// Closure statistics and derivations aggregated across the base
    /// and every main-chain commit (branch closures stay branch-local).
    inference: InferenceResult,
    population: Option<Population>,
    recommendations: Option<RecommendationSet>,
    track_proofs: bool,
    /// The competency templates, prepared against the sealed base.
    templates: Templates,
    /// Parsed ad-hoc query text (see [`crate::cache`]). Holds no plan,
    /// so no commit, branch or compaction touches it.
    parsed: ParseMemo,
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
        let ledger = Ledger::new(graph);
        Self::seal(kg, user, ctx, ledger, rules, inference, track_proofs)
    }

    /// The one constructor behind [`EngineBase::new`] and
    /// [`EngineBase::open`]: `ledger` holds the closed base (and any
    /// replayed layers), `inference` the closure that produced it. The
    /// templates are prepared against the base here, and the rules a
    /// what-if world needs are chosen from what CQ3 reads on it.
    fn seal(
        kg: FoodKg,
        user: UserProfile,
        ctx: SystemContext,
        ledger: Ledger,
        rules: CompiledRules,
        inference: InferenceResult,
        track_proofs: bool,
    ) -> Result<Self, EngineError> {
        let templates = Templates::prepare(ledger.base())?;
        let view = Overlay::new(ledger.head_view());
        let what_if_rules = match templates.counterfactual.reads(&view) {
            Some(reads) => rules.relevant_to(&reads),
            None => rules.clone(),
        };
        Ok(EngineBase {
            kg,
            user,
            ctx,
            ledger,
            commit_log: Vec::new(),
            branches: Vec::new(),
            rules,
            what_if_rules,
            inference,
            population: None,
            recommendations: None,
            track_proofs,
            templates,
            parsed: ParseMemo::default(),
            store: None,
        })
    }

    fn reasoner(track_proofs: bool) -> Reasoner {
        Reasoner::with_options(ReasonerOptions {
            track_derivations: track_proofs,
            ..Default::default()
        })
    }

    /// Closes `overlay`'s delta incrementally with precompiled `rules`
    /// under `guard` — the close behind every commit, branch commit,
    /// question and counterfactual world. On a trip the sound but
    /// incomplete closure is already in the overlay, and the error
    /// carries its statistics: each caller keeps or drops them.
    fn close<B: GraphView>(
        &self,
        overlay: &mut Overlay<B>,
        rules: &CompiledRules,
        guard: Option<&Guard>,
    ) -> Result<InferenceResult, ReasonerError> {
        let opts = MaterializeOptions {
            guard,
            rules: Some(rules),
        };
        Self::reasoner(self.track_proofs).materialize_delta(overlay, &opts)
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

    /// Flags that a reference population is present without committing
    /// anything — for warm-opened stores whose population layer was
    /// already replayed from the WAL. (Committing it again through
    /// [`EngineBase::with_population`] would append a duplicate layer
    /// and shift every later epoch.)
    pub fn mark_population(&mut self, population: Population) {
        self.population = Some(population);
    }

    /// Hit/miss counters of the memo of parsed ad-hoc query text
    /// ([`Session::query`]), shared by this base's sessions.
    /// Explanations run prepared templates and never look text up.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.parsed.stats()
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
    /// a freshly built engine, a memory-mapped [`feo_rdf::Segment`] for
    /// one opened from disk. Later commits live in ledger layers stacked
    /// on top — see [`EngineBase::ledger`] for the full head view.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::apply_hypothesis;
    use crate::question::Hypothesis;
    use feo_foodkg::{curated, Season};
    use feo_ontology::ns::feo;
    use feo_rdf::GraphStore;
    use std::collections::BTreeSet;

    /// CQ3's read set on the curated KG comes from the template and the
    /// schema: the leaf subproperties of `feo:isCharacteristicOf`, the
    /// ingredient edge of its OPTIONAL and `food:Food`. The polarity
    /// properties are not leaves, so a what-if world is closed under
    /// neither polarity chain nor the `prp-spo1` steps into them: from
    /// an allergy and a new `feo:recommends` edge, every rule derives
    /// both polarity properties and the what-if rules derive neither.
    #[test]
    fn cq3_reads_leaf_properties_and_skips_the_polarity_chains() {
        let user = UserProfile::new("u").likes(&["LentilSoup"]);
        let base = EngineBase::new(curated(), user, SystemContext::new(Season::Autumn))
            .expect("curated is consistent");
        let view = Overlay::new(base.ledger().head_view());
        let reads = (base.templates.counterfactual)
            .reads(&view)
            .expect("CQ3's predicates are bounded");
        let name = |id| view.term_name(id);
        let mut predicates: Vec<String> = reads.predicates.iter().map(|&p| name(p)).collect();
        predicates.sort();
        let classes: Vec<String> = reads.classes.iter().map(|&c| name(c)).collect();
        let expected = [
            "forbids",
            "isIngredientOf",
            "isNutrientOf",
            "recommends",
            "regionOf",
            "seasonOf",
        ];
        assert_eq!(predicates, expected);
        assert_eq!(classes, ["Food"]);

        let polarity = [
            feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
            feo::IS_OPPOSING_CHARACTERISTIC_OF,
        ]
        .map(|iri| view.lookup_iri(iri).expect("in the KG"));
        let derived = |rules: &CompiledRules| {
            let mut world = Overlay::new(base.ledger().head_view());
            let allergy = Hypothesis::AllergicTo("Broccoli".into());
            apply_hypothesis(&allergy, &base.user, &mut world);
            let (fresh, spinach) = (FoodKg::iri("Fresh"), FoodKg::iri("Spinach"));
            world.insert_iris(&fresh, feo::RECOMMENDS, &spinach);
            let asserted = world.delta_len();
            base.close(&mut world, rules, None).expect("unguarded");
            let derived = world.delta_log()[asserted..].iter();
            derived.map(|[_, p, _]| *p).collect::<BTreeSet<_>>()
        };
        let (every, what_if) = (derived(&base.rules), derived(&base.what_if_rules));
        assert!(polarity.iter().all(|p| every.contains(p)));
        assert!(polarity.iter().all(|p| !what_if.contains(p)));
    }
}
