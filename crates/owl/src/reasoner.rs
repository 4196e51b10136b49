//! Forward-chaining materializing reasoner.
//!
//! Implements the OWL 2 RL entailment rules the FEO pipeline depends on,
//! replacing the Pellet reasoner the paper used. The paper's workflow is
//! "run the reasoner, export the ontology with the inferred axioms, then
//! run SPARQL over the export" — [`Reasoner::materialize`] is exactly that
//! export step: it adds every derivable triple to the graph in place.
//!
//! ## Rule coverage
//!
//! Schema: subclass/subproperty transitive closure (scm-sco, scm-spo),
//! equivalence as bidirectional subsumption (scm-eqc, scm-eqp).
//!
//! Instance: cax-sco (type inheritance), prp-spo1 (subproperty),
//! prp-inv (inverses), prp-symp (symmetric), prp-trp (transitive),
//! prp-dom/prp-rng (domain/range, including complex class expressions via
//! membership application), prp-spo2 (property chains), prp-fp / prp-ifp
//! (functional → `owl:sameAs`), eq-sym/eq-rep (sameAs propagation and
//! triple replication), cls-int1/2, cls-svf1, cls-hv1/2, cls-avf, cls-oo —
//! realized as generic "satisfies / apply" evaluation of class
//! expressions on each side of every (Sub|Equivalent)ClassOf axiom.
//!
//! Consistency: cax-dw (disjoint classes), prp-pdw (disjoint
//! properties), cls-nothing2, prp-irp (irreflexive), prp-asyp
//! (asymmetric), eq-diff1 (sameAs ∧ differentFrom).
//!
//! ## One algorithm, two seeds
//!
//! Read as a Datalog program (DaRLing's reading of OWL 2 RL), the
//! closure is one semi-naïve fixpoint: every pass joins only the triples
//! added since its last turn against the store. [`Reasoner::materialize`]
//! starts it from an empty closure, with every triple of the graph, the
//! schema closure and the asserted `owl:sameAs` pairs as the seed;
//! [`Reasoner::materialize_delta`] starts it from a closed base, with
//! the overlay's delta triples and the base's `owl:sameAs` pairs as the
//! seed. The instance rules run off a worklist, complex class axioms off
//! per-atom triggers, property chains as a semi-naïve join, and the
//! consistency rules over every fresh triple.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::ops::Range;

use feo_rdf::governor::{Exhausted, Guard, Resource};
use feo_rdf::hash::{FxMap, FxSet};
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{GraphStore, GraphView, Overlay, TermId};

use crate::axiom::{Axiom, ClassExpr, Ontology};
use crate::extract::extract_axioms;

mod relevance;
pub use relevance::ReadSet;

/// Tuning knobs for materialization.
#[derive(Debug, Clone)]
pub struct ReasonerOptions {
    /// Abort after this many outer rounds (safety valve; the fixpoint
    /// normally converges in a handful). Default: 64.
    pub max_rounds: usize,
    /// Record, for every inferred triple, the rule that produced it and
    /// its premise triples — the analogue of Pellet's axiom explanations.
    /// Default: false (costs memory proportional to the inferred set).
    pub track_derivations: bool,
}

impl Default for ReasonerOptions {
    fn default() -> Self {
        ReasonerOptions {
            max_rounds: 64,
            track_derivations: false,
        }
    }
}

/// Why an inferred triple holds: the rule that fired and the premise
/// triples it consumed. Premises that were themselves inferred have their
/// own entries, so chains of `Derivation`s form proof trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// OWL 2 RL rule name (e.g. `cax-sco`, `prp-trp`, `cls`).
    pub rule: &'static str,
    /// The triples this inference consumed.
    pub premises: Vec<[TermId; 3]>,
}

/// A detected inconsistency. The graph is still materialized (all sound
/// derivations are kept); callers decide how to react, mirroring how the
/// paper's pipeline would surface a Pellet inconsistency report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    pub kind: InconsistencyKind,
    /// Human-readable description using local names.
    pub detail: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InconsistencyKind {
    DisjointClassesViolation,
    DisjointPropertiesViolation,
    NothingHasInstance,
    IrreflexiveViolation,
    AsymmetricViolation,
    SameAndDifferent,
}

/// Statistics and findings from one materialization run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Triples added to the graph by inference.
    pub added: usize,
    /// Outer fixpoint rounds used — a function of the input and rule set
    /// alone, so a round budget trips at the same point on every host.
    pub rounds: usize,
    /// Whether the fixpoint actually converged. `false` means the round
    /// cap ([`ReasonerOptions::max_rounds`]) cut the loop short and the
    /// materialized output may be incomplete. The guarded entry points
    /// surface the same condition as a typed
    /// [`Exhausted`] with [`Resource::Rounds`] instead.
    pub converged: bool,
    /// Number of axioms extracted from the graph.
    pub axiom_count: usize,
    /// Extraction warnings (unparseable expressions).
    pub warnings: Vec<String>,
    /// Detected inconsistencies (empty when consistent).
    pub inconsistencies: Vec<Inconsistency>,
    /// Per-triple derivations (populated only with
    /// [`ReasonerOptions::track_derivations`]).
    pub derivations: HashMap<[TermId; 3], Derivation>,
}

impl Default for InferenceResult {
    fn default() -> Self {
        InferenceResult {
            added: 0,
            rounds: 0,
            // An empty run is trivially converged; the engine flips this
            // only when a round cap actually cuts the fixpoint short.
            converged: true,
            axiom_count: 0,
            warnings: Vec::new(),
            inconsistencies: Vec::new(),
            derivations: HashMap::new(),
        }
    }
}

impl InferenceResult {
    pub fn is_consistent(&self) -> bool {
        self.inconsistencies.is_empty()
    }
}

/// Error surface of the guarded materialization entry points.
#[derive(Debug, Clone)]
pub enum ReasonerError {
    /// An execution budget tripped mid-closure. The triples derived up to
    /// that point are already in the graph/overlay (sound but possibly
    /// incomplete), and `partial` carries the statistics for them —
    /// callers can keep the partial materialization or roll the overlay
    /// back.
    Exhausted {
        exhausted: Exhausted,
        partial: Box<InferenceResult>,
    },
}

impl ReasonerError {
    /// The budget trip behind this error.
    pub fn exhausted(&self) -> &Exhausted {
        match self {
            ReasonerError::Exhausted { exhausted, .. } => exhausted,
        }
    }

    /// Unwraps the partial result, discarding the trip. The derived
    /// triples are already in the store, so callers that want
    /// best-effort semantics (keep whatever closure completed) use
    /// `materialize(..).unwrap_or_else(|e| e.into_partial())`.
    pub fn into_partial(self) -> InferenceResult {
        match self {
            ReasonerError::Exhausted { partial, .. } => *partial,
        }
    }
}

/// Options accepted by the unified materialization entry points
/// ([`Reasoner::materialize`] / [`Reasoner::materialize_delta`]).
///
/// - `guard`: charge the closure against an execution [`Guard`]; a trip
///   surfaces as [`ReasonerError::Exhausted`] with the partial result.
/// - `rules`: reuse a [`CompiledRules`] table instead of re-extracting
///   and compiling the TBox on every call (the snapshot + overlay
///   pipeline compiles once per base graph).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeOptions<'a> {
    /// Execution guard; `None` runs unguarded (never errors).
    pub guard: Option<&'a Guard>,
    /// Precompiled rule tables; `None` compiles from the store itself.
    pub rules: Option<&'a CompiledRules>,
}

impl<'a> MaterializeOptions<'a> {
    /// Options with only a guard set.
    pub fn guarded(guard: &'a Guard) -> Self {
        MaterializeOptions {
            guard: Some(guard),
            ..Default::default()
        }
    }

    /// Options with only precompiled rules set.
    pub fn with_rules(rules: &'a CompiledRules) -> Self {
        MaterializeOptions {
            rules: Some(rules),
            ..Default::default()
        }
    }

    /// The precompiled rules, or rules compiled from `g`.
    fn rules_for(&self, g: &mut impl GraphStore) -> Cow<'a, CompiledRules> {
        match self.rules {
            Some(rules) => Cow::Borrowed(rules),
            None => Cow::Owned(CompiledRules::compile(g)),
        }
    }
}

impl fmt::Display for ReasonerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReasonerError::Exhausted { exhausted, partial } => write!(
                f,
                "materialization stopped early: {} ({} triples derived before the trip)",
                exhausted, partial.added
            ),
        }
    }
}

impl std::error::Error for ReasonerError {}

/// The materializing reasoner.
///
/// [`Reasoner::materialize`] recompiles the TBox on every call unless
/// given [`CompiledRules`], so graphs whose schema changes between runs
/// keep working. The snapshot + overlay pipeline instead calls
/// [`Reasoner::compile`] once on the base graph and then
/// [`Reasoner::materialize_delta`] per session overlay: the same
/// closure, seeded with the session's triples instead of the graph's.
#[derive(Debug, Default, Clone)]
pub struct Reasoner {
    options: ReasonerOptions,
}

impl Reasoner {
    pub fn new() -> Self {
        Reasoner::default()
    }

    pub fn with_options(options: ReasonerOptions) -> Self {
        Reasoner { options }
    }

    /// Materializes all derivable triples into `graph` and returns run
    /// statistics. Idempotent: a second run adds nothing.
    ///
    /// This is the semi-naïve closure started from empty: the schema
    /// closure (the transitive `rdfs:subClassOf` / `rdfs:subPropertyOf`
    /// pairs over named classes and properties, so SPARQL can use
    /// single-hop subclass patterns the way the paper's Listing 1 does)
    /// and the asserted `owl:sameAs` pairs are derived first, and every
    /// triple of the graph is the seed.
    ///
    /// Behavior under [`MaterializeOptions`]:
    /// - with `rules`, reuses the precompiled tables; otherwise extracts
    ///   and compiles the TBox first (use [`Reasoner::compile`] to split
    ///   that work out across runs);
    /// - with `guard`, the derived-triple budget is charged per
    ///   inference, the deadline / cancellation flag is polled in every
    ///   hot loop, and a trip surfaces as [`ReasonerError::Exhausted`]
    ///   carrying the partial statistics — triples derived before the
    ///   trip stay in the graph. Unguarded runs never error (round caps
    ///   surface as `converged: false` instead).
    pub fn materialize(
        &self,
        graph: &mut impl GraphStore,
        opts: &MaterializeOptions,
    ) -> Result<InferenceResult, ReasonerError> {
        let rules = opts.rules_for(graph);
        let mut engine = Engine::new(graph, &rules, &self.options, opts.guard);
        for &(a, b) in &rules.initial_same_as {
            engine.note_alias(a, b);
        }
        engine.materialize_schema();
        let seed: Vec<[TermId; 3]> = engine.g.iter_ids().collect();
        settle(engine.run(seed))
    }

    /// Extracts the graph's axioms and compiles them into reusable rule
    /// tables (see [`CompiledRules`]).
    pub fn compile(&self, graph: &mut impl GraphStore) -> CompiledRules {
        CompiledRules::compile(graph)
    }

    /// Semi-naïve incremental re-closure of an overlay whose base is
    /// already materialized: the closure [`Reasoner::materialize`] runs,
    /// seeded with the overlay's delta triples instead of every triple,
    /// so only consequences reachable from them are derived. That is
    /// equivalent to a full re-materialization of `base ∪ delta` when
    ///
    /// - the base was materialized under the same `rules`, and
    /// - the delta contains ABox assertions only (the TBox, and therefore
    ///   `rules`, is unchanged).
    ///
    /// All derived triples land in the overlay's delta; the base is never
    /// touched. Consistency checking is likewise scoped to the delta:
    /// only violations involving delta-affected triples or individuals
    /// are reported.
    ///
    /// The rule tables normally arrive via [`MaterializeOptions::rules`],
    /// compiled once from the base; when absent they are compiled from
    /// the overlay itself (correct, but repeats the TBox work the
    /// snapshot pipeline exists to avoid). With a guard set, a trip
    /// leaves the triples derived so far in the overlay's delta; the
    /// caller decides whether to keep or discard the partial closure.
    pub fn materialize_delta<B: GraphView>(
        &self,
        overlay: &mut Overlay<B>,
        opts: &MaterializeOptions,
    ) -> Result<InferenceResult, ReasonerError> {
        let rules = opts.rules_for(overlay);
        let seed: Vec<[TermId; 3]> = overlay.delta_log().to_vec();
        // Aliases derived in the base closure exist only as `owl:sameAs`
        // triples there; rebuild the alias sets so eq-rep fires when a
        // delta triple touches an aliased individual. On a closed base
        // every re-noted pair is a no-op insert.
        let same_as = overlay.match_pattern(None, Some(rules.same_as), None);
        let mut engine = Engine::new(overlay, &rules, &self.options, opts.guard);
        for [a, _, b] in same_as {
            engine.note_alias(a, b);
        }
        settle(engine.run(seed))
    }
}

/// Maps an engine run's `(result, tripped)` pair onto the guarded
/// entry points' `Result` surface.
fn settle(
    (result, tripped): (InferenceResult, Option<Exhausted>),
) -> Result<InferenceResult, ReasonerError> {
    match tripped {
        None => Ok(result),
        Some(exhausted) => Err(ReasonerError::Exhausted {
            exhausted,
            partial: Box::new(result),
        }),
    }
}

/// Rule tables compiled once from a graph's TBox, reusable across any
/// number of closure runs over stores sharing that graph's id space
/// (the graph itself, or [`Overlay`]s based on it).
///
/// Compilation is the expensive, schema-dependent half of what
/// [`Reasoner::materialize`] used to do on every call: axiom extraction,
/// schema transitive closure, and rule-table indexing. Splitting it out
/// lets the engine answer many per-session deltas against one compiled
/// TBox.
#[derive(Debug, Clone)]
pub struct CompiledRules {
    rdf_type: TermId,
    same_as: TermId,
    /// Named-class superclasses (transitive, irreflexive-by-construction
    /// unless cycles exist, in which case cycle members include each other).
    sup_class: FxMap<TermId, BTreeSet<TermId>>,
    /// Named-property superproperties (transitive).
    sup_prop: FxMap<TermId, BTreeSet<TermId>>,
    inverses: FxMap<TermId, Vec<TermId>>,
    transitive: FxSet<TermId>,
    symmetric: FxSet<TermId>,
    asymmetric: BTreeSet<TermId>,
    functional: FxSet<TermId>,
    inverse_functional: FxSet<TermId>,
    irreflexive: BTreeSet<TermId>,
    domains: FxMap<TermId, Vec<ClassExpr>>,
    ranges: FxMap<TermId, Vec<ClassExpr>>,
    chains: Vec<(Vec<TermId>, TermId)>,
    /// Subclass-like pairs where at least one side is a complex expression.
    complex: Vec<(ClassExpr, ClassExpr)>,
    disjoint_classes: Vec<(ClassExpr, ClassExpr)>,
    disjoint_properties: Vec<(TermId, TermId)>,
    different_from: Vec<(TermId, TermId)>,
    /// Asserted `owl:sameAs` pairs (fed to the alias machinery at the
    /// start of a closure from empty).
    initial_same_as: Vec<(TermId, TermId)>,
    /// Per `complex` axiom (same index), the triggers a new triple can
    /// fire it through.
    complex_triggers: Vec<AxiomTriggers>,
    /// Per `disjoint_classes` pair (same index), the entry points of
    /// both sides in `lhs` and `members`: a new triple matching one
    /// nominates the individuals whose membership in either side it can
    /// have changed.
    disjoint_triggers: Vec<AxiomTriggers>,
    /// The predicates, and the classes of `rdf:type` triples, that some
    /// pass reads back from a closure's fresh triples: the trigger atoms,
    /// the chain steps and the consistency rules' properties.
    watched_predicates: Vec<TermId>,
    watched_classes: Vec<TermId>,
    axiom_count: usize,
    warnings: Vec<String>,
}

impl CompiledRules {
    /// Extracts axioms from the store and compiles them. `&mut` only to
    /// intern the two vocabulary ids every rule needs (`rdf:type`,
    /// `owl:sameAs`); no triples are added.
    pub fn compile(g: &mut impl GraphStore) -> Self {
        let ontology = extract_axioms(g);
        Self::from_ontology(g, &ontology)
    }

    /// Compiles an already-extracted [`Ontology`].
    pub fn from_ontology(g: &mut impl GraphStore, ontology: &Ontology) -> Self {
        let rdf_type = g.intern_iri(rdf::TYPE);
        let same_as = g.intern_iri(owl::SAME_AS);

        let mut sup_class: FxMap<TermId, BTreeSet<TermId>> = FxMap::default();
        let mut sup_prop: FxMap<TermId, BTreeSet<TermId>> = FxMap::default();
        let mut inverses: FxMap<TermId, Vec<TermId>> = FxMap::default();
        let mut transitive = FxSet::default();
        let mut symmetric = FxSet::default();
        let mut asymmetric = BTreeSet::new();
        let mut functional = FxSet::default();
        let mut inverse_functional = FxSet::default();
        let mut irreflexive = BTreeSet::new();
        let mut domains: FxMap<TermId, Vec<ClassExpr>> = FxMap::default();
        let mut ranges: FxMap<TermId, Vec<ClassExpr>> = FxMap::default();
        let mut chains = Vec::new();
        let mut complex = Vec::new();
        let mut disjoint_classes = Vec::new();
        let mut disjoint_properties = Vec::new();
        let mut different_from = Vec::new();
        let mut initial_same_as = Vec::new();

        for (sub, sup) in ontology.subclass_like() {
            match (sub.as_named(), sup.as_named()) {
                (Some(a), Some(b)) => {
                    sup_class.entry(a).or_default().insert(b);
                }
                _ => complex.push((sub.clone(), sup.clone())),
            }
        }

        for axiom in &ontology.axioms {
            match axiom {
                Axiom::SubPropertyOf(a, b) => _ = sup_prop.entry(*a).or_default().insert(*b),
                Axiom::EquivalentProperties(a, b) => {
                    sup_prop.entry(*a).or_default().insert(*b);
                    sup_prop.entry(*b).or_default().insert(*a);
                }
                Axiom::InverseOf(a, b) => {
                    inverses.entry(*a).or_default().push(*b);
                    inverses.entry(*b).or_default().push(*a);
                }
                Axiom::TransitiveProperty(p) => _ = transitive.insert(*p),
                Axiom::SymmetricProperty(p) => _ = symmetric.insert(*p),
                Axiom::AsymmetricProperty(p) => _ = asymmetric.insert(*p),
                Axiom::FunctionalProperty(p) => _ = functional.insert(*p),
                Axiom::InverseFunctionalProperty(p) => _ = inverse_functional.insert(*p),
                Axiom::IrreflexiveProperty(p) => _ = irreflexive.insert(*p),
                Axiom::Domain(p, c) => domains.entry(*p).or_default().push(c.clone()),
                Axiom::Range(p, c) => ranges.entry(*p).or_default().push(c.clone()),
                Axiom::PropertyChain(chain, p) => chains.push((chain.clone(), *p)),
                Axiom::DisjointClasses(a, b) => disjoint_classes.push((a.clone(), b.clone())),
                Axiom::DisjointProperties(a, b) => disjoint_properties.push((*a, *b)),
                Axiom::DifferentFrom(a, b) => different_from.push((*a, *b)),
                Axiom::SameAs(a, b) => initial_same_as.push((*a, *b)),
                _ => {}
            }
        }

        transitive_close(&mut sup_class);
        transitive_close(&mut sup_prop);

        CompiledRules {
            rdf_type,
            same_as,
            sup_class,
            sup_prop,
            inverses,
            transitive,
            symmetric,
            asymmetric,
            functional,
            inverse_functional,
            irreflexive,
            domains,
            ranges,
            chains,
            complex,
            disjoint_classes,
            disjoint_properties,
            different_from,
            initial_same_as,
            complex_triggers: Vec::new(),
            disjoint_triggers: Vec::new(),
            watched_predicates: Vec::new(),
            watched_classes: Vec::new(),
            axiom_count: ontology.axioms.len(),
            warnings: ontology.warnings.clone(),
        }
        .indexed()
    }

    /// Fills in the tables derived from the rules: the triggers of the
    /// complex and disjointness axioms, and what the passes watch.
    fn indexed(mut self) -> Self {
        self.complex_triggers = (self.complex.iter())
            .map(|(sub, sup)| AxiomTriggers::compile(sub, sup))
            .collect();
        // Disjointness tests both sides as membership checks.
        self.disjoint_triggers = (self.disjoint_classes.iter())
            .map(|(a, b)| AxiomTriggers {
                lhs: [a, b].into_iter().flat_map(triggers_of).collect(),
                rhs_universals: Vec::new(),
                members: enumerated([a, b]),
            })
            .collect();

        let mut watched_predicates: BTreeSet<TermId> = (self.chains.iter())
            .flat_map(|(chain, _)| chain.iter().copied())
            .chain(self.disjoint_properties.iter().flat_map(|&(p, q)| [p, q]))
            .chain(self.irreflexive.iter().chain(&self.asymmetric).copied())
            .collect();
        let mut watched_classes = BTreeSet::new();
        for entries in self.complex_triggers.iter().chain(&self.disjoint_triggers) {
            for trigger in entries.lhs.iter().chain(&entries.rhs_universals) {
                match trigger.atom {
                    TriggerAtom::Type(c) => watched_classes.insert(c),
                    TriggerAtom::Value(p, _) | TriggerAtom::Edge(p) => watched_predicates.insert(p),
                };
            }
        }
        self.watched_predicates = watched_predicates.into_iter().collect();
        self.watched_classes = watched_classes.into_iter().collect();
        self
    }

    /// Number of axioms the rules were compiled from.
    pub fn axiom_count(&self) -> usize {
        self.axiom_count
    }
}

/// The atom of a class expression that a single new triple can make
/// true.
#[derive(Debug, Clone, Copy)]
enum TriggerAtom {
    /// `Named(c)`: a new `x rdf:type c`.
    Type(TermId),
    /// `HasValue { property, value }`: a new `x property value`.
    Value(TermId, TermId),
    /// `SomeValuesFrom { property, .. }`: a new `x property y`, the
    /// filler still to be checked on `y`.
    Edge(TermId),
}

/// One way a new triple can enter a class expression: the atom it
/// matches and where that atom sits. `OneOf` contributes no trigger (no
/// triple changes it; its members are [`AxiomTriggers::members`]) and
/// `AllValuesFrom` / `ComplementOf` none because [`satisfies_in`] never
/// holds for them.
#[derive(Debug, Clone)]
struct Trigger {
    atom: TriggerAtom,
    /// `someValuesFrom` properties from the expression's root down to
    /// the atom's node: an individual `path.len()` such edges above the
    /// triple's subject is the one whose membership may have changed.
    path: Vec<TermId>,
    /// Child index taken at each intersection / union from the root
    /// down to the atom — the route [`holds_pinned`] follows.
    route: Vec<usize>,
}

/// One [`Trigger`] per atom of `expr`.
fn triggers_of(expr: &ClassExpr) -> Vec<Trigger> {
    let mut out = Vec::new();
    collect_triggers(expr, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// Appends the triggers of `expr`, itself at `path` and `route` inside
/// the expression being compiled.
fn collect_triggers(
    expr: &ClassExpr,
    path: &mut Vec<TermId>,
    route: &mut Vec<usize>,
    out: &mut Vec<Trigger>,
) {
    let mut push = |atom| {
        out.push(Trigger {
            atom,
            path: path.clone(),
            route: route.clone(),
        })
    };
    match expr {
        ClassExpr::Named(c) => push(TriggerAtom::Type(*c)),
        ClassExpr::HasValue { property, value } => push(TriggerAtom::Value(*property, *value)),
        ClassExpr::SomeValuesFrom { property, filler } => {
            push(TriggerAtom::Edge(*property));
            path.push(*property);
            collect_triggers(filler, path, route, out);
            path.pop();
        }
        ClassExpr::IntersectionOf(es) | ClassExpr::UnionOf(es) => {
            for (i, e) in es.iter().enumerate() {
                route.push(i);
                collect_triggers(e, path, route, out);
                route.pop();
            }
        }
        ClassExpr::OneOf(_) | ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => {}
    }
}

/// The entry points of one complex axiom `sub ⊑ sup`.
#[derive(Debug, Clone)]
struct AxiomTriggers {
    /// One per atom of `sub`: a matching triple can make an individual
    /// newly satisfy `sub`, tested with [`holds_pinned`].
    lhs: Vec<Trigger>,
    /// One per `AllValuesFrom` reachable in `sup` through intersections
    /// and `AllValuesFrom` fillers (cls-avf): a new edge under an
    /// individual that satisfied `sub` all along still owes its object
    /// the filler, so the individual is re-tested with the unpinned
    /// [`satisfies_in`] and `sup` applied again. `path` holds the
    /// `allValuesFrom` properties above the edge; `route` is unused.
    rhs_universals: Vec<Trigger>,
    /// The individuals an enumeration in `sub` names: `sub` can hold
    /// for them with no triple behind it, which no trigger sees, so a
    /// closure tests them on the axiom's first turn.
    members: Vec<TermId>,
}

impl AxiomTriggers {
    fn compile(sub: &ClassExpr, sup: &ClassExpr) -> Self {
        let mut rhs_universals = Vec::new();
        collect_universal_triggers(sup, &mut Vec::new(), &mut rhs_universals);
        AxiomTriggers {
            lhs: triggers_of(sub),
            rhs_universals,
            members: enumerated([sub]),
        }
    }
}

/// The members of every `OneOf` reachable in `exprs` through
/// intersections and unions.
fn enumerated<'e>(exprs: impl IntoIterator<Item = &'e ClassExpr>) -> Vec<TermId> {
    let (mut out, mut stack): (Vec<TermId>, Vec<&ClassExpr>) =
        (Vec::new(), exprs.into_iter().collect());
    while let Some(expr) = stack.pop() {
        match expr {
            ClassExpr::OneOf(ids) => out.extend(ids),
            ClassExpr::IntersectionOf(es) | ClassExpr::UnionOf(es) => stack.extend(es),
            _ => {}
        }
    }
    out
}

/// Mirrors the cases of [`Engine::apply_membership_by`] that recurse.
fn collect_universal_triggers(expr: &ClassExpr, path: &mut Vec<TermId>, out: &mut Vec<Trigger>) {
    match expr {
        ClassExpr::IntersectionOf(es) => {
            for e in es {
                collect_universal_triggers(e, path, out);
            }
        }
        ClassExpr::AllValuesFrom { property, filler } => {
            out.push(Trigger {
                atom: TriggerAtom::Edge(*property),
                path: path.clone(),
                route: Vec::new(),
            });
            path.push(*property);
            collect_universal_triggers(filler, path, out);
            path.pop();
        }
        _ => {}
    }
}

/// Sound membership check over any read-only view: does `g` entail
/// `x ∈ expr` using only already-materialized triples?
fn satisfies_in<V: GraphView + ?Sized>(
    g: &V,
    rules: &CompiledRules,
    x: TermId,
    expr: &ClassExpr,
) -> bool {
    witnesses_in(g, rules, x, expr, &mut Vec::new())
}

/// [`satisfies_in`] for `x ∈ expr` when a triple matching one
/// [`Trigger`] of `expr` is already known to be there: the atoms on the
/// trigger's `route` are true by construction, so only what branches
/// off it is evaluated. `below` holds the nodes the walk back from the
/// triple's subject passed, the subject first and `x`'s successor last;
/// a `SomeValuesFrom` on the route descends to that known node instead
/// of enumerating `objects`, and once `below` is used up it is the edge
/// atom itself, whose filler `object_in` checks on the triple's object.
/// A union takes the pinned arm only — another arm made true by another
/// new triple is that triple's trigger.
fn holds_pinned<V: GraphView + ?Sized>(
    g: &V,
    rules: &CompiledRules,
    x: TermId,
    expr: &ClassExpr,
    route: &[usize],
    below: &[TermId],
    object_in: &mut dyn FnMut(&ClassExpr) -> bool,
) -> bool {
    match expr {
        ClassExpr::Named(_) | ClassExpr::HasValue { .. } => true,
        ClassExpr::IntersectionOf(es) => {
            let Some((&pinned, route)) = route.split_first() else {
                return false;
            };
            es.iter().enumerate().all(|(i, e)| {
                if i == pinned {
                    holds_pinned(g, rules, x, e, route, below, object_in)
                } else {
                    satisfies_in(g, rules, x, e)
                }
            })
        }
        ClassExpr::UnionOf(es) => match route.split_first() {
            Some((&pinned, route)) => es
                .get(pinned)
                .is_some_and(|e| holds_pinned(g, rules, x, e, route, below, object_in)),
            None => false,
        },
        ClassExpr::SomeValuesFrom { filler, .. } => match below.split_last() {
            Some((&next, below)) => holds_pinned(g, rules, next, filler, route, below, object_in),
            None => object_in(filler),
        },
        ClassExpr::OneOf(_) | ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => false,
    }
}

/// [`satisfies_in`] that also collects the witnessing triples, for
/// derivation tracking; a failed check leaves `out` as it was.
fn witnesses_in<V: GraphView + ?Sized>(
    g: &V,
    rules: &CompiledRules,
    x: TermId,
    expr: &ClassExpr,
    out: &mut Vec<[TermId; 3]>,
) -> bool {
    match expr {
        ClassExpr::Named(c) => {
            if g.contains_ids(x, rules.rdf_type, *c) {
                out.push([x, rules.rdf_type, *c]);
                true
            } else {
                false
            }
        }
        ClassExpr::IntersectionOf(es) => {
            let mark = out.len();
            for e in es {
                if !witnesses_in(g, rules, x, e, out) {
                    out.truncate(mark);
                    return false;
                }
            }
            true
        }
        ClassExpr::UnionOf(es) => es.iter().any(|e| witnesses_in(g, rules, x, e, out)),
        ClassExpr::SomeValuesFrom { property, filler } => {
            for o in g.objects(x, *property) {
                let mark = out.len();
                out.push([x, *property, o]);
                if witnesses_in(g, rules, o, filler, out) {
                    return true;
                }
                out.truncate(mark);
            }
            false
        }
        ClassExpr::HasValue { property, value } => {
            if g.contains_ids(x, *property, *value) {
                out.push([x, *property, *value]);
                true
            } else {
                false
            }
        }
        ClassExpr::OneOf(ids) => ids.contains(&x),
        // Open-world: membership in a complement or universal
        // restriction is never derived, matching OWL 2 RL.
        ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => false,
    }
}

/// The seed and every triple derived since, numbered in insertion
/// order, as posting lists so a pass reads only the triples its atoms
/// can match: one per watched predicate, and one per watched class for
/// the `rdf:type` triples (see [`CompiledRules`]). A posting is a
/// triple with its number; the others are only counted.
struct Fresh {
    len: usize,
    rdf_type: TermId,
    by_predicate: FxMap<TermId, Vec<(u32, [TermId; 3])>>,
    by_class: FxMap<TermId, Vec<(u32, [TermId; 3])>>,
}

impl Fresh {
    fn new(rules: &CompiledRules, nothing: Option<TermId>) -> Self {
        let lists =
            |ids: &mut dyn Iterator<Item = TermId>| ids.map(|id| (id, Vec::new())).collect();
        Fresh {
            len: 0,
            rdf_type: rules.rdf_type,
            by_predicate: lists(&mut rules.watched_predicates.iter().copied()),
            by_class: lists(&mut rules.watched_classes.iter().copied().chain(nothing)),
        }
    }

    fn push(&mut self, triple: [TermId; 3]) {
        let at = self.len as u32;
        self.len += 1;
        if let Some(list) = self.by_predicate.get_mut(&triple[1]) {
            list.push((at, triple));
        }
        if triple[1] == self.rdf_type {
            if let Some(list) = self.by_class.get_mut(&triple[2]) {
                list.push((at, triple));
            }
        }
    }

    /// The triples at positions in `range` that `atom` can match (those
    /// with its predicate, or for a class atom its `rdf:type` triples).
    /// The atom's predicate or class must be watched.
    fn matching(
        &self,
        atom: TriggerAtom,
        range: Range<usize>,
    ) -> impl Iterator<Item = [TermId; 3]> + '_ {
        let list = match atom {
            TriggerAtom::Type(c) => self.by_class.get(&c),
            TriggerAtom::Value(p, _) | TriggerAtom::Edge(p) => self.by_predicate.get(&p),
        };
        let list = list.map_or(&[][..], Vec::as_slice);
        let lo = list.partition_point(|&(at, _)| (at as usize) < range.start);
        let hi = list.partition_point(|&(at, _)| (at as usize) < range.end);
        list[lo..hi].iter().map(|&(_, triple)| triple)
    }

    fn with_predicate(
        &self,
        p: TermId,
        range: Range<usize>,
    ) -> impl Iterator<Item = [TermId; 3]> + '_ {
        self.matching(TriggerAtom::Edge(p), range)
    }
}

/// Polls the governor (amortized wall-clock / cancellation check) and
/// reports whether execution should stop, recording the trip. A free
/// function so hot loops can poll while other fields are borrowed.
#[inline]
fn poll(guard: Option<&Guard>, tripped: &mut Option<Exhausted>) -> bool {
    if tripped.is_some() {
        return true;
    }
    if let Some(g) = guard {
        if let Err(exhausted) = g.check_time() {
            *tripped = Some(exhausted);
            return true;
        }
    }
    false
}

/// The running fixpoint state over any [`GraphStore`].
struct Engine<'a, S: GraphStore> {
    g: &'a mut S,
    rules: &'a CompiledRules,
    opts: &'a ReasonerOptions,
    result: InferenceResult,
    /// sameAs alias sets, maintained incrementally.
    aliases: FxMap<TermId, BTreeSet<TermId>>,
    queue: VecDeque<[TermId; 3]>,
    /// The seed and every triple derived since: the complex, chain and
    /// consistency passes read only these, each from its own cursor.
    fresh: Fresh,
    /// Per complex axiom, the position in `fresh` up to which its
    /// triggers have been matched.
    complex_cursors: Vec<usize>,
    /// Per property chain, the position in `fresh` up to which it has
    /// been evaluated.
    chain_cursors: Vec<usize>,
    /// Execution governor for the guarded entry points; `None` on the
    /// unguarded paths.
    guard: Option<&'a Guard>,
    /// Set when the guard trips; every hot loop bails out once this is
    /// populated so the engine unwinds quickly with its partial result.
    tripped: Option<Exhausted>,
}

impl<'a, S: GraphStore> Engine<'a, S> {
    fn new(
        g: &'a mut S,
        rules: &'a CompiledRules,
        opts: &'a ReasonerOptions,
        guard: Option<&'a Guard>,
    ) -> Self {
        let fresh = Fresh::new(rules, g.lookup_iri(owl::NOTHING));
        Engine {
            g,
            rules,
            opts,
            result: InferenceResult {
                axiom_count: rules.axiom_count,
                warnings: rules.warnings.clone(),
                ..Default::default()
            },
            aliases: FxMap::default(),
            queue: VecDeque::new(),
            fresh,
            complex_cursors: vec![0; rules.complex.len()],
            chain_cursors: vec![0; rules.chains.len()],
            guard,
            tripped: None,
        }
    }

    #[inline]
    fn guard_tripped(&mut self) -> bool {
        poll(self.guard, &mut self.tripped)
    }

    /// Handles the outer round cap. Returns true when the loop must
    /// stop. Unguarded, this flips `converged` and records a warning;
    /// guarded, it additionally trips the guard so callers get a typed
    /// `Exhausted { resource: Rounds }`.
    fn round_cap_hit(&mut self) -> bool {
        if self.result.rounds < self.opts.max_rounds {
            return false;
        }
        self.result.converged = false;
        self.result.warnings.push(format!(
            "fixpoint not reached after {} rounds — output may be incomplete",
            self.opts.max_rounds
        ));
        if self.guard.is_some() && self.tripped.is_none() {
            self.tripped = Some(Exhausted {
                resource: Resource::Rounds,
                spent: self.result.rounds as u64,
                limit: self.opts.max_rounds as u64,
            });
        }
        true
    }

    /// The semi-naïve closure: derives what `seed` (triples already in
    /// the store) and everything derived on the way can entail,
    /// assuming the rest of the store is already closed under `rules`.
    /// Triples the caller derived before (aliases, the schema closure)
    /// are fresh and queued already; `seed` may repeat them, and the
    /// queue takes it as given (a repeated `owl:sameAs` triple
    /// replicates again what was derived since) while `fresh` records
    /// each triple once.
    fn run(mut self, seed: Vec<[TermId; 3]>) -> (InferenceResult, Option<Exhausted>) {
        let derived: FxSet<[TermId; 3]> = self.queue.iter().copied().collect();
        for &t in seed.iter().filter(|t| !derived.contains(*t)) {
            self.fresh.push(t);
        }
        self.queue.extend(seed);

        loop {
            if self.guard_tripped() {
                break;
            }
            self.result.rounds += 1;
            if let Some(g) = self.guard {
                if let Err(exhausted) = g.add_round() {
                    self.tripped = Some(exhausted);
                    break;
                }
            }
            self.drain_queue();
            let before = self.result.added;
            self.complex_pass();
            self.chain_pass();
            if self.tripped.is_some() {
                break;
            }
            if self.result.added == before && self.queue.is_empty() {
                break;
            }
            if self.round_cap_hit() {
                break;
            }
        }

        if self.tripped.is_some() {
            // A tripped budget means the closure stopped early: whatever
            // was derived is sound, but the fixpoint was not reached.
            self.result.converged = false;
        } else {
            self.check_consistency();
        }
        (self.result, self.tripped)
    }

    /// Calls `visit` once per way a fresh triple at a position in
    /// `range` enters `trigger`: with each individual that reaches the
    /// triple's subject backward along the trigger's `path` (the root),
    /// the nodes walked on the way up — the subject first, the root's
    /// successor last, as [`holds_pinned`] takes them — and the triple's
    /// object. Stops once the guard has tripped.
    fn for_each_entry(
        &mut self,
        trigger: &Trigger,
        range: Range<usize>,
        mut visit: impl FnMut(&S, TermId, &[TermId], TermId),
    ) {
        let g = &*self.g;
        for triple in self.fresh.matching(trigger.atom, range) {
            if poll(self.guard, &mut self.tripped) {
                return;
            }
            // The posting list fixes the predicate, and a type atom's class.
            if matches!(trigger.atom, TriggerAtom::Value(_, v) if v != triple[2]) {
                continue;
            }
            if trigger.path.is_empty() {
                visit(g, triple[0], &[], triple[2]);
                continue;
            }
            let mut level = vec![(triple[0], Vec::new())];
            for &step in trigger.path.iter().rev() {
                if poll(self.guard, &mut self.tripped) {
                    return;
                }
                let mut above = Vec::new();
                for (node, below) in &level {
                    for parent in g.subjects(step, *node) {
                        let mut below = below.clone();
                        below.push(*node);
                        above.push((parent, below));
                    }
                }
                level = above;
            }
            for (root, below) in &level {
                visit(g, *root, below, triple[2]);
            }
        }
    }

    /// The complex subclass-like axioms, as a semi-naïve join: each
    /// axiom matches the triples added since its last turn against its
    /// own triggers and evaluates its left-hand side pinned to the
    /// triple that fired it. Exact because an individual that newly
    /// satisfies a left-hand side has a new triple somewhere in its
    /// witness tree; that triple matches one atom, the individual
    /// reaches the triple's subject along exactly that atom's path, and
    /// when the last such triple comes up the rest of the tree is
    /// already in the graph. An enumeration holds with no triple behind
    /// it, so its members are tested on the axiom's first turn.
    /// Individuals that held before are the closed store's business,
    /// except for what `rhs_universals` covers.
    fn complex_pass(&mut self) {
        let rules = self.rules;
        for (i, (sub, sup)) in rules.complex.iter().enumerate() {
            let triggers = &rules.complex_triggers[i];
            let end = self.fresh.len;
            let start = std::mem::replace(&mut self.complex_cursors[i], end);
            // Id order, the order a sorted candidate sweep applies in.
            let mut roots: BTreeSet<TermId> = BTreeSet::new();
            if start == 0 {
                let g = &*self.g;
                roots.extend(
                    triggers
                        .members
                        .iter()
                        .filter(|&&x| satisfies_in(g, rules, x, sub)),
                );
            }
            for trigger in &triggers.lhs {
                // An edge atom's filler is one expression, and the store
                // does not change while roots are collected: the check
                // on an object is made once per object.
                let mut filled: FxMap<TermId, bool> = FxMap::default();
                self.for_each_entry(trigger, start..end, |g, root, below, object| {
                    let mut object_in = |filler: &ClassExpr| {
                        *filled
                            .entry(object)
                            .or_insert_with(|| satisfies_in(g, rules, object, filler))
                    };
                    if !roots.contains(&root)
                        && holds_pinned(g, rules, root, sub, &trigger.route, below, &mut object_in)
                    {
                        roots.insert(root);
                    }
                });
            }
            for trigger in &triggers.rhs_universals {
                self.for_each_entry(trigger, start..end, |g, root, _, _| {
                    if !roots.contains(&root) && satisfies_in(g, rules, root, sub) {
                        roots.insert(root);
                    }
                });
            }
            for x in roots {
                if self.guard_tripped() {
                    return;
                }
                self.conclude(x, sub, sup);
            }
        }
    }

    /// Property chains (prp-spo2), as a semi-naïve join: each chain
    /// matches the triples added since its last turn, and an instance is
    /// found at its first step that is fresh in the turn, so its steps
    /// to the left are old (in the store and not fresh when the turn
    /// began) and its steps to the right may be anything in the store.
    /// Like a forward sweep, a turn reads the store as it was when the
    /// turn began: its conclusions are added when it ends, and the next
    /// turn takes them as fresh. A step's fresh triples are walked in
    /// store order (object, then subject), the order a forward sweep
    /// from the chain's first step meets them.
    fn chain_pass(&mut self) {
        let rules = self.rules;
        let tracking = self.opts.track_derivations;
        for (c, (chain, q)) in rules.chains.iter().enumerate() {
            let end = self.fresh.len;
            let start = std::mem::replace(&mut self.chain_cursors[c], end);
            // A left step's old triples are the store's minus the turn's
            // fresh ones. When every triple in the store is fresh (the
            // first turn of a closure from empty), a step with none before
            // the turn has none, and no instance is found to its right.
            let all_fresh = self.g.len() == end;
            let lefts = &chain[..chain.len() - 1];
            let no_old: FxSet<TermId> = lefts
                .iter()
                .copied()
                .filter(|&p| all_fresh && self.fresh.with_predicate(p, 0..start).next().is_none())
                .collect();
            let fresh_lefts: FxSet<[TermId; 3]> = lefts
                .iter()
                .filter(|p| !no_old.contains(p))
                .flat_map(|&p| self.fresh.with_predicate(p, start..end))
                .collect();
            let mut found: Vec<(TermId, TermId, Vec<[TermId; 3]>)> = Vec::new();
            for (i, &p) in chain.iter().enumerate() {
                if chain[..i].iter().any(|pj| no_old.contains(pj)) {
                    continue;
                }
                let mut fresh: Vec<[TermId; 3]> =
                    self.fresh.with_predicate(p, start..end).collect();
                fresh.sort_unstable_by_key(|&[s, _, o]| (o, s));
                for [a, _, b] in fresh {
                    if self.guard_tripped() {
                        return;
                    }
                    // Sequences over chain[..i] ending at `a`, walked
                    // backward (steps recorded in reverse), and over
                    // chain[i+1..] starting at `b`.
                    let lefts = walk(a, chain[..i].iter().rev(), tracking, |pj, node| {
                        let subjects = self.g.subjects(pj, node).into_iter();
                        let old = subjects.filter(|&s| !fresh_lefts.contains(&[s, pj, node]));
                        old.map(|s| (s, [s, pj, node])).collect()
                    });
                    if lefts.is_empty() {
                        continue;
                    }
                    let rights = walk(b, chain[i + 1..].iter(), tracking, |pj, node| {
                        let objects = self.g.objects(node, pj).into_iter();
                        objects.map(|z| (z, [node, pj, z])).collect()
                    });
                    for (x, lsteps) in &lefts {
                        for (z, rsteps) in &rights {
                            let mut steps = Vec::new();
                            if tracking {
                                steps.extend(lsteps.iter().rev().copied());
                                steps.push([a, p, b]);
                                steps.extend(rsteps.iter().copied());
                            }
                            found.push((*x, *z, steps));
                        }
                    }
                }
            }
            for (x, z, steps) in found {
                self.add_by("prp-spo2", &steps, x, *q, z);
            }
        }
    }

    /// Consistency over everything fresh: a violation is reported when
    /// a fresh triple or an individual some fresh triple enters either
    /// side of a disjointness for takes part in it. From empty that is
    /// every violation; over a consistent closed store it is exactly
    /// the violations the fresh triples introduced, since a new one
    /// needs a new triple in one side's witness tree. Each rule reports
    /// in store order (object, then subject, for a property), each
    /// violation once.
    fn check_consistency(&mut self) {
        use InconsistencyKind::*;
        let rules = self.rules;
        let all = 0..self.fresh.len;
        let mut candidates = Vec::new();
        for entries in &rules.disjoint_triggers {
            let mut cand: BTreeSet<TermId> = entries.members.iter().copied().collect();
            for trigger in &entries.lhs {
                self.for_each_entry(trigger, all.clone(), |_, root, _, _| {
                    cand.insert(root);
                });
            }
            candidates.push(cand);
        }
        let (g, fresh) = (&*self.g, &self.fresh);
        let name = |id| g.term_name(id);
        let found = &mut self.result.inconsistencies;
        let mut report = |kind, detail| found.push(Inconsistency { kind, detail });
        // The (object, subject) pairs of the fresh `p` triples that
        // `hold`, in store order.
        let pairs = |p, hold: &dyn Fn(TermId, TermId) -> bool| -> BTreeSet<(TermId, TermId)> {
            fresh
                .with_predicate(p, all.clone())
                .filter(|&[x, _, y]| hold(x, y))
                .map(|[x, _, y]| (y, x))
                .collect()
        };
        // cax-dw: disjoint classes sharing a member.
        for ((a, b), cand) in rules.disjoint_classes.iter().zip(candidates) {
            for x in cand {
                if satisfies_in(g, rules, x, a) && satisfies_in(g, rules, x, b) {
                    let detail = format!("{} is an instance of disjoint classes", name(x));
                    report(DisjointClassesViolation, detail);
                }
            }
        }
        // prp-pdw: disjoint properties linking the same pair, named in
        // declaration order whichever side is fresh.
        for &(p, q) in &rules.disjoint_properties {
            let mut both = pairs(p, &|x, y| g.contains_ids(x, q, y));
            both.extend(pairs(q, &|x, y| g.contains_ids(x, p, y)));
            for (y, x) in both {
                let (p, q, x, y) = (name(p), name(q), name(x), name(y));
                let detail = format!("disjoint properties {p} and {q} both relate {x} to {y}");
                report(DisjointPropertiesViolation, detail);
            }
        }
        // cls-nothing2
        if let Some(nothing) = g.lookup_iri(owl::NOTHING) {
            let members: BTreeSet<TermId> = fresh
                .matching(TriggerAtom::Type(nothing), all.clone())
                .map(|[x, _, _]| x)
                .collect();
            for x in members {
                report(
                    NothingHasInstance,
                    format!("{} is an instance of owl:Nothing", name(x)),
                );
            }
        }
        // prp-irp
        for &p in &rules.irreflexive {
            for (_, x) in pairs(p, &|x, y| x == y) {
                let (p, x) = (name(p), name(x));
                report(
                    IrreflexiveViolation,
                    format!("irreflexive property {p} relates {x} to itself"),
                );
            }
        }
        // prp-asyp: both directions are violations, each reported once.
        for &p in &rules.asymmetric {
            let one_way = pairs(p, &|x, y| x != y && g.contains_ids(y, p, x));
            let both: BTreeSet<_> = one_way
                .into_iter()
                .flat_map(|(y, x)| [(y, x), (x, y)])
                .collect();
            for (y, x) in both {
                let (p, x, y) = (name(p), name(x), name(y));
                let detail =
                    format!("asymmetric property {p} holds in both directions between {x} and {y}");
                report(AsymmetricViolation, detail);
            }
        }
        // eq-diff1
        for &(a, b) in &rules.different_from {
            if g.contains_ids(a, rules.same_as, b) || g.contains_ids(b, rules.same_as, a) {
                let (a, b) = (name(a), name(b));
                report(
                    SameAndDifferent,
                    format!("{a} and {b} are both sameAs and differentFrom"),
                );
            }
        }
    }

    /// Inserts a derived triple, recording its derivation when tracking
    /// is enabled. The first derivation of a triple wins.
    fn add_by(
        &mut self,
        rule: &'static str,
        premises: &[[TermId; 3]],
        s: TermId,
        p: TermId,
        o: TermId,
    ) {
        if self.tripped.is_some() {
            return;
        }
        if self.g.insert_ids(s, p, o) {
            self.result.added += 1;
            if let Some(g) = self.guard {
                // Single choke point: every derived triple, whatever rule
                // produced it, is charged here.
                if let Err(exhausted) = g.add_inferred(1) {
                    self.tripped = Some(exhausted);
                }
            }
            self.queue.push_back([s, p, o]);
            self.fresh.push([s, p, o]);
            if self.opts.track_derivations {
                self.result.derivations.insert(
                    [s, p, o],
                    Derivation {
                        rule,
                        premises: premises.to_vec(),
                    },
                );
            }
        }
    }

    /// Inserts the schema closure: every named superclass and
    /// superproperty pair of the compiled tables (scm-sco, scm-spo).
    fn materialize_schema(&mut self) {
        let rules = self.rules;
        let sco = self.g.intern_iri(rdfs::SUB_CLASS_OF);
        let spo = self.g.intern_iri(rdfs::SUB_PROPERTY_OF);
        for (rule, p, sups) in [
            ("scm-sco", sco, &rules.sup_class),
            ("scm-spo", spo, &rules.sup_prop),
        ] {
            for (&sub, sups) in sups {
                for &sup in sups {
                    self.add_by(rule, &[], sub, p, sup);
                }
            }
        }
    }

    /// Instance-rule propagation driven by a worklist of new triples; the
    /// queue is empty on return unless the guard tripped.
    fn drain_queue(&mut self) {
        let rules = self.rules;
        while let Some([s, p, o]) = self.queue.pop_front() {
            if self.guard_tripped() {
                return;
            }
            let premise = [[s, p, o]];
            // cax-sco: type inheritance through the named-class closure.
            if p == rules.rdf_type {
                for &sup in rules.sup_class.get(&o).into_iter().flatten() {
                    self.add_by("cax-sco", &premise, s, p, sup);
                }
                self.replicate(s, p, o);
                continue;
            }
            if p == rules.same_as {
                self.note_alias(s, o);
                self.add_by("eq-sym", &premise, o, p, s);
                self.replicate_for_alias(s, o);
                self.replicate_for_alias(o, s);
                continue;
            }
            for &q in rules.sup_prop.get(&p).into_iter().flatten() {
                self.add_by("prp-spo1", &premise, s, q, o);
            }
            for &q in rules.inverses.get(&p).into_iter().flatten() {
                self.add_by("prp-inv", &premise, o, q, s);
            }
            if rules.symmetric.contains(&p) {
                self.add_by("prp-symp", &premise, o, p, s);
            }
            if rules.transitive.contains(&p) {
                for z in self.g.objects(o, p) {
                    self.add_by("prp-trp", &[[s, p, o], [o, p, z]], s, p, z);
                }
                for x in self.g.subjects(p, s) {
                    self.add_by("prp-trp", &[[x, p, s], [s, p, o]], x, p, o);
                }
            }
            // prp-dom / prp-rng
            for c in rules.domains.get(&p).into_iter().flatten() {
                self.apply_membership_by(s, c, &[]);
            }
            for c in rules.ranges.get(&p).into_iter().flatten() {
                self.apply_membership_by(o, c, &[]);
            }
            // prp-fp: functional — two objects are the same individual.
            if rules.functional.contains(&p) {
                for o2 in self.g.objects(s, p) {
                    if o2 != o && self.g.term(o).is_resource() && self.g.term(o2).is_resource() {
                        self.add_by("prp-fp", &[[s, p, o], [s, p, o2]], o, rules.same_as, o2);
                    }
                }
            }
            // prp-ifp
            if rules.inverse_functional.contains(&p) {
                for s2 in self.g.subjects(p, o) {
                    if s2 != s {
                        self.add_by("prp-ifp", &[[s, p, o], [s2, p, o]], s, rules.same_as, s2);
                    }
                }
            }
            self.replicate(s, p, o);
        }
    }

    /// eq-rep: replicates a triple across the known aliases of its
    /// subject and object.
    fn replicate(&mut self, s: TermId, p: TermId, o: TermId) {
        for a in self.aliases.get(&s).cloned().into_iter().flatten() {
            self.add_by("eq-rep-s", &[[s, p, o]], a, p, o);
        }
        for a in self.aliases.get(&o).cloned().into_iter().flatten() {
            self.add_by("eq-rep-o", &[[s, p, o]], s, p, a);
        }
    }

    /// Links two individuals as aliases, merging their alias sets so
    /// sameAs chains stay transitively closed (eq-trans), and enqueues the
    /// implied sameAs triples.
    fn note_alias(&mut self, a: TermId, b: TermId) {
        if a == b {
            return;
        }
        // The merged equivalence class of a and b.
        let mut class: BTreeSet<TermId> = BTreeSet::new();
        class.insert(a);
        class.insert(b);
        class.extend(self.aliases.get(&a).into_iter().flatten().copied());
        class.extend(self.aliases.get(&b).into_iter().flatten().copied());
        for &member in &class {
            let others: BTreeSet<TermId> = class.iter().copied().filter(|&m| m != member).collect();
            self.aliases
                .entry(member)
                .or_default()
                .extend(others.iter().copied());
            // Materialize the pairwise sameAs triples (eq-trans/eq-sym).
            for &other in &others {
                self.add_by("eq-trans", &[], member, self.rules.same_as, other);
            }
        }
    }

    /// Copies every triple mentioning `from` onto `to` (eq-rep-s / eq-rep-o).
    fn replicate_for_alias(&mut self, from: TermId, to: TermId) {
        if from == to {
            return;
        }
        let as_subject: Vec<[TermId; 3]> = self.g.match_pattern(Some(from), None, None);
        for [_, p, o] in as_subject {
            if p != self.rules.same_as {
                self.add_by("eq-rep-s", &[[from, p, o]], to, p, o);
            }
        }
        let as_object: Vec<[TermId; 3]> = self.g.match_pattern(None, None, Some(from));
        for [s, p, _] in as_object {
            if p != self.rules.same_as {
                self.add_by("eq-rep-o", &[[s, p, from]], s, p, to);
            }
        }
    }

    /// Asserts `sup`'s consequences for an `x` that satisfies `sub`,
    /// with `sub`'s witness triples as premises when derivations are
    /// tracked (nothing is asserted if no witness is found).
    fn conclude(&mut self, x: TermId, sub: &ClassExpr, sup: &ClassExpr) {
        if self.opts.track_derivations {
            let mut witnesses = Vec::new();
            if witnesses_in(&*self.g, self.rules, x, sub, &mut witnesses) {
                self.apply_membership_by(x, sup, &witnesses);
            }
        } else {
            self.apply_membership_by(x, sup, &[]);
        }
    }

    /// Asserts the consequences of `x ∈ expr`, recording `premises` as
    /// the evidence for every consequence (with derivation tracking on,
    /// the witness triples of the left-hand side).
    fn apply_membership_by(&mut self, x: TermId, expr: &ClassExpr, premises: &[[TermId; 3]]) {
        match expr {
            ClassExpr::Named(c) => self.add_by("cls", premises, x, self.rules.rdf_type, *c),
            ClassExpr::IntersectionOf(es) => {
                for e in es {
                    self.apply_membership_by(x, e, premises);
                }
            }
            ClassExpr::HasValue { property, value } => {
                self.add_by("cls-hv1", premises, x, *property, *value)
            }
            ClassExpr::AllValuesFrom { property, filler } => {
                // cls-avf: every p-successor of x is in the filler.
                for o in self.g.objects(x, *property) {
                    let mut with_edge = premises.to_vec();
                    with_edge.push([x, *property, o]);
                    self.apply_membership_by(o, filler, &with_edge);
                }
            }
            ClassExpr::OneOf(ids) if ids.len() == 1 => {
                // Singleton enumeration: x is that individual.
                self.add_by("cls-oo", premises, x, self.rules.same_as, ids[0]);
            }
            // No existential introduction (matches OWL 2 RL), and nothing
            // sound to conclude from a union or general enumeration.
            ClassExpr::SomeValuesFrom { .. }
            | ClassExpr::UnionOf(_)
            | ClassExpr::OneOf(_)
            | ClassExpr::ComplementOf(_) => {}
        }
    }
}

/// The sequences of triples that lead from `start` along `steps`, one
/// step at a time with the `(node it reaches, triple)` pairs `next`
/// gives for `(step, node)`: each with the node it ends at, and its
/// triples when `tracking`.
fn walk<'s>(
    start: TermId,
    steps: impl Iterator<Item = &'s TermId>,
    tracking: bool,
    mut next: impl FnMut(TermId, TermId) -> Vec<(TermId, [TermId; 3])>,
) -> Vec<(TermId, Vec<[TermId; 3]>)> {
    let mut seqs = vec![(start, Vec::new())];
    for &step in steps {
        let mut longer = Vec::new();
        for (node, seq) in seqs {
            for (reached, triple) in next(step, node) {
                let mut seq = seq.clone();
                if tracking {
                    seq.push(triple);
                }
                longer.push((reached, seq));
            }
        }
        seqs = longer;
        if seqs.is_empty() {
            break;
        }
    }
    seqs
}

/// In-place transitive closure of an adjacency map.
fn transitive_close(map: &mut FxMap<TermId, BTreeSet<TermId>>) {
    // Simple semi-naive closure; schema graphs are small.
    loop {
        let mut additions: BTreeMap<TermId, BTreeSet<TermId>> = BTreeMap::new();
        for (&node, sups) in map.iter() {
            for &mid in sups {
                if let Some(next) = map.get(&mid) {
                    for &far in next {
                        if far != node && !sups.contains(&far) {
                            additions.entry(node).or_default().insert(far);
                        }
                    }
                }
            }
        }
        if additions.is_empty() {
            return;
        }
        for (node, sups) in additions {
            map.entry(node).or_default().extend(sups);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::Graph;

    fn graph(src: &str) -> Graph {
        let mut g = Graph::new();
        let prefixed = format!(
            "@prefix rdf: <{}> .\n@prefix rdfs: <{}> .\n@prefix owl: <{}> .\n@prefix e: <http://e/> .\n{}",
            rdf::NS,
            rdfs::NS,
            owl::NS,
            src
        );
        parse_turtle_into(&prefixed, &mut g, &Default::default()).expect("test turtle parses");
        g
    }

    fn has(g: &impl GraphView, s: &str, p: &str, o: &str) -> bool {
        let e = |n: &str| -> String {
            if n.contains("://") {
                n.to_string()
            } else {
                format!("http://e/{n}")
            }
        };
        match (
            g.lookup_iri(&e(s)),
            g.lookup_iri(&e(p)),
            g.lookup_iri(&e(o)),
        ) {
            (Some(s), Some(p), Some(o)) => g.contains_ids(s, p, o),
            _ => false,
        }
    }

    #[test]
    fn type_inheritance_through_subclass_chain() {
        let mut g = graph(
            "e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:C .\n\
             e:x a e:A .",
        );
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r.is_consistent());
        assert!(has(&g, "x", rdf::TYPE, "B"));
        assert!(has(&g, "x", rdf::TYPE, "C"));
        assert!(has(&g, "A", rdfs::SUB_CLASS_OF, "C"), "schema closure");
    }

    #[test]
    fn materialization_is_idempotent() {
        let mut g = graph(
            "e:A rdfs:subClassOf e:B .\n\
             e:p a owl:TransitiveProperty .\n\
             e:x a e:A . e:x e:p e:y . e:y e:p e:z .",
        );
        let r1 = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r1.added > 0);
        let r2 = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert_eq!(r2.added, 0, "second run must add nothing");
    }

    #[test]
    fn subproperty_and_inverse() {
        let mut g = graph(
            "e:likes rdfs:subPropertyOf e:interestedIn .\n\
             e:likes owl:inverseOf e:likedBy .\n\
             e:u e:likes e:apple .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "u", "interestedIn", "apple"));
        assert!(has(&g, "apple", "likedBy", "u"));
    }

    #[test]
    fn inverse_feeds_subsequent_rules() {
        // dislikedBy derived via inverse, then characteristic class via
        // a someValuesFrom equivalence — the FEO DislikedFoodCharacteristic
        // pattern from the paper (§III-B).
        let mut g = graph(
            "e:dislikes owl:inverseOf e:dislikedBy .\n\
             e:DislikedFood owl:equivalentClass [\n\
               a owl:Restriction ; owl:onProperty e:dislikedBy ;\n\
               owl:someValuesFrom e:User ] .\n\
             e:u a e:User .\n\
             e:u e:dislikes e:broccoli .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "broccoli", rdf::TYPE, "DislikedFood"));
    }

    #[test]
    fn transitive_property_closure() {
        let mut g = graph(
            "e:hasCharacteristic a owl:TransitiveProperty .\n\
             e:curry e:hasCharacteristic e:cauliflower .\n\
             e:cauliflower e:hasCharacteristic e:autumn .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "curry", "hasCharacteristic", "autumn"));
    }

    #[test]
    fn symmetric_property() {
        let mut g = graph("e:pairsWith a owl:SymmetricProperty . e:wine e:pairsWith e:cheese .");
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "cheese", "pairsWith", "wine"));
    }

    #[test]
    fn domain_and_range() {
        let mut g = graph(
            "e:hasIngredient rdfs:domain e:Recipe ; rdfs:range e:Ingredient .\n\
             e:soup e:hasIngredient e:leek .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "soup", rdf::TYPE, "Recipe"));
        assert!(has(&g, "leek", rdf::TYPE, "Ingredient"));
    }

    #[test]
    fn has_value_both_directions() {
        let mut g = graph(
            "e:AutumnAvailable owl:equivalentClass [\n\
               a owl:Restriction ; owl:onProperty e:availableIn ; owl:hasValue e:Autumn ] .\n\
             e:squash e:availableIn e:Autumn .\n\
             e:pumpkin a e:AutumnAvailable .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        // cls-hv2 direction: value → class membership.
        assert!(has(&g, "squash", rdf::TYPE, "AutumnAvailable"));
        // cls-hv1 direction: class membership → value.
        assert!(has(&g, "pumpkin", "availableIn", "Autumn"));
    }

    #[test]
    fn intersection_membership() {
        let mut g = graph(
            "e:Fact owl:equivalentClass [ owl:intersectionOf (\n\
               [ a owl:Restriction ; owl:onProperty e:supports ; owl:someValuesFrom e:Param ]\n\
               [ a owl:Restriction ; owl:onProperty e:presentIn ; owl:hasValue e:Eco ]\n\
             ) ] .\n\
             e:autumn e:supports e:q1 . e:q1 a e:Param .\n\
             e:autumn e:presentIn e:Eco .\n\
             e:spring e:supports e:q1 .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "autumn", rdf::TYPE, "Fact"));
        assert!(
            !has(&g, "spring", rdf::TYPE, "Fact"),
            "spring lacks presence"
        );
    }

    #[test]
    fn all_values_from_applies_to_successors() {
        let mut g = graph(
            "e:VeganRecipe rdfs:subClassOf [\n\
               a owl:Restriction ; owl:onProperty e:hasIngredient ;\n\
               owl:allValuesFrom e:PlantIngredient ] .\n\
             e:stew a e:VeganRecipe ; e:hasIngredient e:lentil .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "lentil", rdf::TYPE, "PlantIngredient"));
    }

    #[test]
    fn property_chain() {
        let mut g = graph(
            "e:servedWith owl:propertyChainAxiom (e:hasCourse e:includes) .\n\
             e:menu e:hasCourse e:starter . e:starter e:includes e:bread .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "menu", "servedWith", "bread"));
    }

    #[test]
    fn functional_property_yields_same_as() {
        let mut g = graph(
            "e:hasSeason a owl:FunctionalProperty .\n\
             e:sys e:hasSeason e:fall . e:sys e:hasSeason e:autumn .\n\
             e:autumn e:label e:A .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "fall", owl::SAME_AS, "autumn"));
        // eq-rep: triples replicate across the alias.
        assert!(has(&g, "fall", "label", "A"));
    }

    #[test]
    fn union_and_one_of() {
        let mut g = graph(
            "e:Produce owl:equivalentClass [ owl:unionOf (e:Fruit e:Vegetable) ] .\n\
             e:apple a e:Fruit .\n\
             e:Weekend owl:equivalentClass [ owl:oneOf (e:Saturday e:Sunday) ] .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "apple", rdf::TYPE, "Produce"));
        // cls-oo: enumeration members are instances of the enumerated class.
        assert!(has(&g, "Saturday", rdf::TYPE, "Weekend"));
        assert!(has(&g, "Sunday", rdf::TYPE, "Weekend"));
    }

    /// An enumeration on a left-hand side holds with no triple behind it,
    /// so no trigger ever fires for it: its members enter the closure from
    /// empty on the axiom's first turn.
    #[test]
    fn one_of_left_hand_side_types_its_members_without_asserted_types() {
        let mut g = graph("e:Season owl:equivalentClass [ owl:oneOf (e:Spring e:Summer) ] .");
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "Spring", rdf::TYPE, "Season"));
        assert!(has(&g, "Summer", rdf::TYPE, "Season"));
    }

    #[test]
    fn detects_disjointness_violation() {
        let mut g = graph(
            "e:Meat owl:disjointWith e:Vegetable .\n\
             e:thing a e:Meat , e:Vegetable .",
        );
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(!r.is_consistent());
        assert!(matches!(
            r.inconsistencies[0].kind,
            InconsistencyKind::DisjointClassesViolation
        ));
    }

    #[test]
    fn detects_irreflexive_and_asymmetric_violations() {
        let mut g = graph(
            "e:p a owl:IrreflexiveProperty . e:x e:p e:x .\n\
             e:q a owl:AsymmetricProperty . e:a e:q e:b . e:b e:q e:a .",
        );
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let kinds: Vec<_> = r.inconsistencies.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&InconsistencyKind::IrreflexiveViolation));
        assert!(kinds.contains(&InconsistencyKind::AsymmetricViolation));
    }

    #[test]
    fn detects_same_and_different() {
        let mut g = graph("e:a owl:sameAs e:b . e:a owl:differentFrom e:b .");
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r
            .inconsistencies
            .iter()
            .any(|i| i.kind == InconsistencyKind::SameAndDifferent));
    }

    #[test]
    fn equivalence_is_bidirectional_subsumption() {
        let mut g = graph(
            "e:Curry owl:equivalentClass e:CurryDish .\n\
             e:x a e:Curry . e:y a e:CurryDish .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "x", rdf::TYPE, "CurryDish"));
        assert!(has(&g, "y", rdf::TYPE, "Curry"));
    }

    #[test]
    fn subproperty_of_transitive_super() {
        // A subproperty feeding a transitive superproperty — the FEO
        // pattern: specific characteristic properties under the transitive
        // feo:hasCharacteristic.
        let mut g = graph(
            "e:hasIngredient rdfs:subPropertyOf e:hasCharacteristic .\n\
             e:availableIn rdfs:subPropertyOf e:hasCharacteristic .\n\
             e:hasCharacteristic a owl:TransitiveProperty .\n\
             e:curry e:hasIngredient e:cauliflower .\n\
             e:cauliflower e:availableIn e:autumn .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "curry", "hasCharacteristic", "autumn"));
    }

    #[test]
    fn cyclic_subclass_hierarchy_terminates() {
        let mut g = graph(
            "e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:A .\n\
             e:x a e:A .",
        );
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "x", rdf::TYPE, "B"));
        assert!(r.rounds < 64);
        assert!(r.converged);
    }

    /// Regression for the silent-truncation bug: hitting the round cap
    /// used to return as if the fixpoint had converged. The compat path
    /// must now report `converged: false`.
    /// An ontology whose closure needs one complex-pass round per level:
    /// `C_i ≡ ∃p.C_{i+1}` over a p-chain of individuals, so membership
    /// propagates backward one class per round.
    fn layered_some_values_src(levels: usize) -> String {
        let mut src = String::new();
        for i in 0..levels {
            src.push_str(&format!(
                "e:C{i} owl:equivalentClass [ a owl:Restriction ; \
                 owl:onProperty e:p ; owl:someValuesFrom e:C{} ] .\n",
                i + 1
            ));
            src.push_str(&format!("e:x{i} e:p e:x{} .\n", i + 1));
        }
        src.push_str(&format!("e:x{levels} a e:C{levels} .\n"));
        src
    }

    #[test]
    fn round_cap_reports_nonconvergence() {
        let src = layered_some_values_src(6);
        let mut g = graph(&src);
        let opts = ReasonerOptions {
            max_rounds: 1,
            ..Default::default()
        };
        let r = Reasoner::with_options(opts)
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(!r.converged, "cap hit must not look like convergence");
        assert!(r.warnings.iter().any(|w| w.contains("fixpoint")));

        // And without the cap the same input converges cleanly.
        let mut g2 = graph(&src);
        let r2 = Reasoner::new()
            .materialize(&mut g2, &Default::default())
            .expect("materialize");
        assert!(r2.converged);
        assert!(r2.warnings.is_empty());
    }

    #[test]
    fn guarded_round_cap_is_typed_exhausted() {
        use feo_rdf::governor::{Budget, Resource};
        let src = layered_some_values_src(6);
        let mut g = graph(&src);
        let opts = ReasonerOptions {
            max_rounds: 1,
            ..Default::default()
        };
        let guard = Budget::new().start();
        let err = Reasoner::with_options(opts)
            .materialize(&mut g, &MaterializeOptions::guarded(&guard))
            .unwrap_err();
        let ReasonerError::Exhausted { exhausted, partial } = err;
        assert_eq!(exhausted.resource, Resource::Rounds);
        assert_eq!(exhausted.limit, 1);
        assert!(partial.added > 0, "partial derivations are kept");
    }

    #[test]
    fn guarded_inference_budget_trips_and_keeps_partial() {
        use feo_rdf::governor::{Budget, Resource};
        let mut src = String::from("e:p a owl:TransitiveProperty .\n");
        for i in 0..40 {
            src.push_str(&format!("e:n{i} e:p e:n{} .\n", i + 1));
        }
        let mut g = graph(&src);
        let guard = Budget::new().with_max_inferred(10).start();
        let err = Reasoner::new()
            .materialize(&mut g, &MaterializeOptions::guarded(&guard))
            .unwrap_err();
        assert_eq!(err.exhausted().resource, Resource::InferredTriples);
        let ReasonerError::Exhausted { partial, .. } = err;
        // The partial closure is sound: whatever was derived is a real
        // consequence, and it stopped right after the budget.
        assert!(partial.added >= 10);
        assert!(partial.added < 40 * 40);
    }

    #[test]
    fn guarded_run_with_headroom_matches_unguarded() {
        use feo_rdf::governor::Budget;
        let src = "e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:C .\n\
                   e:p a owl:TransitiveProperty .\n\
                   e:x a e:A . e:x e:p e:y . e:y e:p e:z .";
        let mut g1 = graph(src);
        let r1 = Reasoner::new()
            .materialize(&mut g1, &Default::default())
            .expect("materialize");
        let mut g2 = graph(src);
        let guard = Budget::new().with_max_inferred(1_000_000).start();
        let r2 = Reasoner::new()
            .materialize(&mut g2, &MaterializeOptions::guarded(&guard))
            .unwrap();
        assert_eq!(r1.added, r2.added);
        assert_eq!(g1.len(), g2.len());
        assert!(r2.converged);
    }

    #[test]
    fn guarded_cancellation_stops_materialization() {
        use feo_rdf::governor::{Budget, CancelFlag, Resource};
        let flag = CancelFlag::new();
        flag.cancel();
        let guard = Budget::new().with_cancel(flag).start();
        let mut g = graph("e:A rdfs:subClassOf e:B . e:x a e:A .");
        let err = Reasoner::new()
            .materialize(&mut g, &MaterializeOptions::guarded(&guard))
            .unwrap_err();
        assert_eq!(err.exhausted().resource, Resource::Cancelled);
    }

    /// Left-hand-side shapes FEO does not have, one axiom per shape.
    const SHAPES_TBOX: &str = "\
        e:Deep owl:equivalentClass [ a owl:Restriction ; owl:onProperty e:p ;\n\
          owl:someValuesFrom [ a owl:Restriction ; owl:onProperty e:q ; owl:someValuesFrom e:C ] ] .\n\
        e:Any owl:equivalentClass [ owl:unionOf (\n\
          e:A\n\
          [ a owl:Restriction ; owl:onProperty e:v ; owl:hasValue e:k ]\n\
          [ a owl:Restriction ; owl:onProperty e:r ; owl:someValuesFrom e:D ] ) ] .\n\
        e:Both owl:equivalentClass [ owl:intersectionOf (\n\
          [ a owl:Restriction ; owl:onProperty e:s ; owl:someValuesFrom e:E ]\n\
          [ a owl:Restriction ; owl:onProperty e:t ; owl:hasValue e:on ] ) ] .\n\
        e:Linked owl:equivalentClass [ a owl:Restriction ; owl:onProperty e:u ;\n\
          owl:someValuesFrom e:F ] .\n\
        e:Hot owl:disjointWith [ a owl:Restriction ; owl:onProperty e:w ;\n\
          owl:someValuesFrom e:Cold ] .\n\
        e:Plain rdfs:subClassOf [ a owl:Restriction ; owl:onProperty e:m ; owl:allValuesFrom e:H ] .\n\
        e:Strict rdfs:subClassOf [ a owl:Restriction ; owl:onProperty e:m ;\n\
          owl:allValuesFrom [ a owl:Restriction ; owl:onProperty e:n ; owl:allValuesFrom e:G ] ] .\n";

    /// Closes `SHAPES_TBOX` + `abox`, then adds `delta` twice — to a
    /// copy that is re-materialized from scratch and to an overlay that
    /// is closed incrementally — and requires the same triples and the
    /// same inconsistency kinds from both, `expect` among the triples.
    /// Returns the kinds for the caller to pin.
    fn delta_like_full(abox: &str, delta: &str, expect: &[[&str; 3]]) -> Vec<InconsistencyKind> {
        use feo_rdf::turtle::parse_turtle;
        let mut base = graph(&format!("{SHAPES_TBOX}{abox}"));
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut base);
        let closed = reasoner
            .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        assert!(closed.is_consistent(), "{:?}", closed.inconsistencies);
        let delta = parse_turtle(
            &format!("@prefix e: <http://e/> .\n{delta}"),
            &Default::default(),
        )
        .expect("delta parses");

        let mut full = base.clone();
        let mut overlay = Overlay::new(&base);
        for t in &delta {
            full.insert(t);
            overlay.insert(t);
        }
        let from_scratch = reasoner
            .materialize(&mut full, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        let incremental = reasoner
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
            .expect("materialize_delta");

        let triples = |g: &dyn GraphView| -> BTreeSet<String> {
            g.iter_triples().map(|t| t.to_string()).collect()
        };
        let (full_set, overlay_set) = (triples(&full), triples(&overlay));
        assert!(
            full_set == overlay_set,
            "after {delta:?}: only from scratch {:?}, only incremental {:?}",
            full_set.difference(&overlay_set).collect::<Vec<_>>(),
            overlay_set.difference(&full_set).collect::<Vec<_>>()
        );
        for [s, p, o] in expect {
            assert!(has(&overlay, s, p, o), "missing {s} {p} {o}");
        }
        let kinds =
            |r: &InferenceResult| -> Vec<_> { r.inconsistencies.iter().map(|i| i.kind).collect() };
        assert_eq!(kinds(&from_scratch), kinds(&incremental));
        kinds(&incremental)
    }

    #[test]
    fn delta_enters_a_depth_two_left_hand_side_through_every_atom() {
        let deep = [["x", rdf::TYPE, "Deep"], ["x2", rdf::TYPE, "Deep"]];
        // The class atom, two edges below both roots.
        delta_like_full(
            "e:x e:p e:y . e:x2 e:p e:y . e:y e:q e:z .",
            "e:z a e:C .",
            &deep,
        );
        // The inner edge, one below.
        delta_like_full(
            "e:x e:p e:y . e:x2 e:p e:y . e:z a e:C .",
            "e:y e:q e:z .",
            &deep,
        );
        // The outer edge, at the root.
        delta_like_full(
            "e:y e:q e:z . e:z a e:C .",
            "e:x e:p e:y . e:x2 e:p e:y .",
            &deep,
        );
        // All of it new; and a chain that stops short derives nothing.
        delta_like_full(
            "e:o a e:Other .",
            "e:x e:p e:y . e:x2 e:p e:y . e:y e:q e:z . e:z a e:C . e:n e:p e:z .",
            &deep,
        );
        let mut short = graph(&format!("{SHAPES_TBOX}e:n e:p e:z . e:z a e:C ."));
        Reasoner::new()
            .materialize(&mut short, &Default::default())
            .expect("materialize");
        assert!(!has(&short, "n", rdf::TYPE, "Deep"));
    }

    #[test]
    fn delta_enters_a_union_through_each_arm() {
        let any = [["x", rdf::TYPE, "Any"]];
        delta_like_full("e:o a e:Other .", "e:x a e:A .", &any);
        delta_like_full("e:o a e:Other .", "e:x e:v e:k .", &any);
        delta_like_full("e:d a e:D .", "e:x e:r e:d .", &any);
        delta_like_full("e:x e:r e:d .", "e:d a e:D .", &any);
        // The wrong value enters no arm.
        delta_like_full("e:o a e:Other .", "e:y e:v e:other .", &[]);
    }

    #[test]
    fn delta_enters_an_intersection_through_either_conjunct() {
        let both = [["x", rdf::TYPE, "Both"]];
        delta_like_full("e:x e:s e:e1 . e:e1 a e:E .", "e:x e:t e:on .", &both);
        delta_like_full("e:x e:t e:on . e:e1 a e:E .", "e:x e:s e:e1 .", &both);
        delta_like_full("e:x e:t e:on . e:x e:s e:e1 .", "e:e1 a e:E .", &both);
        // The other direction of the equivalence: cls-hv1.
        delta_like_full("e:o a e:Other .", "e:x a e:Both .", &[["x", "t", "on"]]);
        // One conjunct alone is not enough.
        let mut half = graph(&format!("{SHAPES_TBOX}e:x e:s e:e1 . e:e1 a e:E ."));
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut half);
        reasoner
            .materialize(&mut half, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        let mut overlay = Overlay::new(&half);
        overlay.insert_iris("http://e/x", "http://e/t", "http://e/off");
        reasoner
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
            .expect("materialize_delta");
        assert!(!has(&overlay, "x", rdf::TYPE, "Both"));
    }

    #[test]
    fn delta_edge_to_an_already_satisfied_filler_fires() {
        delta_like_full(
            "e:f a e:F .",
            "e:x e:u e:f .",
            &[["x", rdf::TYPE, "Linked"]],
        );
    }

    #[test]
    fn delta_edge_under_a_universal_right_hand_side_fires() {
        // cls-avf for an individual that was a member all along: the new
        // edge enters no left-hand side, yet its object is owed the filler.
        delta_like_full("e:x a e:Plain .", "e:x e:m e:y .", &[["y", rdf::TYPE, "H"]]);
        // The same one universal further down, and the whole tree new.
        delta_like_full(
            "e:x a e:Strict . e:x e:m e:y .",
            "e:y e:n e:z .",
            &[["z", rdf::TYPE, "G"]],
        );
        delta_like_full(
            "e:y e:n e:z .",
            "e:x a e:Strict . e:x e:m e:y .",
            &[["z", rdf::TYPE, "G"]],
        );
    }

    /// A delta triple at any step of a chain joins the base's triples on
    /// either side of it.
    #[test]
    fn delta_chain_step_joins_base_partners() {
        let chain = "e:r owl:propertyChainAxiom ( e:p e:q e:s ) .\n";
        let ends = [["a", "r", "d"]];
        for (base, delta) in [
            ("e:b e:q e:c . e:c e:s e:d .", "e:a e:p e:b ."),
            ("e:a e:p e:b . e:c e:s e:d .", "e:b e:q e:c ."),
            ("e:a e:p e:b . e:b e:q e:c .", "e:c e:s e:d ."),
        ] {
            let mut g = graph(&format!("{chain}{base}"));
            let reasoner = Reasoner::new();
            let rules = reasoner.compile(&mut g);
            reasoner
                .materialize(&mut g, &MaterializeOptions::with_rules(&rules))
                .expect("materialize");
            let mut overlay = Overlay::new(&g);
            let triples = feo_rdf::turtle::parse_turtle(
                &format!("@prefix e: <http://e/> .\n{delta}"),
                &Default::default(),
            )
            .expect("delta parses");
            for t in &triples {
                overlay.insert(t);
            }
            reasoner
                .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
                .expect("materialize_delta");
            for [s, p, o] in ends {
                assert!(has(&overlay, s, p, o), "{delta}: missing {s} {p} {o}");
            }
        }
    }

    #[test]
    fn delta_disjointness_is_found_through_either_side() {
        let violated = vec![InconsistencyKind::DisjointClassesViolation];
        // The named side arrives.
        assert_eq!(
            delta_like_full("e:x e:w e:y . e:y a e:Cold .", "e:x a e:Hot .", &[]),
            violated
        );
        // The restriction side arrives through its edge…
        assert_eq!(
            delta_like_full("e:x a e:Hot . e:y a e:Cold .", "e:x e:w e:y .", &[]),
            violated
        );
        // …and through its filler, one edge below the individual.
        assert_eq!(
            delta_like_full("e:x a e:Hot . e:x e:w e:y .", "e:y a e:Cold .", &[]),
            violated
        );
        // A delta about somebody else stays silent.
        assert_eq!(
            delta_like_full("e:x a e:Hot . e:y a e:Cold .", "e:z e:w e:y .", &[]),
            vec![]
        );
    }

    /// Counts the scans that reach the base and the rows they return.
    struct CountingView<'g> {
        inner: &'g Graph,
        scans: std::cell::Cell<(u64, u64)>,
    }

    impl GraphView for CountingView<'_> {
        fn len(&self) -> usize {
            GraphView::len(self.inner)
        }
        fn term_count(&self) -> usize {
            GraphView::term_count(self.inner)
        }
        fn lookup(&self, term: &feo_rdf::Term) -> Option<TermId> {
            GraphView::lookup(self.inner, term)
        }
        fn term(&self, id: TermId) -> &feo_rdf::Term {
            GraphView::term(self.inner, id)
        }
        fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
            GraphView::contains_ids(self.inner, s, p, o)
        }
        // `objects` and `subjects` are the trait's defaults, so every
        // scan of the base, whichever method asked, is counted here.
        fn match_pattern(
            &self,
            s: Option<TermId>,
            p: Option<TermId>,
            o: Option<TermId>,
        ) -> Vec<[TermId; 3]> {
            let rows = GraphView::match_pattern(self.inner, s, p, o);
            let (calls, total) = self.scans.get();
            self.scans.set((calls + 1, total + rows.len() as u64));
            rows
        }
        fn iter_ids(&self) -> Box<dyn Iterator<Item = [TermId; 3]> + '_> {
            GraphView::iter_ids(self.inner)
        }
    }

    /// The cost of a question is a function of the question: one hub
    /// characteristic supports every recipe, and the same why-eat delta
    /// makes the same scans, returning the same number of rows, whether
    /// the hub has 50 recipes under it or 400. A count, not a timing.
    #[test]
    fn delta_closure_reads_do_not_grow_with_a_hub() {
        let scans_for = |recipes: usize| -> (u64, u64) {
            let mut src = String::from(
                "e:Fact owl:equivalentClass [ owl:intersectionOf (\n\
                   [ a owl:Restriction ; owl:onProperty e:supports ; owl:someValuesFrom e:Parameter ]\n\
                   [ a owl:Restriction ; owl:onProperty e:presentIn ; owl:hasValue e:Eco ] ) ] .\n\
                 e:hasParameter rdfs:range e:Parameter .\n\
                 e:budget e:presentIn e:Eco .\n",
            );
            for i in 0..recipes {
                src.push_str(&format!(
                    "e:budget e:supports e:r{i} . e:c{i} e:supports e:r{i} ; e:presentIn e:Eco .\n"
                ));
            }
            let mut g = graph(&src);
            let reasoner = Reasoner::new();
            let rules = reasoner.compile(&mut g);
            reasoner
                .materialize(&mut g, &MaterializeOptions::with_rules(&rules))
                .expect("materialize");
            let counting = CountingView {
                inner: &g,
                scans: Default::default(),
            };
            let mut overlay = Overlay::new(&counting);
            overlay.insert_iris("http://e/q", rdf::TYPE, "http://e/WhyEat");
            overlay.insert_iris("http://e/q", "http://e/hasParameter", "http://e/r7");
            let result = reasoner
                .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
                .expect("materialize_delta");
            assert!(has(&overlay, "budget", rdf::TYPE, "Fact"));
            assert!(has(&overlay, "c7", rdf::TYPE, "Fact"));
            assert!(!has(&overlay, "c8", rdf::TYPE, "Fact"));
            assert_eq!(result.added, 3, "r7 a Parameter and the two Facts");
            counting.scans.get()
        };
        let small = scans_for(50);
        assert!(small.0 > 0, "the base was never scanned");
        assert_eq!(small, scans_for(400));
    }
}

#[cfg(test)]
mod same_as_tests {
    use super::*;
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::Graph;

    fn graph(src: &str) -> Graph {
        let mut g = Graph::new();
        let prefixed = format!(
            "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n{}",
            owl::NS,
            src
        );
        parse_turtle_into(&prefixed, &mut g, &Default::default()).expect("test turtle parses");
        g
    }

    #[test]
    fn same_as_is_transitively_closed() {
        let mut g = graph(
            "e:a owl:sameAs e:b . e:b owl:sameAs e:c .\n\
             e:a e:p e:x .",
        );
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let a = g.lookup_iri("http://e/a").unwrap();
        let c = g.lookup_iri("http://e/c").unwrap();
        let same = g.lookup_iri(owl::SAME_AS).unwrap();
        assert!(g.contains_ids(a, same, c), "eq-trans: a sameAs c");
        assert!(g.contains_ids(c, same, a), "eq-sym over the closure");
        // eq-rep across the whole class.
        let p = g.lookup_iri("http://e/p").unwrap();
        let x = g.lookup_iri("http://e/x").unwrap();
        assert!(g.contains_ids(c, p, x), "triples replicate to c");
    }

    #[test]
    fn long_same_as_chain_terminates_and_closes() {
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("e:n{i} owl:sameAs e:n{} .\n", i + 1));
        }
        let mut g = graph(&src);
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r.rounds < 64);
        let first = g.lookup_iri("http://e/n0").unwrap();
        let last = g.lookup_iri("http://e/n8").unwrap();
        let same = g.lookup_iri(owl::SAME_AS).unwrap();
        assert!(g.contains_ids(first, same, last));
    }
}

#[cfg(test)]
mod disjoint_property_tests {
    use super::*;
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::Graph;

    #[test]
    fn disjoint_properties_violation_detected() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:likes owl:propertyDisjointWith e:dislikes .\n\
                 e:u e:likes e:kale . e:u e:dislikes e:kale .",
                owl::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r
            .inconsistencies
            .iter()
            .any(|i| i.kind == InconsistencyKind::DisjointPropertiesViolation));
    }

    /// Both sides of the violation fresh in one delta: reported once,
    /// with the properties in declaration order.
    #[test]
    fn delta_reports_a_disjoint_property_violation_once() {
        let mut base = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:likes owl:propertyDisjointWith e:dislikes .",
                owl::NS
            ),
            &mut base,
            &Default::default(),
        )
        .unwrap();
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut base);
        reasoner
            .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        let mut overlay = Overlay::new(&base);
        overlay.insert_iris("http://e/u", "http://e/likes", "http://e/kale");
        overlay.insert_iris("http://e/u", "http://e/dislikes", "http://e/kale");
        let r = reasoner
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
            .expect("materialize_delta");
        let details: Vec<&str> = r
            .inconsistencies
            .iter()
            .filter(|i| i.kind == InconsistencyKind::DisjointPropertiesViolation)
            .map(|i| i.detail.as_str())
            .collect();
        assert_eq!(
            details,
            ["disjoint properties likes and dislikes both relate u to kale"]
        );
    }

    #[test]
    fn disjoint_properties_ok_when_pairs_differ() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:likes owl:propertyDisjointWith e:dislikes .\n\
                 e:u e:likes e:kale . e:u e:dislikes e:okra .",
                owl::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(r.is_consistent(), "{:?}", r.inconsistencies);
    }
}
