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
//! Consistency: cax-dw (disjoint classes), cls-nothing2, prp-irp
//! (irreflexive), prp-asyp (asymmetric), eq-diff1 (sameAs ∧ differentFrom).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use feo_rdf::governor::{Exhausted, Guard, Resource};
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{GraphStore, GraphView, Overlay, TermId};

use crate::axiom::{Axiom, ClassExpr, Ontology};
use crate::extract::extract_axioms;

/// Tuning knobs for materialization.
#[derive(Debug, Clone)]
pub struct ReasonerOptions {
    /// Insert the transitive closure of `rdfs:subClassOf` /
    /// `rdfs:subPropertyOf` over named classes/properties into the graph,
    /// so SPARQL queries can use single-hop subclass patterns the way the
    /// paper's Listing 1 does. Default: true.
    pub materialize_schema_closure: bool,
    /// Abort after this many outer rounds (safety valve; the fixpoint
    /// normally converges in a handful). Default: 64.
    pub max_rounds: usize,
    /// Run consistency checks after the fixpoint. Default: true.
    pub check_consistency: bool,
    /// Record, for every inferred triple, the rule that produced it and
    /// its premise triples — the analogue of Pellet's axiom explanations.
    /// Default: false (costs memory proportional to the inferred set).
    pub track_derivations: bool,
}

impl Default for ReasonerOptions {
    fn default() -> Self {
        ReasonerOptions {
            materialize_schema_closure: true,
            max_rounds: 64,
            check_consistency: true,
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
/// [`Reasoner::materialize`] recompiles the TBox on every call, so graphs
/// whose schema changes between runs keep working. The snapshot + overlay
/// pipeline instead calls [`Reasoner::compile`] once on the base graph and
/// then [`Reasoner::materialize_delta`] per session overlay, skipping both
/// re-extraction and the full fixpoint.
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
        let compiled;
        let rules = match opts.rules {
            Some(r) => r,
            None => {
                compiled = CompiledRules::compile(graph);
                &compiled
            }
        };
        let mut engine = Engine::new(graph, rules, &self.options);
        engine.guard = opts.guard;
        settle(engine.run())
    }

    /// Extracts the graph's axioms and compiles them into reusable rule
    /// tables (see [`CompiledRules`]).
    pub fn compile(&self, graph: &mut impl GraphStore) -> CompiledRules {
        CompiledRules::compile(graph)
    }

    /// Semi-naïve incremental re-closure of an overlay whose base is
    /// already materialized: only consequences reachable from the
    /// overlay's delta triples are derived, which is equivalent to a full
    /// re-materialization of `base ∪ delta` when
    ///
    /// - the base was materialized under the same `rules`, and
    /// - the delta contains ABox assertions only (the TBox, and therefore
    ///   `rules`, is unchanged).
    ///
    /// All derived triples land in the overlay's delta; the base is never
    /// touched. Consistency checking (when enabled) is likewise scoped to
    /// the delta: only violations involving delta-affected triples or
    /// individuals are reported.
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
        let seed: Vec<[TermId; 3]> = overlay.delta_log().to_vec();
        let compiled;
        let rules = match opts.rules {
            Some(r) => r,
            None => {
                compiled = CompiledRules::compile(overlay);
                &compiled
            }
        };
        let mut engine = Engine::new(overlay, rules, &self.options);
        engine.guard = opts.guard;
        settle(engine.run_delta(&seed))
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
    sup_class: HashMap<TermId, BTreeSet<TermId>>,
    /// Named-property superproperties (transitive).
    sup_prop: HashMap<TermId, BTreeSet<TermId>>,
    inverses: HashMap<TermId, Vec<TermId>>,
    transitive: HashSet<TermId>,
    symmetric: HashSet<TermId>,
    asymmetric: HashSet<TermId>,
    functional: HashSet<TermId>,
    inverse_functional: HashSet<TermId>,
    irreflexive: HashSet<TermId>,
    domains: HashMap<TermId, Vec<ClassExpr>>,
    ranges: HashMap<TermId, Vec<ClassExpr>>,
    chains: Vec<(Vec<TermId>, TermId)>,
    /// Subclass-like pairs where at least one side is a complex expression.
    complex: Vec<(ClassExpr, ClassExpr)>,
    disjoint_classes: Vec<(ClassExpr, ClassExpr)>,
    disjoint_properties: Vec<(TermId, TermId)>,
    different_from: Vec<(TermId, TermId)>,
    /// Asserted `owl:sameAs` pairs (fed to the alias machinery at the
    /// start of a full run).
    initial_same_as: Vec<(TermId, TermId)>,
    /// Per `complex` axiom (same index), the triggers a new triple can
    /// fire it through in delta mode.
    complex_triggers: Vec<AxiomTriggers>,
    /// Per `disjoint_classes` pair (same index), the triggers of both
    /// sides: a new triple matching one nominates the individuals whose
    /// membership in either side it can have changed.
    disjoint_triggers: Vec<Vec<Trigger>>,
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

        let mut sup_class: HashMap<TermId, BTreeSet<TermId>> = HashMap::new();
        let mut sup_prop: HashMap<TermId, BTreeSet<TermId>> = HashMap::new();
        let mut inverses: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut transitive = HashSet::new();
        let mut symmetric = HashSet::new();
        let mut asymmetric = HashSet::new();
        let mut functional = HashSet::new();
        let mut inverse_functional = HashSet::new();
        let mut irreflexive = HashSet::new();
        let mut domains: HashMap<TermId, Vec<ClassExpr>> = HashMap::new();
        let mut ranges: HashMap<TermId, Vec<ClassExpr>> = HashMap::new();
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
                Axiom::SubPropertyOf(a, b) => {
                    sup_prop.entry(*a).or_default().insert(*b);
                }
                Axiom::EquivalentProperties(a, b) => {
                    sup_prop.entry(*a).or_default().insert(*b);
                    sup_prop.entry(*b).or_default().insert(*a);
                }
                Axiom::InverseOf(a, b) => {
                    inverses.entry(*a).or_default().push(*b);
                    inverses.entry(*b).or_default().push(*a);
                }
                Axiom::TransitiveProperty(p) => {
                    transitive.insert(*p);
                }
                Axiom::SymmetricProperty(p) => {
                    symmetric.insert(*p);
                }
                Axiom::AsymmetricProperty(p) => {
                    asymmetric.insert(*p);
                }
                Axiom::FunctionalProperty(p) => {
                    functional.insert(*p);
                }
                Axiom::InverseFunctionalProperty(p) => {
                    inverse_functional.insert(*p);
                }
                Axiom::IrreflexiveProperty(p) => {
                    irreflexive.insert(*p);
                }
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

        let complex_triggers = complex
            .iter()
            .map(|(sub, sup)| AxiomTriggers::compile(sub, sup))
            .collect();
        // Disjointness tests both sides as membership checks.
        let disjoint_triggers = disjoint_classes
            .iter()
            .map(|(a, b)| [a, b].into_iter().flat_map(triggers_of).collect())
            .collect();

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
            complex_triggers,
            disjoint_triggers,
            axiom_count: ontology.axioms.len(),
            warnings: ontology.warnings.clone(),
        }
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
/// triple changes it) and `AllValuesFrom` / `ComplementOf` none because
/// [`satisfies_in`] never holds for them.
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

impl Trigger {
    fn matches(&self, rdf_type: TermId, [_, p, o]: [TermId; 3]) -> bool {
        match self.atom {
            TriggerAtom::Type(c) => p == rdf_type && o == c,
            TriggerAtom::Value(q, v) => p == q && o == v,
            TriggerAtom::Edge(q) => p == q,
        }
    }
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

/// The delta-mode entry points of one complex axiom `sub ⊑ sup`.
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
}

impl AxiomTriggers {
    fn compile(sub: &ClassExpr, sup: &ClassExpr) -> Self {
        let mut rhs_universals = Vec::new();
        collect_universal_triggers(sup, &mut Vec::new(), &mut rhs_universals);
        AxiomTriggers {
            lhs: triggers_of(sub),
            rhs_universals,
        }
    }
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
    match expr {
        ClassExpr::Named(c) => g.contains_ids(x, rules.rdf_type, *c),
        ClassExpr::IntersectionOf(es) => es.iter().all(|e| satisfies_in(g, rules, x, e)),
        ClassExpr::UnionOf(es) => es.iter().any(|e| satisfies_in(g, rules, x, e)),
        ClassExpr::SomeValuesFrom { property, filler } => g
            .objects(x, *property)
            .into_iter()
            .any(|o| satisfies_in(g, rules, o, filler)),
        ClassExpr::HasValue { property, value } => g.contains_ids(x, *property, *value),
        ClassExpr::OneOf(ids) => ids.contains(&x),
        // Open-world: membership in a complement or universal
        // restriction is never derived, matching OWL 2 RL.
        ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => false,
    }
}

/// [`satisfies_in`] for `x ∈ expr` when a triple matching one
/// [`Trigger`] of `expr` is already known to be there: the atoms on the
/// trigger's `route` are true by construction, so only what branches
/// off it is evaluated. `below` holds the nodes the walk back from the
/// triple's subject passed, the subject first and `x`'s successor last;
/// a `SomeValuesFrom` on the route descends to that known node instead
/// of enumerating `objects`, and once `below` is used up it is the edge
/// atom itself, whose filler is checked on the triple's `object`. A
/// union takes the pinned arm only — another arm made true by another
/// new triple is that triple's trigger.
fn holds_pinned<V: GraphView + ?Sized>(
    g: &V,
    rules: &CompiledRules,
    x: TermId,
    expr: &ClassExpr,
    route: &[usize],
    below: &[TermId],
    object: TermId,
) -> bool {
    match expr {
        ClassExpr::Named(_) | ClassExpr::HasValue { .. } => true,
        ClassExpr::IntersectionOf(es) => {
            let Some((&pinned, route)) = route.split_first() else {
                return false;
            };
            es.iter().enumerate().all(|(i, e)| {
                if i == pinned {
                    holds_pinned(g, rules, x, e, route, below, object)
                } else {
                    satisfies_in(g, rules, x, e)
                }
            })
        }
        ClassExpr::UnionOf(es) => match route.split_first() {
            Some((&pinned, route)) => es
                .get(pinned)
                .is_some_and(|e| holds_pinned(g, rules, x, e, route, below, object)),
            None => false,
        },
        ClassExpr::SomeValuesFrom { filler, .. } => match below.split_last() {
            Some((&next, below)) => holds_pinned(g, rules, next, filler, route, below, object),
            None => satisfies_in(g, rules, object, filler),
        },
        ClassExpr::OneOf(_) | ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => false,
    }
}

/// Satisfaction check that also collects the witnessing triples — the
/// dual of [`satisfies_in`] used for derivation tracking.
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
        ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => false,
    }
}

/// The running fixpoint state over any [`GraphStore`].
struct Engine<'a, S: GraphStore> {
    g: &'a mut S,
    rules: &'a CompiledRules,
    opts: &'a ReasonerOptions,
    result: InferenceResult,
    /// sameAs alias sets, maintained incrementally.
    aliases: HashMap<TermId, BTreeSet<TermId>>,
    queue: VecDeque<[TermId; 3]>,
    /// Delta mode only: the seed and every triple derived since, in
    /// insertion order, for scoping the complex/chain/consistency passes
    /// to what the delta could have changed.
    delta_mode: bool,
    new_triples: Vec<[TermId; 3]>,
    /// Per complex axiom, the position in `new_triples` up to which its
    /// triggers have been matched.
    complex_cursors: Vec<usize>,
    /// Position in `new_triples` up to which chains have been evaluated.
    chain_cursor: usize,
    /// Execution governor for the guarded entry points; `None` on the
    /// legacy (unguarded) paths.
    guard: Option<&'a Guard>,
    /// Set when the guard trips; every hot loop bails out once this is
    /// populated so the engine unwinds quickly with its partial result.
    tripped: Option<Exhausted>,
}

impl<'a, S: GraphStore> Engine<'a, S> {
    fn new(g: &'a mut S, rules: &'a CompiledRules, opts: &'a ReasonerOptions) -> Self {
        Engine {
            g,
            rules,
            opts,
            result: InferenceResult {
                axiom_count: rules.axiom_count,
                warnings: rules.warnings.clone(),
                ..Default::default()
            },
            aliases: HashMap::new(),
            queue: VecDeque::new(),
            delta_mode: false,
            new_triples: Vec::new(),
            complex_cursors: vec![0; rules.complex.len()],
            chain_cursor: 0,
            guard: None,
            tripped: None,
        }
    }

    /// Polls the governor (amortized wall-clock / cancellation check) and
    /// reports whether execution should stop. Hot loops call this at
    /// their iteration boundaries.
    #[inline]
    fn guard_tripped(&mut self) -> bool {
        if self.tripped.is_some() {
            return true;
        }
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped = Some(exhausted);
                return true;
            }
        }
        false
    }

    /// Handles the outer round cap shared by both fixpoints. Returns true
    /// when the loop must stop. On the legacy path this flips
    /// `converged` and records a warning (the historical behavior); on
    /// the guarded path it additionally trips the guard so callers get a
    /// typed `Exhausted { resource: Rounds }`.
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

    fn run(mut self) -> (InferenceResult, Option<Exhausted>) {
        for &(a, b) in &self.rules.initial_same_as.clone() {
            self.note_alias(a, b);
        }
        if self.opts.materialize_schema_closure {
            self.materialize_schema();
        }

        // Seed: every asserted triple can fire instance rules.
        let all: Vec<[TermId; 3]> = self.g.iter_ids().collect();
        self.queue.extend(all);

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
        } else if self.opts.check_consistency {
            self.check_consistency();
        }
        (self.result, self.tripped)
    }

    /// Semi-naïve delta closure: derive only what the seed triples (and
    /// their consequences) can newly entail, assuming everything else is
    /// already closed under `rules`.
    fn run_delta(mut self, seed: &[[TermId; 3]]) -> (InferenceResult, Option<Exhausted>) {
        self.delta_mode = true;
        // Aliases discovered during the base closure exist only as
        // `owl:sameAs` triples there; rebuild the alias map so eq-rep
        // fires when a delta triple touches an aliased individual. On a
        // closed base every re-noted pair is a no-op insert.
        let pairs: Vec<(TermId, TermId)> = self
            .g
            .match_pattern(None, Some(self.rules.same_as), None)
            .into_iter()
            .map(|t| (t[0], t[2]))
            .collect();
        for (a, b) in pairs {
            self.note_alias(a, b);
        }
        self.new_triples.extend_from_slice(seed);
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
            self.complex_pass_delta();
            self.chain_pass_delta();
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
            self.result.converged = false;
        } else if self.opts.check_consistency {
            self.check_consistency_delta();
        }
        (self.result, self.tripped)
    }

    /// Every way `triple` enters one of `triggers`: per matching trigger,
    /// each individual that reaches the triple's subject backward along
    /// the trigger's `path` (the root), with the nodes walked on the way
    /// up — the subject first, the root's successor last, as
    /// [`holds_pinned`] takes them. Empty once the guard has tripped.
    fn entries<'t>(
        &mut self,
        triggers: &'t [Trigger],
        triple: [TermId; 3],
    ) -> Vec<(&'t Trigger, TermId, Vec<TermId>)> {
        let mut out = Vec::new();
        for trigger in triggers {
            if self.guard_tripped() {
                return Vec::new();
            }
            if !trigger.matches(self.rules.rdf_type, triple) {
                continue;
            }
            let mut level = vec![(triple[0], Vec::new())];
            for &step in trigger.path.iter().rev() {
                if self.guard_tripped() {
                    return Vec::new();
                }
                let mut above = Vec::new();
                for (node, below) in &level {
                    for parent in self.g.subjects(step, *node) {
                        let mut below = below.clone();
                        below.push(*node);
                        above.push((parent, below));
                    }
                }
                level = above;
            }
            out.extend(
                level
                    .into_iter()
                    .map(|(root, below)| (trigger, root, below)),
            );
        }
        out
    }

    /// Delta-scoped [`Engine::complex_pass`], as a semi-naïve join: each
    /// axiom matches the triples added since its last turn against its
    /// own triggers and evaluates its left-hand side pinned to the
    /// triple that fired it, instead of re-testing every individual near
    /// the delta. Exact because an individual that newly satisfies a
    /// left-hand side has a new triple somewhere in its witness tree;
    /// that triple matches one atom, the individual reaches the triple's
    /// subject along exactly that atom's path, and when the last such
    /// triple comes up the rest of the tree is already in the graph.
    /// Individuals that held before are the closed base's business,
    /// except for what `rhs_universals` covers.
    fn complex_pass_delta(&mut self) {
        let rules = self.rules;
        for (i, (sub, sup)) in rules.complex.iter().enumerate() {
            let triggers = &rules.complex_triggers[i];
            let fresh = std::mem::replace(&mut self.complex_cursors[i], self.new_triples.len())
                ..self.new_triples.len();
            // Id order, the order a sorted candidate sweep applies in.
            let mut roots: BTreeSet<TermId> = BTreeSet::new();
            for idx in fresh {
                let triple = self.new_triples[idx];
                for (trigger, root, below) in self.entries(&triggers.lhs, triple) {
                    if self.guard_tripped() {
                        return;
                    }
                    if !roots.contains(&root)
                        && holds_pinned(
                            &*self.g,
                            rules,
                            root,
                            sub,
                            &trigger.route,
                            &below,
                            triple[2],
                        )
                    {
                        roots.insert(root);
                    }
                }
                for (_, root, _) in self.entries(&triggers.rhs_universals, triple) {
                    if self.guard_tripped() {
                        return;
                    }
                    if !roots.contains(&root) && self.satisfies(root, sub) {
                        roots.insert(root);
                    }
                }
            }
            for x in roots {
                if self.guard_tripped() {
                    return;
                }
                self.conclude(x, sub, sup);
            }
        }
    }

    /// Delta-scoped [`Engine::chain_pass`]: each not-yet-processed new
    /// triple is matched against every chain position, extending left
    /// and right through the (base ∪ delta) view.
    fn chain_pass_delta(&mut self) {
        let rules = self.rules;
        let fresh: Vec<[TermId; 3]> = self.new_triples[self.chain_cursor..].to_vec();
        self.chain_cursor = self.new_triples.len();
        if rules.chains.is_empty() || fresh.is_empty() {
            return;
        }
        let tracking = self.opts.track_derivations;
        for (chain, q) in &rules.chains {
            for &[a, p, b] in &fresh {
                if self.guard_tripped() {
                    return;
                }
                for i in 0..chain.len() {
                    if chain[i] != p {
                        continue;
                    }
                    // Sequences over chain[..i] ending at `a`, walked
                    // backward (steps recorded in reverse).
                    let mut lefts: Vec<(TermId, Vec<[TermId; 3]>)> = vec![(a, Vec::new())];
                    for &pj in chain[..i].iter().rev() {
                        let mut next = Vec::new();
                        for (node, steps) in lefts {
                            for t in self.g.match_pattern(None, Some(pj), Some(node)) {
                                let mut s2 = steps.clone();
                                if tracking {
                                    s2.push(t);
                                }
                                next.push((t[0], s2));
                            }
                        }
                        lefts = next;
                        if lefts.is_empty() {
                            break;
                        }
                    }
                    // Sequences over chain[i+1..] starting at `b`.
                    let mut rights: Vec<(TermId, Vec<[TermId; 3]>)> = vec![(b, Vec::new())];
                    for &pj in &chain[i + 1..] {
                        let mut next = Vec::new();
                        for (node, steps) in rights {
                            for z in self.g.objects(node, pj) {
                                let mut s2 = steps.clone();
                                if tracking {
                                    s2.push([node, pj, z]);
                                }
                                next.push((z, s2));
                            }
                        }
                        rights = next;
                        if rights.is_empty() {
                            break;
                        }
                    }
                    for (start, lsteps) in &lefts {
                        for (end, rsteps) in &rights {
                            let mut steps = Vec::new();
                            if tracking {
                                steps.extend(lsteps.iter().rev().copied());
                                steps.push([a, p, b]);
                                steps.extend(rsteps.iter().copied());
                            }
                            self.add_by("prp-spo2", &steps, *start, *q, *end);
                        }
                    }
                }
            }
        }
    }

    /// Delta-scoped consistency: report only violations a delta triple or
    /// delta-affected individual participates in. A consistent base stays
    /// silent; a violation introduced by the session is always caught.
    /// Disjointness is tested on the individuals some new triple enters
    /// either side's expression for (the triggers of
    /// [`Engine::complex_pass_delta`], over all of `new_triples`): on a
    /// consistent base that reports exactly what testing every
    /// individual would, since a new violation needs a new triple in
    /// one side's witness tree.
    fn check_consistency_delta(&mut self) {
        let rules = self.rules;
        for (i, (a, b)) in rules.disjoint_classes.iter().enumerate() {
            let mut cand: BTreeSet<TermId> = BTreeSet::new();
            for idx in 0..self.new_triples.len() {
                let triple = self.new_triples[idx];
                for (_, root, _) in self.entries(&rules.disjoint_triggers[i], triple) {
                    cand.insert(root);
                }
            }
            for x in cand {
                if self.satisfies(x, a) && self.satisfies(x, b) {
                    let detail =
                        format!("{} is an instance of disjoint classes", self.g.term_name(x));
                    self.result.inconsistencies.push(Inconsistency {
                        kind: InconsistencyKind::DisjointClassesViolation,
                        detail,
                    });
                }
            }
        }
        let nothing = self.g.lookup_iri(owl::NOTHING);
        for idx in 0..self.new_triples.len() {
            let [x, p, y] = self.new_triples[idx];
            for &(pp, qq) in &rules.disjoint_properties {
                let other = if p == pp {
                    qq
                } else if p == qq {
                    pp
                } else {
                    continue;
                };
                if self.g.contains_ids(x, other, y) {
                    let detail = format!(
                        "disjoint properties {} and {} both relate {} to {}",
                        self.g.term_name(p),
                        self.g.term_name(other),
                        self.g.term_name(x),
                        self.g.term_name(y)
                    );
                    self.result.inconsistencies.push(Inconsistency {
                        kind: InconsistencyKind::DisjointPropertiesViolation,
                        detail,
                    });
                }
            }
            if p == rules.rdf_type && Some(y) == nothing {
                let detail = format!("{} is an instance of owl:Nothing", self.g.term_name(x));
                self.result.inconsistencies.push(Inconsistency {
                    kind: InconsistencyKind::NothingHasInstance,
                    detail,
                });
            }
            if rules.irreflexive.contains(&p) && x == y {
                let detail = format!(
                    "irreflexive property {} relates {} to itself",
                    self.g.term_name(p),
                    self.g.term_name(x)
                );
                self.result.inconsistencies.push(Inconsistency {
                    kind: InconsistencyKind::IrreflexiveViolation,
                    detail,
                });
            }
            if rules.asymmetric.contains(&p) && x != y && self.g.contains_ids(y, p, x) {
                let detail = format!(
                    "asymmetric property {} holds in both directions between {} and {}",
                    self.g.term_name(p),
                    self.g.term_name(x),
                    self.g.term_name(y)
                );
                self.result.inconsistencies.push(Inconsistency {
                    kind: InconsistencyKind::AsymmetricViolation,
                    detail,
                });
            }
        }
        for &(a, b) in &rules.different_from {
            if self.g.contains_ids(a, rules.same_as, b) || self.g.contains_ids(b, rules.same_as, a)
            {
                let detail = format!(
                    "{} and {} are both sameAs and differentFrom",
                    self.g.term_name(a),
                    self.g.term_name(b)
                );
                self.result.inconsistencies.push(Inconsistency {
                    kind: InconsistencyKind::SameAndDifferent,
                    detail,
                });
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
            if self.delta_mode {
                self.new_triples.push([s, p, o]);
            }
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

    fn materialize_schema(&mut self) {
        let sco = self.g.intern_iri(rdfs::SUB_CLASS_OF);
        let spo = self.g.intern_iri(rdfs::SUB_PROPERTY_OF);
        let class_pairs: Vec<(TermId, TermId)> = self
            .rules
            .sup_class
            .iter()
            .flat_map(|(&c, sups)| sups.iter().map(move |&s| (c, s)))
            .collect();
        for (c, s) in class_pairs {
            self.add_by("scm-sco", &[], c, sco, s);
        }
        let prop_pairs: Vec<(TermId, TermId)> = self
            .rules
            .sup_prop
            .iter()
            .flat_map(|(&p, sups)| sups.iter().map(move |&s| (p, s)))
            .collect();
        for (p, s) in prop_pairs {
            self.add_by("scm-spo", &[], p, spo, s);
        }
    }

    /// Instance-rule propagation driven by a worklist of new triples; the
    /// queue is empty on return unless the guard tripped.
    fn drain_queue(&mut self) {
        while let Some([s, p, o]) = self.queue.pop_front() {
            if self.guard_tripped() {
                return;
            }
            // cax-sco: type inheritance through the named-class closure.
            if p == self.rules.rdf_type {
                if let Some(sups) = self.rules.sup_class.get(&o) {
                    for sup in sups.clone() {
                        self.add_by("cax-sco", &[[s, p, o]], s, self.rules.rdf_type, sup);
                    }
                }
                continue;
            }
            if p == self.rules.same_as {
                self.note_alias(s, o);
                self.add_by("eq-sym", &[[s, p, o]], o, self.rules.same_as, s);
                self.replicate_for_alias(s, o);
                self.replicate_for_alias(o, s);
                continue;
            }

            // prp-spo1
            if let Some(sups) = self.rules.sup_prop.get(&p) {
                for q in sups.clone() {
                    self.add_by("prp-spo1", &[[s, p, o]], s, q, o);
                }
            }
            // prp-inv
            if let Some(invs) = self.rules.inverses.get(&p) {
                for q in invs.clone() {
                    self.add_by("prp-inv", &[[s, p, o]], o, q, s);
                }
            }
            // prp-symp
            if self.rules.symmetric.contains(&p) {
                self.add_by("prp-symp", &[[s, p, o]], o, p, s);
            }
            // prp-trp
            if self.rules.transitive.contains(&p) {
                for z in self.g.objects(o, p) {
                    self.add_by("prp-trp", &[[s, p, o], [o, p, z]], s, p, z);
                }
                let xs: Vec<TermId> = self
                    .g
                    .match_pattern(None, Some(p), Some(s))
                    .into_iter()
                    .map(|t| t[0])
                    .collect();
                for x in xs {
                    self.add_by("prp-trp", &[[x, p, s], [s, p, o]], x, p, o);
                }
            }
            // prp-dom / prp-rng
            if let Some(cs) = self.rules.domains.get(&p).cloned() {
                for c in cs {
                    self.apply_membership(s, &c);
                }
            }
            if let Some(cs) = self.rules.ranges.get(&p).cloned() {
                for c in cs {
                    self.apply_membership(o, &c);
                }
            }
            // prp-fp: functional — two objects are the same individual.
            if self.rules.functional.contains(&p) {
                for o2 in self.g.objects(s, p) {
                    if o2 != o && self.g.term(o).is_resource() && self.g.term(o2).is_resource() {
                        self.add_by(
                            "prp-fp",
                            &[[s, p, o], [s, p, o2]],
                            o,
                            self.rules.same_as,
                            o2,
                        );
                    }
                }
            }
            // prp-ifp
            if self.rules.inverse_functional.contains(&p) {
                for s2 in self.g.subjects(p, o) {
                    if s2 != s {
                        self.add_by(
                            "prp-ifp",
                            &[[s, p, o], [s2, p, o]],
                            s,
                            self.rules.same_as,
                            s2,
                        );
                    }
                }
            }
            // eq-rep: replicate across known aliases of s and o.
            if let Some(al) = self.aliases.get(&s).cloned() {
                for a in al {
                    self.add_by("eq-rep-s", &[[s, p, o]], a, p, o);
                }
            }
            if let Some(al) = self.aliases.get(&o).cloned() {
                for a in al {
                    self.add_by("eq-rep-o", &[[s, p, o]], s, p, a);
                }
            }
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

    /// One complex axiom `sub ⊑ sup` over `cand`: every candidate that
    /// satisfies `sub` gets `sup`'s consequences asserted. Returns false
    /// when the guard tripped mid-sweep.
    fn sweep_axiom(&mut self, cand: &[TermId], sub: &ClassExpr, sup: &ClassExpr) -> bool {
        for &x in cand {
            if self.guard_tripped() {
                return false;
            }
            // With tracking on, the witness search is the membership test.
            if self.opts.track_derivations || self.satisfies(x, sub) {
                self.conclude(x, sub, sup);
            }
        }
        true
    }

    /// Asserts `sup`'s consequences for an `x` that satisfies `sub`,
    /// with `sub`'s witness triples as premises when derivations are
    /// tracked (nothing is asserted if no witness is found).
    fn conclude(&mut self, x: TermId, sub: &ClassExpr, sup: &ClassExpr) {
        if self.opts.track_derivations {
            let mut witnesses = Vec::new();
            if self.witnesses(x, sub, &mut witnesses) {
                self.apply_membership_by(x, sup, &witnesses);
            }
        } else {
            self.apply_membership(x, sup);
        }
    }

    /// One pass over all complex subclass-like axioms.
    fn complex_pass(&mut self) {
        let rules = self.rules;
        for (sub, sup) in &rules.complex {
            let cand = self.candidates(sub);
            if !self.sweep_axiom(&cand, sub, sup) {
                return;
            }
        }
    }

    /// Property-chain evaluation (prp-spo2), full pass. When derivation
    /// tracking is on, the walked step triples are recorded as premises.
    fn chain_pass(&mut self) {
        let chains = self.rules.chains.clone();
        let tracking = self.opts.track_derivations;
        for (chain, q) in &chains {
            let mut frontier: Vec<(TermId, TermId, Vec<[TermId; 3]>)> = self
                .g
                .match_pattern(None, Some(chain[0]), None)
                .into_iter()
                .map(|t| {
                    let steps = if tracking { vec![t] } else { Vec::new() };
                    (t[0], t[2], steps)
                })
                .collect();
            for &p in &chain[1..] {
                let mut next = Vec::new();
                for (start, mid, steps) in frontier {
                    if self.guard_tripped() {
                        return;
                    }
                    for z in self.g.objects(mid, p) {
                        let mut s2 = steps.clone();
                        if tracking {
                            s2.push([mid, p, z]);
                        }
                        next.push((start, z, s2));
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            for (s, o, steps) in frontier {
                self.add_by("prp-spo2", &steps, s, *q, o);
            }
        }
    }

    /// Sound membership check: does the graph entail `x ∈ expr` using only
    /// already-materialized triples?
    fn satisfies(&self, x: TermId, expr: &ClassExpr) -> bool {
        satisfies_in(&*self.g, self.rules, x, expr)
    }

    /// Asserts the consequences of `x ∈ expr`.
    fn apply_membership(&mut self, x: TermId, expr: &ClassExpr) {
        self.apply_membership_by(x, expr, &[]);
    }

    /// Like [`Engine::apply_membership`], recording `premises` as the
    /// evidence for every consequence (used when derivation tracking is
    /// on: the premises are the witness triples of the left-hand side).
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

    /// Satisfaction check that also collects the witnessing triples —
    /// used for derivation tracking. Semantically identical to
    /// [`Engine::satisfies`].
    fn witnesses(&self, x: TermId, expr: &ClassExpr, out: &mut Vec<[TermId; 3]>) -> bool {
        witnesses_in(&*self.g, self.rules, x, expr, out)
    }

    /// Individuals that could plausibly satisfy `expr` — a superset filter
    /// used to avoid scanning every node for every axiom.
    fn candidates(&self, expr: &ClassExpr) -> Vec<TermId> {
        match expr {
            ClassExpr::Named(c) => self.g.instances_of(*c),
            ClassExpr::IntersectionOf(es) => {
                // Use the conjunct with the most selective concrete
                // candidate set; fall back to the first with any.
                let mut best: Option<Vec<TermId>> = None;
                for e in es {
                    if matches!(
                        e,
                        ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_)
                    ) {
                        continue;
                    }
                    let c = self.candidates(e);
                    if best.as_ref().is_none_or(|b| c.len() < b.len()) {
                        best = Some(c);
                    }
                }
                best.unwrap_or_else(|| self.all_subjects())
            }
            ClassExpr::UnionOf(es) => {
                let mut out: BTreeSet<TermId> = BTreeSet::new();
                for e in es {
                    out.extend(self.candidates(e));
                }
                out.into_iter().collect()
            }
            ClassExpr::SomeValuesFrom { property, .. } => {
                let mut out: BTreeSet<TermId> = BTreeSet::new();
                for t in self.g.match_pattern(None, Some(*property), None) {
                    out.insert(t[0]);
                }
                out.into_iter().collect()
            }
            ClassExpr::HasValue { property, value } => self.g.subjects(*property, *value),
            ClassExpr::OneOf(ids) => ids.clone(),
            ClassExpr::AllValuesFrom { .. } | ClassExpr::ComplementOf(_) => self.all_subjects(),
        }
    }

    fn all_subjects(&self) -> Vec<TermId> {
        let mut out: BTreeSet<TermId> = BTreeSet::new();
        for [s, _, _] in self.g.iter_ids() {
            out.insert(s);
        }
        out.into_iter().collect()
    }

    fn check_consistency(&mut self) {
        // cax-dw: disjoint classes sharing a member.
        let pairs = self.rules.disjoint_classes.clone();
        for (a, b) in &pairs {
            for x in self.candidates(a) {
                if self.satisfies(x, a) && self.satisfies(x, b) {
                    let detail =
                        format!("{} is an instance of disjoint classes", self.g.term_name(x));
                    self.result.inconsistencies.push(Inconsistency {
                        kind: InconsistencyKind::DisjointClassesViolation,
                        detail,
                    });
                }
            }
        }
        // prp-pdw: disjoint properties linking the same pair.
        for &(p, q) in &self.rules.disjoint_properties.clone() {
            for [x, _, y] in self.g.match_pattern(None, Some(p), None) {
                if self.g.contains_ids(x, q, y) {
                    let detail = format!(
                        "disjoint properties {} and {} both relate {} to {}",
                        self.g.term_name(p),
                        self.g.term_name(q),
                        self.g.term_name(x),
                        self.g.term_name(y)
                    );
                    self.result.inconsistencies.push(Inconsistency {
                        kind: InconsistencyKind::DisjointPropertiesViolation,
                        detail,
                    });
                }
            }
        }
        // cls-nothing2
        if let Some(nothing) = self.g.lookup_iri(owl::NOTHING) {
            for x in self.g.instances_of(nothing) {
                let detail = format!("{} is an instance of owl:Nothing", self.g.term_name(x));
                self.result.inconsistencies.push(Inconsistency {
                    kind: InconsistencyKind::NothingHasInstance,
                    detail,
                });
            }
        }
        // prp-irp
        for &p in &self.rules.irreflexive.clone() {
            for [s, _, o] in self.g.match_pattern(None, Some(p), None) {
                if s == o {
                    let detail = format!(
                        "irreflexive property {} relates {} to itself",
                        self.g.term_name(p),
                        self.g.term_name(s)
                    );
                    self.result.inconsistencies.push(Inconsistency {
                        kind: InconsistencyKind::IrreflexiveViolation,
                        detail,
                    });
                }
            }
        }
        // prp-asyp
        for &p in &self.rules.asymmetric.clone() {
            for [s, _, o] in self.g.match_pattern(None, Some(p), None) {
                if self.g.contains_ids(o, p, s) && s != o {
                    let detail = format!(
                        "asymmetric property {} holds in both directions between {} and {}",
                        self.g.term_name(p),
                        self.g.term_name(s),
                        self.g.term_name(o)
                    );
                    self.result.inconsistencies.push(Inconsistency {
                        kind: InconsistencyKind::AsymmetricViolation,
                        detail,
                    });
                }
            }
        }
        // eq-diff1
        for &(a, b) in &self.rules.different_from.clone() {
            if self.g.contains_ids(a, self.rules.same_as, b)
                || self.g.contains_ids(b, self.rules.same_as, a)
            {
                let detail = format!(
                    "{} and {} are both sameAs and differentFrom",
                    self.g.term_name(a),
                    self.g.term_name(b)
                );
                self.result.inconsistencies.push(Inconsistency {
                    kind: InconsistencyKind::SameAndDifferent,
                    detail,
                });
            }
        }
    }
}

/// In-place transitive closure of an adjacency map.
fn transitive_close(map: &mut HashMap<TermId, BTreeSet<TermId>>) {
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
    fn schema_closure_can_be_disabled() {
        let mut g = graph("e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:C . e:x a e:A .");
        let opts = ReasonerOptions {
            materialize_schema_closure: false,
            ..Default::default()
        };
        Reasoner::with_options(opts)
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(!has(&g, "A", rdfs::SUB_CLASS_OF, "C"));
        assert!(has(&g, "x", rdf::TYPE, "C"), "instance closure still runs");
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
