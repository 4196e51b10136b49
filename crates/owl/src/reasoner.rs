//! Forward-chaining materializing reasoner: the OWL 2 RL rules the FEO
//! pipeline depends on, in place of the paper's Pellet.
//! [`Reasoner::materialize`] is the paper's export step: it adds every
//! derivable triple to the graph in place.
//!
//! ## Rule coverage
//!
//! The TBox compiles to one rule program ([`CompiledRules`]) of OWL 2
//! RL/RDF rules: scm-sco and scm-spo as facts; cax-sco; prp-spo1, -inv,
//! -symp, -trp, -dom, -rng, -spo2, -fp and -ifp; the cls-* rules of the
//! class expressions on either side of an axiom; and cax-dw, cls-com,
//! prp-pdw, cls-nothing2, prp-irp, prp-asyp and eq-diff1 as ⊥ rules.
//! eq-sym, eq-trans and eq-rep-* stay out of it: alias sets copy every
//! triple along `owl:sameAs`, which a rule would need a variable
//! predicate for. DESIGN.md tables every W3C rule and where it stands.
//!
//! ## One algorithm, two seeds
//!
//! One semi-naïve loop evaluates the program, round by round, binding
//! rule atoms to each round's new triples (see `Engine::round`).
//! [`Reasoner::materialize`] asserts the facts and seeds it with every
//! triple of the graph; [`Reasoner::materialize_delta`] seeds it with an
//! overlay's delta over a closed base.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

use feo_rdf::governor::{Exhausted, Guard, Resource};
use feo_rdf::hash::FxMap;
use feo_rdf::{GraphStore, GraphView, Overlay, TermId};

mod rules;
use rules::{Atom, Binding, Head, Rule, Slot};
pub use rules::{CompiledRules, ReadSet};

/// The unguarded safety valve on closure rounds: a closure still
/// deriving after this many reports `converged: false` (guarded runs cap
/// rounds with [`feo_rdf::governor::Budget::with_max_rounds`]).
const MAX_ROUNDS: usize = 64;

/// Materialization options.
#[derive(Debug, Clone, Default)]
pub struct ReasonerOptions {
    /// Record, for every inferred triple, the rule that produced it and
    /// its premise triples — the analogue of Pellet's axiom explanations.
    /// Default: false (costs memory proportional to the inferred set).
    pub track_derivations: bool,
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

/// The kinds of violation, in the order a run reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Fixpoint rounds used — a function of the input and rule set alone,
    /// so a round budget trips at the same point on every host.
    pub rounds: usize,
    /// `false` when the unguarded cap of 64 rounds cut the fixpoint short
    /// and the output may be incomplete (guarded runs surface it as an
    /// [`Exhausted`] on [`Resource::Rounds`]).
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
    /// An execution budget tripped mid-closure. The triples derived so
    /// far (sound, perhaps incomplete) are in the graph or overlay, and
    /// `partial` carries their statistics.
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

    /// The partial result, for best-effort callers:
    /// `materialize(..).unwrap_or_else(|e| e.into_partial())`.
    pub fn into_partial(self) -> InferenceResult {
        match self {
            ReasonerError::Exhausted { partial, .. } => *partial,
        }
    }
}

/// Options of [`Reasoner::materialize`] and [`Reasoner::materialize_delta`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeOptions<'a> {
    /// Execution guard, charged per round and per derived triple; a trip
    /// surfaces as [`ReasonerError::Exhausted`]. `None` never errors.
    pub guard: Option<&'a Guard>,
    /// Precompiled rules (the snapshot + overlay pipeline compiles once
    /// per base graph); `None` compiles the store's own TBox.
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

    /// The precompiled rules, `for_store(g)`, or rules compiled from `g`.
    fn rules_for(&self, g: &mut impl GraphStore) -> Cow<'a, CompiledRules> {
        match self.rules {
            Some(rules) => rules.for_store(g).map_or(Cow::Borrowed(rules), Cow::Owned),
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

/// The materializing reasoner. The snapshot + overlay pipeline calls
/// [`Reasoner::compile`] once on the base graph and then
/// [`Reasoner::materialize_delta`] per session overlay: the closure of
/// [`Reasoner::materialize`], seeded with the session's triples.
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
    /// This is the semi-naïve closure started from empty: the program's
    /// facts are asserted first (among them the transitive subclass and
    /// subproperty pairs, so SPARQL can use single-hop subclass patterns
    /// the way the paper's Listing 1 does), and every triple of the graph
    /// is the seed. After a guard trip the triples derived so far stay in
    /// the graph and the error carries their statistics.
    pub fn materialize(
        &self,
        graph: &mut impl GraphStore,
        opts: &MaterializeOptions,
    ) -> Result<InferenceResult, ReasonerError> {
        let rules = opts.rules_for(graph);
        let mut engine = Engine::new(graph, &rules, self.options.track_derivations, opts.guard);
        for rule in rules.rules.iter().filter(|r| r.body.is_empty()) {
            engine.conclude(rule, &[]);
        }
        // Every triple of the graph, the facts among them, is the seed.
        engine.log = engine.g.iter_ids().collect();
        engine.run()
    }

    /// Extracts the graph's axioms and compiles them into a reusable
    /// rule program (see [`CompiledRules`]).
    pub fn compile(&self, graph: &mut impl GraphStore) -> CompiledRules {
        CompiledRules::compile(graph)
    }

    /// Semi-naïve incremental re-closure of an overlay whose base is
    /// already materialized: the closure [`Reasoner::materialize`] runs,
    /// seeded with the overlay's delta instead of every triple. It equals
    /// a full re-materialization of `base ∪ delta` when the base was
    /// closed under the same rules and the delta holds ABox triples only.
    ///
    /// Derived triples land in the overlay's delta, and only violations
    /// some delta or derived triple takes part in are reported. After a
    /// guard trip the partial closure stays in the delta; the caller
    /// keeps or discards it.
    pub fn materialize_delta<B: GraphView>(
        &self,
        overlay: &mut Overlay<B>,
        opts: &MaterializeOptions,
    ) -> Result<InferenceResult, ReasonerError> {
        let rules = opts.rules_for(overlay);
        let mut engine = Engine::new(overlay, &rules, self.options.track_derivations, opts.guard);
        engine.log = engine.g.delta_log().to_vec();
        // The base's aliases are its `owl:sameAs` triples: rebuild their
        // sets so eq-rep fires on delta triples (adding nothing there).
        for [a, _, b] in engine.g.match_pattern(None, Some(rules.same_as), None) {
            engine.note_alias(a, b);
        }
        engine.run()
    }
}

/// The running fixpoint state over any [`GraphStore`].
struct Engine<'a, S: GraphStore> {
    g: &'a mut S,
    rules: &'a CompiledRules,
    track: bool,
    result: InferenceResult,
    /// sameAs alias sets, maintained incrementally.
    aliases: FxMap<TermId, BTreeSet<TermId>>,
    /// The seed and every triple derived since; a round is a range of it.
    log: Vec<[TermId; 3]>,
    /// Log positions of the triples a join can read left of the atom it
    /// binds (`rules::Entry::left`); any other is older than any round.
    stamps: FxMap<[TermId; 3], usize>,
    /// ⊥ rule findings as `(kind, group, key)`, in report order.
    violations: BTreeSet<(InconsistencyKind, usize, Vec<TermId>)>,
    /// The binding each join starts from, kept to reuse its allocation.
    binding: Vec<Option<TermId>>,
    guard: Option<&'a Guard>,
    /// Set when the guard trips; every loop bails out once it is.
    tripped: Option<Exhausted>,
}

impl<'a, S: GraphStore> Engine<'a, S> {
    fn new(g: &'a mut S, rules: &'a CompiledRules, track: bool, guard: Option<&'a Guard>) -> Self {
        Engine {
            g,
            rules,
            track,
            result: InferenceResult {
                axiom_count: rules.axiom_count(),
                warnings: rules.warnings.clone(),
                ..Default::default()
            },
            aliases: FxMap::default(),
            log: Vec::new(),
            stamps: FxMap::default(),
            violations: BTreeSet::new(),
            binding: Vec::new(),
            guard,
            tripped: None,
        }
    }

    /// Polls the governor (amortized wall-clock / cancellation check) and
    /// reports whether execution should stop, recording the trip.
    fn guard_tripped(&mut self) -> bool {
        if self.tripped.is_none() {
            if let Some(Err(exhausted)) = self.guard.map(Guard::check_time) {
                self.tripped = Some(exhausted);
            }
        }
        self.tripped.is_some()
    }

    /// The semi-naïve closure: derives what the seed (the log, triples
    /// already in the store) and everything derived on the way can
    /// entail, assuming the rest of the store is closed under the rules.
    fn run(mut self) -> Result<InferenceResult, ReasonerError> {
        let all_fresh = self.g.len() == self.log.len();
        let (mut start, seed) = (0, self.log.len());
        while start < self.log.len() && self.tripped.is_none() {
            if self.result.rounds == MAX_ROUNDS {
                self.result.converged = false;
                self.result.warnings.push(format!(
                    "fixpoint not reached after {MAX_ROUNDS} rounds — output may be incomplete"
                ));
                // Guarded runs surface the cap as a typed trip.
                self.tripped = self.guard.map(|_| Exhausted {
                    resource: Resource::Rounds,
                    spent: MAX_ROUNDS as u64,
                    limit: MAX_ROUNDS as u64,
                });
                break;
            }
            self.result.rounds += 1;
            if let Some(Err(exhausted)) = self.guard.map(Guard::add_round) {
                self.tripped = Some(exhausted);
                break;
            }
            start = self.round(start, seed, all_fresh && start == 0);
        }
        let Some(exhausted) = self.tripped else {
            self.report();
            return Ok(self.result);
        };
        // Whatever was derived is sound, but the fixpoint was not reached.
        self.result.converged = false;
        let partial = Box::new(self.result);
        Err(ReasonerError::Exhausted { exhausted, partial })
    }

    /// The round from `log[start]`, returning where the next begins.
    /// Rules of one atom, and rules whose atoms and head share one
    /// predicate (see `rules::Entry`), run as a worklist on the round's
    /// triples and on what they derive, as does eq-rep, until nothing is
    /// new; they read every triple.
    /// Then every other join runs once per atom on each triple of the
    /// closed round, with atoms to its left reading only older rounds
    /// and atoms to its right the whole store, so an instantiation is
    /// found in the round its last triple arrives. What those derive is
    /// the next round. When every triple of the store is in the seed, no
    /// atom can read an older one, so seed triples bind first atoms only.
    fn round(&mut self, start: usize, seed: usize, first_atoms_only: bool) -> usize {
        let mut joins: Vec<(usize, &[(usize, usize)])> = Vec::new();
        let mut at = start;
        while at < self.log.len() && !self.guard_tripped() {
            let t = self.log[at];
            self.equality(t);
            let first = first_atoms_only && at < seed;
            let keys = [(t[1], None), (t[1], Some(t[2]))];
            for entry in keys.iter().filter_map(|k| self.rules.index.get(k)) {
                if entry.left && !first_atoms_only {
                    self.stamps.insert(t, at);
                }
                self.fire_all(&entry.atoms[0], t, usize::MAX, first);
                if !entry.atoms[1].is_empty() {
                    joins.push((at, &entry.atoms[1]));
                }
            }
            at += 1;
        }
        for (k, atoms) in joins {
            if self.guard_tripped() {
                break;
            }
            self.fire_all(atoms, self.log[k], start, first_atoms_only);
        }
        at
    }

    /// Runs each rule atom of `atoms` bound to `t`, at position 0 only
    /// when `first`; atoms left of it read triples stamped before `start`.
    fn fire_all(&mut self, atoms: &[(usize, usize)], t: [TermId; 3], start: usize, first: bool) {
        let mut b = std::mem::take(&mut self.binding);
        for &(r, pos) in atoms.iter().filter(|&&(_, pos)| pos == 0 || !first) {
            let rule = &self.rules.rules[r];
            b.clear();
            b.resize(rule.vars, None);
            if bind(&rule.body[pos], t, &mut b).is_some() {
                self.join(rule, &rule.orders[pos], (pos, start), &mut b);
            }
        }
        self.binding = b;
    }

    /// Joins the atoms `order` names onto the binding `b` and concludes
    /// every complete binding that passes the rule's checks. An atom left
    /// of position `fresh.0` reads only triples older than `fresh.1`.
    fn join(&mut self, rule: &Rule, order: &[usize], fresh: (usize, usize), b: &mut Binding) {
        let Some((&j, rest)) = order.split_first() else {
            if rule.checks.iter().all(|c| c.holds(&*self.g, b)) {
                self.conclude(rule, b);
            }
            return;
        };
        let (atom, stamps) = (rule.body[j], &self.stamps);
        let readable =
            |t: &[TermId; 3]| j > fresh.0 || stamps.get(t).is_none_or(|&at| at < fresh.1);
        let mut rows = match (atom.s.value(b), atom.o.value(b)) {
            (Some(s), Some(o)) => {
                if self.g.contains_ids(s, atom.p, o) && readable(&[s, atom.p, o]) {
                    self.join(rule, rest, fresh, b);
                }
                return;
            }
            (s, o) => self.g.match_pattern(s, Some(atom.p), o),
        };
        rows.retain(readable);
        for t in rows {
            if let Some(set) = bind(&atom, t, b) {
                self.join(rule, rest, fresh, b);
                unbind(set, b);
            }
        }
    }

    /// Asserts `rule`'s head for the complete binding `b`, with the body
    /// it instantiates as the premises, or records its violation.
    fn conclude(&mut self, rule: &Rule, b: &Binding) {
        match &rule.head {
            Head::Triple(head) => {
                let body = rule.body.iter().filter(|_| self.track);
                let premises: Vec<[TermId; 3]> = body.filter_map(|a| a.triple(b)).collect();
                if let Some(t) = head.triple(b) {
                    self.add_by(rule.name, &premises, t);
                }
            }
            Head::Bottom(kind, group, key) => {
                if let Some(key) = key.iter().map(|s| s.value(b)).collect() {
                    self.violations.insert((*kind, *group, key));
                }
            }
        }
    }

    /// The violations found, in report order, as [`Inconsistency`]s.
    fn report(&mut self) {
        use InconsistencyKind::*;
        for &(kind, _, ref key) in &self.violations {
            let names: Vec<String> = key.iter().map(|&id| self.g.term_name(id)).collect();
            let detail = match (kind, &names[..]) {
                (DisjointClassesViolation, [x]) => {
                    format!("{x} is an instance of disjoint classes")
                }
                (DisjointPropertiesViolation, [y, x, p, q]) => {
                    format!("disjoint properties {p} and {q} both relate {x} to {y}")
                }
                (NothingHasInstance, [x]) => format!("{x} is an instance of owl:Nothing"),
                (IrreflexiveViolation, [x, p]) => {
                    format!("irreflexive property {p} relates {x} to itself")
                }
                (AsymmetricViolation, [y, x, p]) => {
                    format!("asymmetric property {p} holds in both directions between {x} and {y}")
                }
                (_, [a, b]) => format!("{a} and {b} are both sameAs and differentFrom"),
                _ => continue,
            };
            let found = Inconsistency { kind, detail };
            self.result.inconsistencies.push(found);
        }
    }

    /// Inserts a derived triple, recording its derivation when tracking
    /// is enabled. The first derivation of a triple wins.
    fn add_by(&mut self, rule: &'static str, premises: &[[TermId; 3]], [s, p, o]: [TermId; 3]) {
        if self.tripped.is_some() || !self.g.insert_ids(s, p, o) {
            return;
        }
        self.result.added += 1;
        // Every derived triple, whatever rule produced it, is charged here.
        if let Some(Err(exhausted)) = self.guard.map(|g| g.add_inferred(1)) {
            self.tripped = Some(exhausted);
        }
        self.log.push([s, p, o]);
        if self.track {
            let premises = premises.to_vec();
            self.result
                .derivations
                .insert([s, p, o], Derivation { rule, premises });
        }
    }

    /// The equality rules for one new triple: a sameAs pair links two
    /// alias sets (eq-sym and eq-trans) and copies each side's triples
    /// to the other (eq-rep-s, eq-rep-o); any other triple is copied
    /// across the aliases of its subject and object.
    fn equality(&mut self, [s, p, o]: [TermId; 3]) {
        if p == self.rules.same_as {
            self.note_alias(s, o);
            self.replicate_for_alias(s, o);
            self.replicate_for_alias(o, s);
        } else if !self.aliases.is_empty() {
            for a in self.aliases.get(&s).cloned().into_iter().flatten() {
                self.add_by("eq-rep-s", &[[s, p, o]], [a, p, o]);
            }
            for a in self.aliases.get(&o).cloned().into_iter().flatten() {
                self.add_by("eq-rep-o", &[[s, p, o]], [s, p, a]);
            }
        }
    }

    /// Links two individuals as aliases, merging their alias sets so
    /// sameAs chains stay closed, and derives the implied sameAs triples
    /// in both directions, all recorded as eq-trans.
    fn note_alias(&mut self, a: TermId, b: TermId) {
        if a == b {
            return;
        }
        let mut class: BTreeSet<TermId> = BTreeSet::from([a, b]);
        class.extend(self.aliases.get(&a).into_iter().flatten().copied());
        class.extend(self.aliases.get(&b).into_iter().flatten().copied());
        for &member in &class {
            let others: BTreeSet<TermId> = class.iter().copied().filter(|&m| m != member).collect();
            let aliases = self.aliases.entry(member).or_default();
            aliases.extend(&others);
            for &other in &others {
                self.add_by("eq-trans", &[], [member, self.rules.same_as, other]);
            }
        }
    }

    /// Copies every triple mentioning `from` onto `to` (eq-rep-s / eq-rep-o).
    fn replicate_for_alias(&mut self, from: TermId, to: TermId) {
        if from == to {
            return;
        }
        for [_, p, o] in self.g.match_pattern(Some(from), None, None) {
            if p != self.rules.same_as {
                self.add_by("eq-rep-s", &[[from, p, o]], [to, p, o]);
            }
        }
        for [s, p, _] in self.g.match_pattern(None, None, Some(from)) {
            if p != self.rules.same_as {
                self.add_by("eq-rep-o", &[[s, p, from]], [s, p, to]);
            }
        }
    }
}

/// Binds `atom`'s variables to the terms of `t`, or `None` when a fixed
/// term or an earlier binding disagrees (then `b` is as it was).
/// Returns the variables it bound.
fn bind(atom: &Atom, t: [TermId; 3], b: &mut Binding) -> Option<[Option<usize>; 2]> {
    let mut set = [None, None];
    for (k, (slot, id)) in [(atom.s, t[0]), (atom.o, t[2])].into_iter().enumerate() {
        match slot {
            Slot::Var(v) if b[v].is_none() => (b[v], set[k]) = (Some(id), Some(v)),
            Slot::Var(v) if b[v] == Some(id) => {}
            Slot::Id(fixed) if fixed == id => {}
            _ => {
                unbind(set, b);
                return None;
            }
        }
    }
    Some(set)
}

fn unbind(set: [Option<usize>; 2], b: &mut Binding) {
    for v in set.into_iter().flatten() {
        b[v] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::vocab::{owl, rdf, rdfs};
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
        let src = layered_some_values_src(70);
        let mut g = graph(&src);
        let r = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(!r.converged, "cap hit must not look like convergence");
        assert!(r.warnings.iter().any(|w| w.contains("fixpoint")));

        // And a cascade the cap leaves room for converges cleanly.
        let mut g2 = graph(&layered_some_values_src(6));
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
        let guard = Budget::new().with_max_rounds(1).start();
        let err = Reasoner::new()
            .materialize(&mut g, &MaterializeOptions::guarded(&guard))
            .unwrap_err();
        let ReasonerError::Exhausted { exhausted, partial } = err;
        assert_eq!(exhausted.resource, Resource::Rounds);
        assert_eq!(exhausted.limit, 1);
        assert!(partial.added > 0, "partial derivations are kept");
    }

    /// A guarded run with no round budget still stops at the fixed cap,
    /// as a typed trip.
    #[test]
    fn guarded_run_past_the_fixed_cap_is_typed_exhausted() {
        use feo_rdf::governor::{Budget, Resource};
        let mut g = graph(&layered_some_values_src(70));
        let guard = Budget::new().with_max_inferred(1_000_000).start();
        let err = Reasoner::new()
            .materialize(&mut g, &MaterializeOptions::guarded(&guard))
            .unwrap_err();
        let ReasonerError::Exhausted { exhausted, partial } = err;
        assert_eq!(exhausted.resource, Resource::Rounds);
        assert_eq!(exhausted.limit, MAX_ROUNDS as u64);
        assert!(!partial.converged);
    }

    /// A chain of ten steps, one rule of eleven variables, closes like
    /// a short one.
    #[test]
    fn long_property_chain() {
        let steps: Vec<String> = (0..10).map(|k| format!("e:p{k}")).collect();
        let mut src = format!("e:r owl:propertyChainAxiom ( {} ) .\n", steps.join(" "));
        for (k, step) in steps.iter().enumerate() {
            src.push_str(&format!("e:n{k} {step} e:n{} .\n", k + 1));
        }
        let mut g = graph(&src);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(has(&g, "n0", "r", "n10"));
        assert!(!has(&g, "n1", "r", "n10"));
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

    /// A transitive step meets a step its own round derives later: the
    /// worklist joins a triple with everything already in the store,
    /// its round's triples included.
    #[test]
    fn delta_transitivity_meets_a_step_derived_later_in_its_round() {
        let mut base = graph(
            "e:p a owl:TransitiveProperty . e:q rdfs:subPropertyOf e:p .\n\
             e:o e:p e:o2 .",
        );
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut base);
        reasoner
            .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        let mut overlay = Overlay::new(&base);
        overlay.insert_iris("http://e/a", "http://e/p", "http://e/b");
        overlay.insert_iris("http://e/b", "http://e/q", "http://e/c");
        reasoner
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
            .expect("materialize_delta");
        assert!(has(&overlay, "a", "p", "c"));
    }

    /// A delta may be the first to name `owl:Nothing`; the program
    /// compiled from the base still checks it (cls-nothing2), though
    /// neither compiling nor closing the base interns it (so opening a
    /// store that never named it writes no term).
    #[test]
    fn delta_reports_an_instance_of_nothing_the_base_never_named() {
        let mut base = graph("e:A rdfs:subClassOf e:B .");
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut base);
        reasoner
            .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        assert_eq!(base.lookup_iri(owl::NOTHING), None);
        let mut overlay = Overlay::new(&base);
        overlay.insert_iris("http://e/x", rdf::TYPE, owl::NOTHING);
        let r = reasoner
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
            .expect("materialize_delta");
        let kinds: Vec<_> = r.inconsistencies.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, [InconsistencyKind::NothingHasInstance]);
    }

    /// eq-diff1, like every ⊥ rule, reports over a delta only a clash a
    /// delta or derived triple takes part in: one the base already
    /// holds was reported when the base was closed.
    #[test]
    fn delta_over_a_clashing_base_reports_only_its_own_clashes() {
        let mut base = graph("e:a owl:sameAs e:b ; owl:differentFrom e:b .");
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut base);
        let closed = reasoner
            .materialize(&mut base, &MaterializeOptions::with_rules(&rules))
            .expect("materialize");
        let kinds: Vec<_> = closed.inconsistencies.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, [InconsistencyKind::SameAndDifferent]);
        let mut overlay = Overlay::new(&base);
        overlay.insert_iris("http://e/a", "http://e/p", "http://e/c");
        overlay.insert_iris("http://e/c", owl::SAME_AS, "http://e/d");
        let r = reasoner
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(&rules))
            .expect("materialize_delta");
        assert!(r.added > 0, "the delta derives");
        assert!(r.is_consistent(), "{:?}", r.inconsistencies);
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
        fn predicate_stats(&self, p: TermId) -> feo_rdf::PredicateStats {
            GraphView::predicate_stats(self.inner, p)
        }
        fn class_instance_count(&self, class_id: TermId) -> u64 {
            GraphView::class_instance_count(self.inner, class_id)
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
    use feo_rdf::vocab::owl;
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
    use feo_rdf::vocab::owl;
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
