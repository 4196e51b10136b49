//! Append-only epoch ledger: a closed base graph plus a chain of
//! committed, immutable delta [`Layer`]s.
//!
//! Where [`Overlay`](crate::view::Overlay) is a *private, mutable*
//! write layer for one in-flight session, a [`Layer`] is what that
//! delta becomes once committed: frozen term spill, frozen sorted
//! triple indexes, frozen statistics, and a tamper-evidence hash
//! chained from its parent. The [`Ledger`] owns the base (epoch 0) and
//! the committed chain; a [`LedgerView`] stacks the base plus any
//! prefix of the chain, so *every historical epoch stays addressable* —
//! nothing is ever absorbed away.
//!
//! Id-space contract (same as `Overlay`): layer `k`'s spill ids start
//! at the total term count of its prefix, so id triples recorded inside
//! a session — including reasoner derivation records — stay valid
//! verbatim after the session's delta is committed as a layer.
//!
//! Branches are [`BranchChain`]s: a fork epoch on the main chain plus a
//! private chain of layers. A branch view shares the base and the
//! forked prefix by reference — forking copies nothing.

use std::sync::Arc;

use crate::disk::{Segment, WalRecord};
use crate::graph::{Graph, IdTriple};
use crate::hash::{triple_sum, Checksum};
use crate::index::{match_runs, Rotation};
use crate::intern::{Interner, TermId};
use crate::stats::{GraphStats, PredicateStats};
use crate::term::{Term, Triple};
use crate::view::GraphView;
use crate::vocab::rdf;

/// Position on a commit chain. Epoch 0 is the closed base; epoch `n`
/// stacks the first `n` committed layers on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

// ---- Layer -----------------------------------------------------------

/// One committed, immutable delta: the intern spill and triples a
/// session added, with their statistics and a chained content hash.
#[derive(Debug)]
pub struct Layer {
    /// Spill dictionary, from id `term_base` (the total term count of
    /// this layer's prefix) up.
    dict: Interner,
    /// Delta triples in three sorted runs, one per [`Rotation`], as
    /// `Graph` indexes them.
    runs: [Vec<[u32; 3]>; 3],
    /// Counters over this delta only; views sum them across the stack.
    stats: GraphStats,
    /// Checksum over the parent epoch's hash, the spill, and the triples.
    hash: u64,
}

/// Checksum over a layer's parent hash, term base, spill (each term's
/// Debug rendering, which is deterministic and tells kinds apart) and
/// SPO run.
fn layer_hash(parent: u64, dict: &Interner, spo: &[[u32; 3]]) -> u64 {
    let mut hash = Checksum::default();
    hash.update(
        [parent, dict.first() as u64]
            .map(u64::to_le_bytes)
            .as_flattened(),
    );
    for t in dict.terms() {
        hash.update(format!("{t:?}").as_bytes());
    }
    for triple in spo {
        hash.update(triple.map(u32::to_le_bytes).as_flattened());
    }
    hash.finish()
}

impl Layer {
    /// Freezes a session delta committed on `on` into a layer. `terms`
    /// and `delta` follow the `Overlay::into_delta` contract: spill term
    /// `i` has id `on.term_count() + i`, so no term repeats
    /// (`DiskStore::open` rejects a WAL record that repeats one). The
    /// delta's three rotations are sorted here and its statistics
    /// counted from them, with `rdf:type` as `on` or the spill names it.
    fn new(on: &LedgerView<'_>, parent_hash: u64, terms: Vec<Term>, delta: Vec<IdTriple>) -> Layer {
        let limit = on.term_count() + terms.len();
        debug_assert!(
            delta.iter().flatten().all(|id| id.index() < limit),
            "a delta references ids beyond its dictionary"
        );
        let mut dict = Interner::starting_at(on.term_count());
        let spilled = terms.len();
        for t in terms {
            dict.intern_owned(t);
        }
        debug_assert_eq!(dict.len(), spilled, "a spill repeats a term");
        let runs = Rotation::ALL.map(|rotation| {
            let mut run: Vec<[u32; 3]> = delta
                .iter()
                .map(|&[s, p, o]| rotation.apply([s.0, p.0, o.0]))
                .collect();
            run.sort_unstable();
            run.dedup();
            run
        });
        let rdf_type = Term::iri(rdf::TYPE);
        let rdf_type = on.lookup(&rdf_type).or_else(|| dict.lookup(&rdf_type));
        let [spo, pos, _] = &runs;
        let stats = GraphStats::count(rdf_type, spo.iter().copied(), pos.iter().copied());
        Layer {
            hash: layer_hash(parent_hash, &dict, spo),
            dict,
            runs,
            stats,
        }
    }

    /// Number of delta triples in this layer.
    pub fn len(&self) -> usize {
        self.runs[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.runs[0].is_empty()
    }

    /// Number of terms this layer spilled into the dictionary.
    pub fn term_len(&self) -> usize {
        self.dict.len()
    }

    /// The chained tamper-evidence hash of this layer.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    fn matches(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        match_runs(self.len(), |r, i| self.runs[r as usize][i], s, p, o)
    }

    fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.runs[0].iter().map(|&t| Rotation::Spo.triple(t))
    }

    /// This layer's delta statistics.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// The spill dictionary in id order (term `i` has id
    /// `term_base + i`) — what the WAL persists per commit.
    pub fn spill_terms(&self) -> &[Term] {
        self.dict.terms()
    }

    /// The delta triples in SPO order as raw ids — what the WAL
    /// persists per commit.
    pub fn spo_raw(&self) -> &[[u32; 3]] {
        self.run(Rotation::Spo)
    }

    /// The delta triples as keys of `rotation`'s order, sorted.
    pub(crate) fn run(&self, rotation: Rotation) -> &[[u32; 3]] {
        &self.runs[rotation as usize]
    }
}

// ---- BaseStore -------------------------------------------------------

/// The epoch-0 graph of a ledger: either the in-memory [`Graph`] the
/// engine materialized this process, or a memory-mapped [`Segment`]
/// reopened from disk. Both expose identical dense id spaces and
/// identical SPO-sorted scans, so every layer, view, and derivation
/// record works unchanged over either arm.
// One BaseStore exists per ledger (never in a collection), so the
// Mem/Disk size disparity costs nothing; boxing the graph would add a
// pointer chase to every hot-path scan dispatch instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum BaseStore {
    Mem(Graph),
    Disk(Arc<Segment>),
}

impl BaseStore {
    pub fn len(&self) -> usize {
        match self {
            BaseStore::Mem(g) => g.len(),
            BaseStore::Disk(s) => GraphView::len(&**s),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn term_count(&self) -> usize {
        match self {
            BaseStore::Mem(g) => g.term_count(),
            BaseStore::Disk(s) => GraphView::term_count(&**s),
        }
    }

    /// The counted statistics (persisted ones, for a segment).
    pub fn stats(&self) -> &GraphStats {
        match self {
            BaseStore::Mem(g) => g.stats(),
            BaseStore::Disk(s) => s.stats(),
        }
    }

    /// The in-memory graph, when this base is one.
    pub fn as_graph(&self) -> Option<&Graph> {
        match self {
            BaseStore::Mem(g) => Some(g),
            BaseStore::Disk(_) => None,
        }
    }

    /// The mapped segment, when this base is one.
    pub fn as_segment(&self) -> Option<&Arc<Segment>> {
        match self {
            BaseStore::Mem(_) => None,
            BaseStore::Disk(s) => Some(s),
        }
    }
}

impl GraphView for BaseStore {
    fn len(&self) -> usize {
        BaseStore::len(self)
    }
    fn term_count(&self) -> usize {
        BaseStore::term_count(self)
    }
    fn lookup(&self, term: &Term) -> Option<TermId> {
        match self {
            BaseStore::Mem(g) => g.lookup(term),
            BaseStore::Disk(s) => GraphView::lookup(&**s, term),
        }
    }
    fn term(&self, id: TermId) -> &Term {
        match self {
            BaseStore::Mem(g) => g.term(id),
            BaseStore::Disk(s) => GraphView::term(&**s, id),
        }
    }
    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        match self {
            BaseStore::Mem(g) => g.contains_ids(s, p, o),
            BaseStore::Disk(seg) => GraphView::contains_ids(&**seg, s, p, o),
        }
    }
    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        match self {
            BaseStore::Mem(g) => g.match_pattern(s, p, o),
            BaseStore::Disk(seg) => GraphView::match_pattern(&**seg, s, p, o),
        }
    }
    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        self.stats().predicate(p)
    }
    fn class_instance_count(&self, class_id: TermId) -> u64 {
        self.stats().class_instances(class_id)
    }
    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        match self {
            BaseStore::Mem(g) => Box::new(g.iter_ids()),
            BaseStore::Disk(s) => GraphView::iter_ids(&**s),
        }
    }
}

// ---- Ledger ----------------------------------------------------------

/// The main commit chain: a closed base graph (epoch 0) plus committed
/// layers (epoch `k` = base + first `k` layers). Append-only — layers
/// are never mutated or removed, so old epochs remain addressable and
/// any number of views can read the chain concurrently.
#[derive(Debug)]
pub struct Ledger {
    base: BaseStore,
    base_hash: u64,
    layers: Vec<std::sync::Arc<Layer>>,
}

impl Ledger {
    /// Seals `base` as epoch 0 of a new chain.
    pub fn new(base: Graph) -> Ledger {
        Ledger::from_base(BaseStore::Mem(base))
    }

    /// Seals any base store — in-memory or a reopened segment — as
    /// epoch 0. The base hash depends only on content (term count, triple
    /// count, triple sum: kept by a segment, one pass over a graph), so a
    /// ledger rebuilt over a segment chains identically to the one whose
    /// graph the segment was written from, without rehashing it.
    pub fn from_base(base: BaseStore) -> Ledger {
        let sum = match &base {
            BaseStore::Mem(g) => triple_sum(0, &g.index().runs[0]),
            BaseStore::Disk(s) => s.triple_sum(),
        };
        let words = [base.term_count() as u64, base.len() as u64, sum];
        let mut h = Checksum::default();
        h.update(words.map(u64::to_le_bytes).as_flattened());
        Ledger {
            base_hash: h.finish(),
            base,
            layers: Vec::new(),
        }
    }

    /// Rebuilds a stored chain: `base` as epoch 0 and the WAL records
    /// `DiskStore::open` validated committed on it in order.
    pub fn replay(base: BaseStore, records: &[WalRecord]) -> Ledger {
        let mut ledger = Ledger::from_base(base);
        for rec in records {
            ledger.commit(rec.terms.clone(), rec.id_triples());
        }
        ledger
    }

    /// The epoch-0 store.
    pub fn base(&self) -> &BaseStore {
        &self.base
    }

    /// The newest committed epoch.
    pub fn head(&self) -> EpochId {
        EpochId(self.layers.len() as u64)
    }

    /// The committed layers, oldest first.
    pub fn layers(&self) -> &[std::sync::Arc<Layer>] {
        &self.layers
    }

    /// The chained hash at `epoch` (the base hash for epoch 0), or
    /// `None` past the head.
    pub fn hash_at(&self, epoch: EpochId) -> Option<u64> {
        match epoch.0 {
            0 => Some(self.base_hash),
            n => self.layers.get(n as usize - 1).map(|l| l.hash()),
        }
    }

    /// Commits a session delta (per the `Overlay::into_delta` contract:
    /// spill ids start at the head's term count, triples in SPO order)
    /// as a new layer and returns the new head epoch.
    pub fn commit(&mut self, terms: Vec<Term>, delta: Vec<IdTriple>) -> EpochId {
        let parent = self.hash_at(self.head()).unwrap_or(self.base_hash);
        let layer = Layer::new(&self.head_view(), parent, terms, delta);
        self.layers.push(std::sync::Arc::new(layer));
        self.head()
    }

    /// A view of the chain at `epoch`, or `None` past the head.
    pub fn view(&self, epoch: EpochId) -> Option<LedgerView<'_>> {
        if epoch.0 as usize > self.layers.len() {
            return None;
        }
        Some(LedgerView::stack(
            &self.base,
            self.layers[..epoch.0 as usize].iter().map(|l| &**l),
        ))
    }

    /// The view at the head epoch.
    pub fn head_view(&self) -> LedgerView<'_> {
        LedgerView::stack(&self.base, self.layers.iter().map(|l| &**l))
    }

    /// Forks a branch chain at `epoch`, or `None` past the head. The
    /// branch shares the base and prefix by reference — nothing is
    /// copied.
    pub fn fork(&self, epoch: EpochId) -> Option<BranchChain> {
        if epoch.0 as usize > self.layers.len() {
            return None;
        }
        Some(BranchChain {
            fork: epoch,
            layers: Vec::new(),
        })
    }

    /// The view of a branch: the forked prefix plus the branch's own
    /// layers.
    pub fn branch_view<'a>(&'a self, chain: &'a BranchChain) -> LedgerView<'a> {
        LedgerView::stack(
            &self.base,
            self.layers[..chain.fork.0 as usize]
                .iter()
                .map(|l| &**l)
                .chain(chain.layers.iter().map(|l| &**l)),
        )
    }

    /// Commits a delta onto a branch chain; returns the branch's new
    /// head (counted over the whole stacked chain, prefix included).
    pub fn commit_branch(
        &self,
        chain: &mut BranchChain,
        terms: Vec<Term>,
        delta: Vec<IdTriple>,
    ) -> EpochId {
        let parent = chain
            .layers
            .last()
            .map(|l| l.hash())
            .or_else(|| self.hash_at(chain.fork))
            .unwrap_or(self.base_hash);
        let layer = Layer::new(&self.branch_view(chain), parent, terms, delta);
        chain.layers.push(std::sync::Arc::new(layer));
        chain.head()
    }

    /// Recomputes every layer hash from its parent and content,
    /// returning the first epoch whose stored hash disagrees (chain
    /// intact ⇒ `None`).
    pub fn verify_chain(&self) -> Option<EpochId> {
        let mut parent = self.base_hash;
        for (i, layer) in self.layers.iter().enumerate() {
            if layer_hash(parent, &layer.dict, &layer.runs[0]) != layer.hash {
                return Some(EpochId(i as u64 + 1));
            }
            parent = layer.hash;
        }
        None
    }
}

// ---- BranchChain -----------------------------------------------------

/// A named-world commit chain diverging from a ledger epoch. Owns only
/// its private layers; the base and the forked prefix stay in the
/// parent [`Ledger`].
#[derive(Debug, Default)]
pub struct BranchChain {
    fork: EpochId,
    layers: Vec<std::sync::Arc<Layer>>,
}

impl BranchChain {
    /// The main-chain epoch this branch forked from.
    pub fn fork_epoch(&self) -> EpochId {
        self.fork
    }

    /// Branch-private layers, oldest first.
    pub fn layers(&self) -> &[std::sync::Arc<Layer>] {
        &self.layers
    }

    /// The branch's head epoch: fork epoch + private commits.
    pub fn head(&self) -> EpochId {
        EpochId(self.fork.0 + self.layers.len() as u64)
    }

    /// The newest private layer's hash, if any commit diverged yet.
    pub fn head_hash(&self) -> Option<u64> {
        self.layers.last().map(|l| l.hash())
    }
}

// ---- LedgerView ------------------------------------------------------

/// A read-only stack of the base graph plus an ordered run of layers —
/// the [`GraphView`] of one epoch (main chain prefix, or prefix +
/// branch layers). Cheap to construct and [`Clone`]: it holds
/// references only.
#[derive(Debug, Clone)]
pub struct LedgerView<'a> {
    base: &'a BaseStore,
    layers: Vec<&'a Layer>,
    terms: usize,
    triples: usize,
}

impl<'a> LedgerView<'a> {
    fn stack(base: &'a BaseStore, layers: impl Iterator<Item = &'a Layer>) -> LedgerView<'a> {
        let layers: Vec<&'a Layer> = layers.collect();
        let terms = base.term_count() + layers.iter().map(|l| l.term_len()).sum::<usize>();
        let triples = base.len() + layers.iter().map(|l| l.len()).sum::<usize>();
        LedgerView {
            base,
            layers,
            terms,
            triples,
        }
    }

    /// The epoch-0 store under this stack.
    pub fn base_store(&self) -> &'a BaseStore {
        self.base
    }

    /// Number of stacked layers above the base.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The stacked layers, oldest first.
    pub(crate) fn layers(&self) -> &[&'a Layer] {
        &self.layers
    }
}

impl GraphView for LedgerView<'_> {
    fn len(&self) -> usize {
        self.triples
    }

    fn term_count(&self) -> usize {
        self.terms
    }

    fn lookup(&self, term: &Term) -> Option<TermId> {
        if let Some(id) = self.base.lookup(term) {
            return Some(id);
        }
        // A term spills into at most one layer of a consistent stack.
        self.layers.iter().find_map(|l| l.dict.lookup(term))
    }

    fn term(&self, id: TermId) -> &Term {
        if (id.0 as usize) < self.base.term_count() {
            return self.base.term(id);
        }
        // Layers are ordered by ascending first id: the owner is the
        // last layer whose first id is <= id.
        let idx = self
            .layers
            .partition_point(|l| l.dict.first() <= id.index());
        self.layers[idx.saturating_sub(1)].dict.term(id)
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.base.contains_ids(s, p, o)
            || self
                .layers
                .iter()
                .any(|l| l.matches(Some(s), Some(p), Some(o)).next().is_some())
    }

    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        let mut out = self.base.match_pattern(s, p, o);
        for l in &self.layers {
            if !l.is_empty() {
                out.extend(l.matches(s, p, o));
            }
        }
        out
    }

    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        // The sum Overlay takes for the same stack.
        self.layers
            .iter()
            .fold(self.base.stats().predicate(p), |acc, l| {
                acc + l.stats.predicate(p)
            })
    }

    fn class_instance_count(&self, class_id: TermId) -> u64 {
        self.base.stats().class_instances(class_id)
            + self
                .layers
                .iter()
                .map(|l| l.stats.class_instances(class_id))
                .sum::<u64>()
    }

    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        Box::new(
            self.base
                .iter_ids()
                .chain(self.layers.iter().flat_map(|l| l.iter_ids())),
        )
    }
}

/// Renders a view's triples as sorted canonical strings — the
/// content-level form used by [`diff_views`].
pub fn triple_strings(view: &LedgerView<'_>) -> Vec<String> {
    let mut v: Vec<String> = view.iter_triples().map(|t: Triple| t.to_string()).collect();
    v.sort();
    v
}

/// Content-level symmetric difference of two views: triples only in
/// `a`, and triples only in `b`, each sorted. Rendering goes through
/// each view's own dictionary, so diverged branches with clashing id
/// spaces compare correctly.
pub fn diff_views(a: &LedgerView<'_>, b: &LedgerView<'_>) -> (Vec<String>, Vec<String>) {
    let sa = triple_strings(a);
    let sb = triple_strings(b);
    let set_a: std::collections::BTreeSet<&String> = sa.iter().collect();
    let set_b: std::collections::BTreeSet<&String> = sb.iter().collect();
    let only_a = sa.iter().filter(|t| !set_b.contains(t)).cloned().collect();
    let only_b = sb.iter().filter(|t| !set_a.contains(t)).cloned().collect();
    (only_a, only_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{GraphStore, Overlay};

    fn seed_graph() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("urn:a", rdf::TYPE, "urn:C");
        g.insert_iris("urn:a", "urn:p", "urn:b");
        g.insert_iris("urn:b", "urn:p", "urn:c");
        g
    }

    fn commit_overlay(
        ledger: &mut Ledger,
        write: impl FnOnce(&mut Overlay<&BaseStore>),
    ) -> EpochId {
        let mut ov = Overlay::new(ledger.base());
        // Stack the committed layers under the overlay by replaying: for
        // tests we only write fresh triples, so an overlay over the base
        // with matching term_base suffices when the ledger has no layers.
        write(&mut ov);
        let (terms, delta) = ov.into_delta();
        ledger.commit(terms, delta)
    }

    #[test]
    fn epoch_zero_is_the_base() {
        let ledger = Ledger::new(seed_graph());
        assert_eq!(ledger.head(), EpochId(0));
        let v = ledger.view(EpochId(0)).expect("epoch 0 exists");
        assert_eq!(v.len(), 3);
        assert_eq!(v.term_count(), ledger.base().term_count());
        assert!(ledger.view(EpochId(1)).is_none());
    }

    #[test]
    fn commit_appends_and_old_epochs_stay_addressable() {
        let mut ledger = Ledger::new(seed_graph());
        let e1 = commit_overlay(&mut ledger, |ov| {
            ov.insert_iris("urn:c", "urn:p", "urn:d");
        });
        assert_eq!(e1, EpochId(1));
        let e2 = commit_overlay(&mut ledger, |ov| {
            ov.insert_iris("urn:d", "urn:p", "urn:e");
        });
        assert_eq!(e2, EpochId(2));

        assert_eq!(ledger.view(EpochId(0)).map(|v| v.len()), Some(3));
        assert_eq!(ledger.view(EpochId(1)).map(|v| v.len()), Some(4));
        assert_eq!(ledger.view(EpochId(2)).map(|v| v.len()), Some(5));

        // Stacked lookups resolve spilled terms through the right layer.
        let head = ledger.head_view();
        let d = head.lookup(&Term::iri("urn:d")).expect("spilled in e1");
        assert_eq!(head.term(d), &Term::iri("urn:d"));
        let e = head.lookup(&Term::iri("urn:e")).expect("spilled in e2");
        assert_eq!(head.term(e), &Term::iri("urn:e"));
    }

    #[test]
    fn hashes_chain_and_verify() {
        let mut ledger = Ledger::new(seed_graph());
        commit_overlay(&mut ledger, |ov| {
            ov.insert_iris("urn:c", "urn:p", "urn:d");
        });
        let h0 = ledger.hash_at(EpochId(0)).expect("base hash");
        let h1 = ledger.hash_at(EpochId(1)).expect("layer hash");
        assert_ne!(h0, h1);
        assert_eq!(ledger.verify_chain(), None);

        // Identical content yields an identical chain.
        let mut other = Ledger::new(seed_graph());
        commit_overlay(&mut other, |ov| {
            ov.insert_iris("urn:c", "urn:p", "urn:d");
        });
        assert_eq!(other.hash_at(EpochId(1)), Some(h1));

        // Different content diverges.
        let mut third = Ledger::new(seed_graph());
        commit_overlay(&mut third, |ov| {
            ov.insert_iris("urn:c", "urn:p", "urn:x");
        });
        assert_ne!(third.hash_at(EpochId(1)), Some(h1));
    }

    #[test]
    fn branches_fork_without_copying_and_stay_isolated() {
        let mut ledger = Ledger::new(seed_graph());
        commit_overlay(&mut ledger, |ov| {
            ov.insert_iris("urn:c", "urn:p", "urn:d");
        });
        let head_before = ledger.head();
        let hash_before = ledger.hash_at(head_before);

        let mut branch = ledger.fork(EpochId(1)).expect("fork at head");
        let mut ov = Overlay::new(ledger.branch_view(&branch));
        ov.insert_iris("urn:z", "urn:p", "urn:w");
        let (terms, delta) = ov.into_delta();
        let bhead = ledger.commit_branch(&mut branch, terms, delta);
        assert_eq!(bhead, EpochId(2));

        // Branch sees its commit; the main chain is untouched.
        assert_eq!(ledger.branch_view(&branch).len(), 5);
        assert_eq!(ledger.head(), head_before);
        assert_eq!(ledger.hash_at(head_before), hash_before);
        assert_eq!(ledger.verify_chain(), None);

        let (only_b, only_m) = diff_views(&ledger.branch_view(&branch), &ledger.head_view());
        assert_eq!(only_b.len(), 1);
        assert!(only_b[0].contains("urn:z"));
        assert!(only_m.is_empty());
    }

    /// Over a base a compaction adopted, the chain hashes as one over
    /// the same content in memory, and `verify_chain` still names the
    /// layer tampered with.
    #[test]
    fn a_tampered_layer_is_named_after_a_compaction() {
        use crate::disk::{DiskStore, OpenOptions};
        let commit = |ledger: &mut Ledger, s: &str| {
            let mut ov = Overlay::new(ledger.head_view());
            ov.insert_iris(s, "urn:p", "urn:q");
            let (terms, delta) = ov.into_delta();
            ledger.commit(terms, delta);
        };
        let dir = std::env::temp_dir().join(format!("feo-ledger-tamper-{}", std::process::id()));
        let g = seed_graph();
        DiskStore::save(&dir, &g, g.stats(), 0, &[]).unwrap();
        let mut opened = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        let mut disk = Ledger::from_base(BaseStore::Disk(opened.segment.clone()));
        let mut mem = Ledger::new(seed_graph());
        for s in ["urn:c", "urn:d"] {
            commit(&mut disk, s);
            commit(&mut mem, s);
        }
        let stats = (disk.layers.iter()).fold(disk.base.stats().clone(), |acc, l| {
            acc.merged_with(l.stats())
        });
        let adopted = opened.store.compact(&disk.head_view(), &stats, 0).unwrap();
        let mut disk = Ledger::from_base(BaseStore::Disk(Arc::new(adopted)));
        let head = mem.head_view();
        let mut flat = Graph::new();
        for i in 0..head.term_count() {
            flat.intern(head.term(TermId(i as u32)));
        }
        for [s, p, o] in head.iter_ids() {
            flat.insert_ids(s, p, o);
        }
        let mut flat = Ledger::new(flat);
        for s in ["urn:e", "urn:f", "urn:g"] {
            commit(&mut disk, s);
            commit(&mut flat, s);
        }
        for epoch in (0..=3).map(EpochId) {
            assert_eq!(disk.hash_at(epoch), flat.hash_at(epoch), "epoch {epoch}");
        }
        assert_eq!(disk.verify_chain(), None);
        let layer = Arc::get_mut(&mut disk.layers[1]).expect("not shared");
        layer.runs[0][0][2] = layer.runs[0][0][0];
        assert_eq!(disk.verify_chain(), Some(EpochId(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A layer counts class instances by `rdf:type` as the view it is
    /// committed on names it, even when a layer above the base interned
    /// it: the base here never holds `rdf:type`.
    #[test]
    fn layers_above_the_one_that_interned_rdf_type_count_classes() {
        let mut base = Graph::new();
        base.insert_iris("urn:a", "urn:p", "urn:b");
        let mut ledger = Ledger::new(base);
        for (s, class) in [("urn:a", "urn:C"), ("urn:b", "urn:D")] {
            let mut ov = Overlay::new(ledger.head_view());
            ov.insert_iris(s, rdf::TYPE, class);
            let (terms, delta) = ov.into_delta();
            ledger.commit(terms, delta);
        }
        let head = ledger.head_view();
        for class in ["urn:C", "urn:D"] {
            let id = head.lookup_iri(class).expect("class interned");
            assert_eq!(head.class_instance_count(id), 1, "{class}");
        }
        let ty = head.lookup_iri(rdf::TYPE);
        assert!(ledger
            .layers()
            .iter()
            .all(|l| l.stats().rdf_type_id() == ty));
    }

    #[test]
    fn view_matches_equivalent_overlay() {
        let mut ledger = Ledger::new(seed_graph());
        commit_overlay(&mut ledger, |ov| {
            ov.insert_iris("urn:c", "urn:p", "urn:d");
            ov.insert_iris("urn:d", rdf::TYPE, "urn:C");
        });
        let view = ledger.head_view();

        let mut ov = Overlay::new(ledger.base());
        ov.insert_iris("urn:c", "urn:p", "urn:d");
        ov.insert_iris("urn:d", rdf::TYPE, "urn:C");

        assert_eq!(view.len(), ov.len());
        assert_eq!(view.term_count(), ov.term_count());
        let p = view.lookup(&Term::iri("urn:p")).expect("p interned");
        assert_eq!(view.predicate_stats(p), ov.predicate_stats(p));
        let c = view.lookup(&Term::iri("urn:C")).expect("C interned");
        assert_eq!(view.class_instance_count(c), ov.class_instance_count(c));
        let all_v: Vec<IdTriple> = view.match_pattern(None, None, None);
        let all_o: Vec<IdTriple> = ov.match_pattern(None, None, None);
        assert_eq!(all_v.len(), all_o.len());
    }
}
