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

use std::borrow::Cow;
use std::sync::Arc;

use crate::disk::{Segment, StoreError, WalRecord};
use crate::graph::{Graph, IdTriple};
use crate::hash::{fnv_bytes, FxSet, FNV_OFFSET};
use crate::index::{match_runs, Rotation, TripleIndex};
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

// ---- FNV-1a chain hashing ---------------------------------------------

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

fn fnv_triple(h: u64, [s, p, o]: IdTriple) -> u64 {
    fnv_u64(
        fnv_u64(fnv_u64(h, u64::from(s.0)), u64::from(p.0)),
        u64::from(o.0),
    )
}

fn fnv_term(h: u64, term: &Term) -> u64 {
    // Debug rendering is deterministic and distinguishes term kinds.
    fnv_bytes(h, format!("{term:?}").as_bytes())
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
    /// FNV-1a over the parent epoch's hash, the spill, and the triples.
    hash: u64,
}

/// FNV-1a over a layer's parent hash, term base, spill and SPO run.
fn layer_hash(parent: u64, dict: &Interner, spo: &[[u32; 3]]) -> u64 {
    let mut hash = fnv_u64(parent, dict.first() as u64);
    for t in dict.terms() {
        hash = fnv_term(hash, t);
    }
    for &[s, p, o] in spo {
        hash = fnv_triple(hash, [TermId(s), TermId(p), TermId(o)]);
    }
    hash
}

impl Layer {
    /// Freezes a session delta into a layer. `terms` and `delta` follow
    /// the `Overlay::into_delta` contract: spill term `i` has id
    /// `term_base + i`, so no term repeats (`DiskStore::open` rejects a
    /// WAL record that repeats one). The delta is indexed as live inserts index it,
    /// so its statistics are exactly what an overlay kept for it.
    fn new(
        term_base: usize,
        parent_hash: u64,
        rdf_type: Option<TermId>,
        terms: Vec<Term>,
        delta: Vec<IdTriple>,
    ) -> Layer {
        let mut dict = Interner::starting_at(term_base);
        let mut index = TripleIndex::new(rdf_type);
        let spilled = terms.len();
        for t in terms {
            index.intern(&mut dict, Cow::Owned(t));
        }
        debug_assert_eq!(dict.len(), spilled, "a spill repeats a term");
        for t in delta {
            index.insert(t);
        }
        let (runs, stats) = index.into_runs();
        Layer {
            hash: layer_hash(parent_hash, &dict, &runs[0]),
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

    /// The maintained statistics (persisted ones, for a segment).
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
    fn maintained_stats(&self) -> Option<&GraphStats> {
        Some(self.stats())
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
    rdf_type: Option<TermId>,
    layers: Vec<std::sync::Arc<Layer>>,
}

impl Ledger {
    /// Seals `base` as epoch 0 of a new chain.
    pub fn new(base: Graph) -> Ledger {
        Ledger::from_base(BaseStore::Mem(base))
    }

    /// Seals any base store — in-memory or a reopened segment — as
    /// epoch 0. The base hash depends only on content, so a ledger
    /// rebuilt over a segment chains identically to the one whose
    /// graph the segment was written from.
    pub fn from_base(base: BaseStore) -> Ledger {
        let mut h = fnv_u64(FNV_OFFSET, base.term_count() as u64);
        h = fnv_u64(h, base.len() as u64);
        for t in GraphView::iter_ids(&base) {
            h = fnv_triple(h, t);
        }
        let rdf_type = base.lookup_iri(rdf::TYPE);
        Ledger {
            base,
            base_hash: h,
            rdf_type,
            layers: Vec::new(),
        }
    }

    /// Rebuilds a stored chain: `base` as epoch 0 and the WAL records
    /// `DiskStore::open` validated committed on it in order. A record
    /// repeating a triple of the base, an earlier record or itself is
    /// `Corrupt`: a compaction would count it twice in its stats.
    pub fn replay(base: BaseStore, records: &[WalRecord]) -> Result<Ledger, StoreError> {
        let mut ledger = Ledger::from_base(base);
        let mut seen = FxSet::default();
        for (k, rec) in records.iter().enumerate() {
            let triples = rec.id_triples();
            let held = |&[s, p, o]: &IdTriple| ledger.base.contains_ids(s, p, o);
            if triples.iter().any(|t| !seen.insert(*t) || held(t)) {
                return Err(StoreError::Corrupt {
                    what: format!("wal record {k}: repeats a triple"),
                });
            }
            ledger.commit(rec.terms.clone(), triples);
        }
        Ok(ledger)
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

    /// Total term count visible at `epoch`, or `None` past the head.
    pub fn term_count_at(&self, epoch: EpochId) -> Option<usize> {
        if epoch.0 as usize > self.layers.len() {
            return None;
        }
        Some(
            self.base.term_count()
                + self.layers[..epoch.0 as usize]
                    .iter()
                    .map(|l| l.term_len())
                    .sum::<usize>(),
        )
    }

    /// Commits a session delta (per the `Overlay::into_delta` contract:
    /// spill ids start at the head's term count, triples in SPO order)
    /// as a new layer and returns the new head epoch.
    pub fn commit(&mut self, terms: Vec<Term>, delta: Vec<IdTriple>) -> EpochId {
        let head = self.head();
        let term_base = self
            .term_count_at(head)
            .unwrap_or_else(|| self.base.term_count());
        debug_assert!(
            delta
                .iter()
                .flatten()
                .all(|id| (id.0 as usize) < term_base + terms.len()),
            "delta references ids beyond the committed dictionary"
        );
        let parent = self.hash_at(head).unwrap_or(self.base_hash);
        let layer = Layer::new(term_base, parent, self.rdf_type, terms, delta);
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
        let term_base = self.branch_view(chain).term_count();
        debug_assert!(
            delta
                .iter()
                .flatten()
                .all(|id| (id.0 as usize) < term_base + terms.len()),
            "branch delta references ids beyond the branch dictionary"
        );
        let parent = chain
            .layers
            .last()
            .map(|l| l.hash())
            .or_else(|| self.hash_at(chain.fork))
            .unwrap_or(self.base_hash);
        let layer = Layer::new(term_base, parent, self.rdf_type, terms, delta);
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
