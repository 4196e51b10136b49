//! Epoch-keyed plan cache for ad-hoc SPARQL text.
//!
//! Explanations run the prepared competency templates
//! ([`crate::queries`]) and never come here. This cache serves query text
//! a caller writes — `Session::query`, behind `/query` and `feo query`,
//! at the head, a past epoch or a branch head — where a repeated query
//! would otherwise be parsed and planned again on every call.
//!
//! Parsing and cost-based planning are pure functions of (query text,
//! graph statistics), and with the epoch ledger every epoch's graph is
//! immutable forever, so entries are keyed by (chain, epoch, query text)
//! and each entry is a pure function of its key. The caller passes the
//! key and the matching view together, so a concurrent commit can never
//! smuggle a plan for one epoch under another epoch's key. Commits
//! invalidate nothing: the head moves to a fresh key, while entries for
//! older epochs stay so time-travel queries keep hitting. A capacity
//! bound evicts the epochs furthest from the head.
//!
//! Chain 0 is the main commit chain; each named branch gets a stable
//! non-zero id at creation, because a branch epoch's statistics differ
//! from the main epoch with the same number.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use feo_rdf::GraphView;
use feo_sparql::ast::Query;
use feo_sparql::{parse_query, plan_query, Plan, SparqlError};

/// Entries retained across all epochs before eviction kicks in.
const MAX_ENTRIES: usize = 256;

/// Hit/miss counters and current state of a [`crate::EngineBase`]'s plan
/// cache for ad-hoc query text — exposed so tests (and curious callers)
/// can verify that repeated queries reuse cached plans and that commits
/// re-key the head without disturbing older epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache without re-parsing or re-planning.
    pub hits: u64,
    /// Lookups that had to parse and plan (first sight of a
    /// (chain, epoch, query) triple).
    pub misses: u64,
    /// Entries currently cached, across all retained epochs.
    pub entries: usize,
    /// The head epoch last announced via [`PlanCache::advance_head`] —
    /// the ledger's newest commit.
    pub epoch: u64,
}

struct CachedPlan {
    query: Arc<Query>,
    plan: Arc<Plan>,
}

/// Interior-mutable cache living on the shared, otherwise-immutable
/// [`crate::EngineBase`]. All operations take `&self`, so any number of
/// concurrent sessions can share one cache through an `Arc`d base; hits
/// take the read lock only.
#[derive(Default)]
pub(crate) struct PlanCache {
    /// Plans by (chain, epoch), then by query text.
    entries: RwLock<HashMap<(u64, u64), HashMap<String, CachedPlan>>>,
    head: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Returns the parsed query and its plan for `text` under `key`, a
    /// (chain, epoch) pair, reusing a cached pair when one exists;
    /// otherwise parses `text`, plans it against `view`'s statistics,
    /// and caches the result.
    ///
    /// Correctness contract: `view` must be the graph view *of* `key`'s
    /// chain and epoch.
    pub(crate) fn get_or_insert<G: GraphView>(
        &self,
        text: &str,
        key: (u64, u64),
        view: G,
    ) -> Result<(Arc<Query>, Arc<Plan>), SparqlError> {
        // A poisoned lock only means another thread panicked while
        // holding it; every update leaves the map whole, so keep serving
        // rather than propagate the panic.
        if let Some(hit) = (self.entries.read().unwrap_or_else(|e| e.into_inner()))
            .get(&key)
            .and_then(|plans| plans.get(text))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(&hit.query), Arc::clone(&hit.plan)));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let query = Arc::new(parse_query(text)?);
        let plan = Arc::new(plan_query(&view, &query));
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        if entries.values().map(HashMap::len).sum::<usize>() >= MAX_ENTRIES {
            // Drop the epoch furthest from the main-chain head, sparing
            // the key being inserted. Branch epochs compete on their
            // number too: head distance is a recency proxy either way.
            let head = self.head.load(Ordering::Acquire);
            let victim = (entries.keys().copied())
                .filter(|&k| k != key)
                .max_by_key(|&(_, epoch)| head.abs_diff(epoch));
            if let Some(victim) = victim {
                entries.remove(&victim);
            }
        }
        entries.entry(key).or_default().insert(
            text.to_string(),
            CachedPlan {
                query: Arc::clone(&query),
                plan: Arc::clone(&plan),
            },
        );
        Ok((query, plan))
    }

    /// Announces a new head epoch after a commit. Nothing is dropped:
    /// older epochs' plans remain valid for time-travel queries and stay
    /// cached; only lookups at the new head will miss (fresh keys).
    pub(crate) fn advance_head(&self, head: u64) {
        self.head.fetch_max(head, Ordering::AcqRel);
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.values().map(HashMap::len).sum(),
            epoch: self.head.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::{Graph, GraphStore};

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g
    }

    const Q: &str = "SELECT ?s WHERE { ?s <http://e/p> ?o }";

    #[test]
    fn repeated_lookup_hits() {
        let cache = PlanCache::default();
        let g = graph();
        cache.get_or_insert(Q, (0, 0), &g).expect("parses");
        cache.get_or_insert(Q, (0, 0), &g).expect("parses");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn commits_retain_old_epochs() {
        let cache = PlanCache::default();
        let g = graph();
        cache.get_or_insert(Q, (0, 0), &g).expect("parses");
        cache.advance_head(1);
        // Head lookups re-plan under the new key…
        cache.get_or_insert(Q, (0, 1), &g).expect("parses");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
        // …but time-travel back to epoch 0 still hits.
        cache.get_or_insert(Q, (0, 0), &g).expect("parses");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1, "epoch-0 plan must survive the commit");
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn branch_keys_partition_from_main() {
        let cache = PlanCache::default();
        let g = graph();
        // Same epoch number, different chains: distinct entries.
        cache.get_or_insert(Q, (0, 3), &g).expect("parses");
        cache.get_or_insert(Q, (1, 3), &g).expect("parses");
        assert_eq!(cache.stats().entries, 2, "chains must not collide");
        // Each chain hits its own entry on replay.
        cache.get_or_insert(Q, (0, 3), &g).expect("parses");
        cache.get_or_insert(Q, (1, 3), &g).expect("parses");
        assert_eq!(cache.stats().hits, 2);
        // A second branch is a third partition.
        cache.get_or_insert(Q, (2, 3), &g).expect("parses");
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = PlanCache::default();
        let g = graph();
        assert!(cache.get_or_insert("SELEKT nonsense", (0, 0), &g).is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn distinct_texts_get_distinct_entries() {
        let cache = PlanCache::default();
        let g = graph();
        cache.get_or_insert(Q, (0, 0), &g).expect("parses");
        cache
            .get_or_insert("ASK { ?s ?p ?o }", (0, 0), &g)
            .expect("parses");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn eviction_drops_epochs_furthest_from_head() {
        let cache = PlanCache::default();
        let g = graph();
        // Fill the cache across many epochs with distinct texts.
        let mut epoch = 0u64;
        while cache.stats().entries < MAX_ENTRIES {
            cache
                .get_or_insert(
                    &format!("SELECT ?s WHERE {{ ?s ?p {epoch} }}"),
                    (0, epoch),
                    &g,
                )
                .expect("parses");
            epoch += 1;
        }
        cache.advance_head(epoch);
        cache.get_or_insert(Q, (0, epoch), &g).expect("parses");
        let stats = cache.stats();
        assert!(
            stats.entries <= MAX_ENTRIES,
            "capacity bound holds: {stats:?}"
        );
        // The head insert itself survived.
        cache.get_or_insert(Q, (0, epoch), &g).expect("parses");
        assert!(cache.stats().hits >= 1);
    }

    /// The race the old design documented: lookups racing a commit. With
    /// `(epoch, query)` keys an entry is a pure function of its key, so
    /// hammering lookups across epochs while the head advances must
    /// never produce a cross-epoch mix-up — every returned plan equals a
    /// freshly computed plan for the same key.
    #[test]
    fn concurrent_lookups_across_epochs_never_cross_contaminate() {
        let cache = PlanCache::default();
        // Two graphs with deliberately different statistics so a plan
        // computed against the wrong view is distinguishable.
        let small = graph();
        let mut big = Graph::new();
        for i in 0..64 {
            big.insert_iris(
                &format!("http://e/s{i}"),
                "http://e/p",
                &format!("http://e/o{}", i % 4),
            );
            big.insert_iris(&format!("http://e/s{i}"), "http://e/q", "http://e/x");
        }
        let texts = [
            "SELECT ?s WHERE { ?s <http://e/p> ?o . ?s <http://e/q> ?x }",
            "SELECT ?s WHERE { ?s <http://e/q> ?x . ?s <http://e/p> ?o }",
            Q,
        ];
        let expect = |epoch: u64, text: &str| {
            let view: &Graph = if epoch.is_multiple_of(2) {
                &small
            } else {
                &big
            };
            let q = parse_query(text).expect("parses");
            format!("{:?}", plan_query(&view, &q))
        };

        std::thread::scope(|s| {
            for worker in 0..8 {
                let cache = &cache;
                let small = &small;
                let big = &big;
                let texts = &texts;
                let expect = &expect;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let epoch = (worker as u64 + i) % 6;
                        let view: &Graph = if epoch.is_multiple_of(2) { small } else { big };
                        let text = texts[(i as usize + worker) % texts.len()];
                        let (_, plan) =
                            cache.get_or_insert(text, (0, epoch), view).expect("parses");
                        assert_eq!(
                            format!("{plan:?}"),
                            expect(epoch, text),
                            "plan under key ({epoch}, {text:?}) diverged"
                        );
                        if i % 50 == 0 {
                            cache.advance_head(epoch);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
    }
}
