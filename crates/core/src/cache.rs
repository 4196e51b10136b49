//! A bounded memo of parsed ad-hoc SPARQL text.
//!
//! Explanations run the prepared competency templates
//! ([`crate::queries`]) and never come here. This memo serves query text
//! a caller writes — `Session::query`, behind `/query` and `feo query`,
//! at the head, a past epoch or a branch head — where a repeated query
//! would otherwise be parsed again on every call.
//!
//! A parse is a function of the text alone, so one entry serves every
//! epoch and branch, and no commit, branch or compaction invalidates
//! it. The plan is not kept: it depends on the statistics of the view
//! it runs on, so every call plans against its own view.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use feo_sparql::ast::Query;
use feo_sparql::{parse_query, SparqlError};

/// Texts retained; inserting one more evicts one.
const MAX_ENTRIES: usize = 256;

/// Hit/miss counters of a [`crate::EngineBase`]'s memo of parsed ad-hoc
/// query text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the memo without parsing.
    pub hits: u64,
    /// Lookups that had to parse the text (failed parses included).
    pub misses: u64,
    /// Texts currently memoised.
    pub entries: usize,
}

/// Interior-mutable memo living on the shared, otherwise-immutable
/// [`crate::EngineBase`]. All operations take `&self`, so any number of
/// concurrent sessions share one memo through an `Arc`d base; hits take
/// the read lock only.
#[derive(Default)]
pub(crate) struct ParseMemo {
    parsed: RwLock<HashMap<String, Arc<Query>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ParseMemo {
    /// The parse of `text`: the memoised one, or a fresh parse that is
    /// memoised when it succeeds.
    pub(crate) fn parse(&self, text: &str) -> Result<Arc<Query>, SparqlError> {
        // A poisoned lock only means another thread panicked while
        // holding it; every update leaves the map whole, so keep serving
        // rather than propagate the panic.
        if let Some(query) = (self.parsed.read().unwrap_or_else(|e| e.into_inner())).get(text) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(query));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let query = Arc::new(parse_query(text)?);
        let mut parsed = self.parsed.write().unwrap_or_else(|e| e.into_inner());
        if parsed.len() >= MAX_ENTRIES && !parsed.contains_key(text) {
            // Any entry will do: a memo of texts has no recency to keep.
            if let Some(victim) = parsed.keys().next().cloned() {
                parsed.remove(&victim);
            }
        }
        parsed.insert(text.to_string(), Arc::clone(&query));
        Ok(query)
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.parsed.read().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: &str = "SELECT ?s WHERE { ?s <http://e/p> ?o }";

    #[test]
    fn repeated_lookup_hits() {
        let memo = ParseMemo::default();
        let first = memo.parse(Q).expect("parses");
        let again = memo.parse(Q).expect("parses");
        assert!(Arc::ptr_eq(&first, &again), "one parse serves both");
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
    }

    #[test]
    fn parse_errors_are_not_memoised() {
        let memo = ParseMemo::default();
        assert!(memo.parse("SELEKT nonsense").is_err());
        assert!(memo.parse("SELEKT nonsense").is_err());
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 0, 0));
    }

    #[test]
    fn distinct_texts_get_distinct_entries() {
        let memo = ParseMemo::default();
        memo.parse(Q).expect("parses");
        memo.parse("ASK { ?s ?p ?o }").expect("parses");
        assert_eq!(memo.stats().entries, 2);
    }

    #[test]
    fn entries_stay_within_the_bound() {
        let memo = ParseMemo::default();
        for i in 0..300 {
            let text = format!("SELECT ?s WHERE {{ ?s ?p {i} }}");
            memo.parse(&text).expect("parses");
            // The text just parsed is always memoised.
            memo.parse(&text).expect("parses");
        }
        let stats = memo.stats();
        assert!(stats.entries <= MAX_ENTRIES, "{stats:?}");
        assert_eq!((stats.misses, stats.hits), (300, 300));
    }

    /// Sessions on many threads share one memo: every lookup is counted
    /// once, and each returns the parse of the text it asked for.
    #[test]
    fn concurrent_lookups_return_their_own_parse() {
        let memo = ParseMemo::default();
        let texts = [
            Q,
            "ASK { ?s ?p ?o }",
            "SELECT ?o WHERE { <http://e/a> ?p ?o }",
        ];
        std::thread::scope(|s| {
            for worker in 0..4 {
                let (memo, texts) = (&memo, &texts);
                s.spawn(move || {
                    for i in 0..100 {
                        let text = texts[(i + worker) % texts.len()];
                        let query = memo.parse(text).expect("parses");
                        assert_eq!(*query, parse_query(text).expect("parses"), "{text}");
                    }
                });
            }
        });
        let stats = memo.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 100);
        assert_eq!(stats.entries, texts.len());
    }
}
