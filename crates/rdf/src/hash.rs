//! The workspace's two hand-rolled hashes.
//!
//! - **FNV-1a** for what is written down: the ledger's chained epoch
//!   hashes and the segment and WAL checksums. These must not depend on
//!   the std hasher's per-process seed.
//! - **FxHash** (rustc's multiply-rotate hash) for the in-memory maps on
//!   hot paths: the reasoner's postings and fresh sets, the evaluator's
//!   sub-pattern caches. Their keys are dictionary-assigned term ids,
//!   never text from outside, and SipHash would cost as much as the
//!   lookups it guards.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
pub(crate) fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FxHash state. Every write is folded in as 64-bit words, so ids,
/// discriminants and lengths skip the byte loop with the same hash.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed by [`FxHasher`].
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;
