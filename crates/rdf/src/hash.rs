//! The workspace's hand-rolled hashes, all on one seedless step: rotate,
//! xor a 64-bit word in, multiply (rustc's FxHash).
//!
//! - `Checksum` for what is written down or chained: the segment body
//!   and each WAL record (format version 2), the ledger's epoch hashes.
//!   Four lanes overlap their multiplies: about memory speed.
//! - `triple_sum` for a base's content, summed per triple so that a
//!   compacted base's is the old base's plus its layers'.
//! - [`FxHasher`] for the in-memory maps on hot paths: the reasoner's
//!   postings and fresh sets, the evaluator's sub-pattern caches. Their
//!   keys are dictionary-assigned term ids, never text from outside,
//!   and SipHash would cost as much as the lookups it guards.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Murmur3's 64-bit finaliser: every input bit reaches every output bit.
fn fmix(mut h: u64) -> u64 {
    h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// `sum` plus (wrapping) each triple's hash. The sum over a store does
/// not depend on order, and disjoint stores' sums add.
pub(crate) fn triple_sum<'a>(sum: u64, triples: impl IntoIterator<Item = &'a [u32; 3]>) -> u64 {
    triples.into_iter().fold(sum, |sum, &[s, p, o]| {
        let sp = u64::from(s) | u64::from(p) << 32;
        sum.wrapping_add(fmix(step(step(0, sp), u64::from(o))))
    })
}

const STRIPE: usize = 32;

/// A word-at-a-time checksum over a byte stream. Word `i` (8 bytes,
/// little-endian) steps lane `i % 4`, the stream zero-padded to a whole
/// 32-byte stripe; `finish` steps the byte length through the four
/// lanes and mixes. Bytes may arrive in pieces of any size: the value
/// depends on their concatenation only. A change confined to one word
/// always changes the value (each step is a bijection of its state).
#[derive(Default)]
pub(crate) struct Checksum {
    lanes: [u64; 4],
    tail: [u8; STRIPE], // the bytes past the last whole stripe
    len: u64,
}

impl Checksum {
    /// Appends `bytes` to the stream.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        let held = self.len as usize % STRIPE;
        self.len += bytes.len() as u64;
        if held > 0 {
            let take = bytes.len().min(STRIPE - held);
            self.tail[held..held + take].copy_from_slice(&bytes[..take]);
            if held + take < STRIPE {
                return;
            }
            let tail = self.tail;
            self.stripe(&tail);
            bytes = &bytes[take..];
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        stripes.by_ref().for_each(|stripe| self.stripe(stripe));
        let rest = stripes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    #[inline]
    fn stripe(&mut self, stripe: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let mut w = [0; 8];
            w.copy_from_slice(word);
            *lane = step(*lane, u64::from_le_bytes(w));
        }
    }

    /// The checksum of everything appended.
    pub(crate) fn finish(mut self) -> u64 {
        let held = self.len as usize % STRIPE;
        if held > 0 {
            self.tail[held..].fill(0);
            let tail = self.tail;
            self.stripe(&tail);
        }
        fmix(self.lanes.iter().fold(self.len, |h, &lane| step(h, lane)))
    }
}

/// [`Checksum`] of `bytes`.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.update(bytes);
    sum.finish()
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
        self.0 = step(self.0, n);
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
