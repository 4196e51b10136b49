//! The one storage decision every triple store shares: how a triple
//! index is laid out and which of its sorted orders answers a pattern.
//!
//! Every store keeps its triples in three sorted orders, the rotations
//! of `[s, p, o]`: SPO, POS (`[p, o, s]`, rotated left once) and OSP
//! (`[o, s, p]`, twice). For each of the eight bound/unbound shapes of
//! a pattern one rotation puts every bound position first, so the
//! matches are one contiguous range of that order ([`access_path`]).
//! The physical forms differ — a [`TripleIndex`] of B-trees for the
//! mutable [`Graph`](crate::Graph) and overlay delta, frozen sorted
//! runs for a committed [`Layer`](crate::Layer) (slices) and a
//! [`Segment`](crate::Segment) (mmap) — but all of them read through
//! [`pattern_range`], and the frozen ones through [`match_runs`].
//!
//! The SPO and POS orders are also what a store's statistics are
//! counted from ([`GraphStats::count`]): a [`TripleIndex`] when its
//! owner is first read after a mutation, a layer's runs when it is
//! committed. Inserting and removing keep nothing but the B-trees.

use std::collections::BTreeSet;

use crate::graph::IdTriple;
use crate::intern::TermId;
use crate::stats::GraphStats;

/// One sorted order of a triple index: a rotation of `[s, p, o]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// `[s, p, o]`.
    Spo = 0,
    /// `[p, o, s]`.
    Pos = 1,
    /// `[o, s, p]`.
    Osp = 2,
}

impl Rotation {
    pub(crate) const ALL: [Rotation; 3] = [Rotation::Spo, Rotation::Pos, Rotation::Osp];

    /// An `[s, p, o]` key in this rotation's order.
    pub(crate) fn apply(self, [s, p, o]: [u32; 3]) -> [u32; 3] {
        match self {
            Rotation::Spo => [s, p, o],
            Rotation::Pos => [p, o, s],
            Rotation::Osp => [o, s, p],
        }
    }

    /// A key of this rotation's order back as an `[s, p, o]` triple.
    pub(crate) fn triple(self, [a, b, c]: [u32; 3]) -> IdTriple {
        let spo = match self {
            Rotation::Spo => [a, b, c],
            Rotation::Pos => [c, a, b],
            Rotation::Osp => [b, c, a],
        };
        spo.map(TermId)
    }
}

/// The access path for a pattern whose subject, predicate and object
/// are bound or not: the rotation whose order puts every bound position
/// first, so the matches are one range of it (all of it when nothing is
/// bound). The one place a store's permutation is chosen; the SPARQL
/// planner labels its steps from it.
pub fn access_path(s: bool, p: bool, o: bool) -> Rotation {
    match (s, p, o) {
        (false, true, _) => Rotation::Pos,
        (_, false, true) => Rotation::Osp,
        _ => Rotation::Spo,
    }
}

/// The rotation that answers the pattern `s p o`, and the inclusive
/// bounds of its matches in that rotation's order.
fn pattern_range(
    s: Option<TermId>,
    p: Option<TermId>,
    o: Option<TermId>,
) -> (Rotation, [u32; 3], [u32; 3]) {
    let rotation = access_path(s.is_some(), p.is_some(), o.is_some());
    let key = [s, p, o].map(|x| x.map(|id| id.0));
    let lo = rotation.apply(key.map(|x| x.unwrap_or(0)));
    let hi = rotation.apply(key.map(|x| x.unwrap_or(u32::MAX)));
    (rotation, lo, hi)
}

/// The first index in `0..len` where `below` fails, for a predicate
/// that holds on a prefix of that range. Halves without an early exit,
/// as `slice::partition_point` does, so the step compiles to a
/// conditional move rather than a mispredicted branch.
pub(crate) fn partition_point(len: usize, below: impl Fn(usize) -> bool) -> usize {
    if len == 0 {
        return 0;
    }
    let (mut base, mut size) = (0, len);
    while size > 1 {
        let half = size / 2;
        if below(base + half) {
            base += half;
        }
        size -= half;
    }
    base + usize::from(below(base))
}

/// The triples matching `s p o` in a store kept as three frozen sorted
/// runs of `len` triples each, where `at(rotation, i)` reads element
/// `i` of that rotation's run. A binary search finds the first match;
/// the iterator then reads forward and stops at the first element past
/// the range, so it reads each match once plus one element.
pub(crate) fn match_runs<'a>(
    len: usize,
    at: impl Fn(Rotation, usize) -> [u32; 3] + 'a,
    s: Option<TermId>,
    p: Option<TermId>,
    o: Option<TermId>,
) -> impl Iterator<Item = IdTriple> + 'a {
    let (rotation, lo, hi) = pattern_range(s, p, o);
    let start = partition_point(len, |i| at(rotation, i) < lo);
    (start..len)
        .map(move |i| at(rotation, i))
        .take_while(move |&t| t <= hi)
        .map(move |t| rotation.triple(t))
}

/// A mutable triple index: one B-tree per rotation.
#[derive(Debug, Clone, Default)]
pub(crate) struct TripleIndex {
    pub(crate) runs: [BTreeSet<[u32; 3]>; 3],
}

impl TripleIndex {
    pub(crate) fn len(&self) -> usize {
        self.runs[0].len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.runs[0].is_empty()
    }

    /// Counts the index's statistics; `rdf_type` is `rdf:type`'s id in
    /// the owning store's dictionary.
    pub(crate) fn count_stats(&self, rdf_type: Option<TermId>) -> GraphStats {
        let [spo, pos, _] = &self.runs;
        GraphStats::count(rdf_type, spo.iter().copied(), pos.iter().copied())
    }

    /// Inserts a triple. Returns true when newly added.
    pub(crate) fn insert(&mut self, [s, p, o]: IdTriple) -> bool {
        let t = [s.0, p.0, o.0];
        if !self.runs[0].insert(t) {
            return false;
        }
        for rotation in [Rotation::Pos, Rotation::Osp] {
            self.runs[rotation as usize].insert(rotation.apply(t));
        }
        true
    }

    /// Removes a triple. Returns true when it was present.
    pub(crate) fn remove(&mut self, [s, p, o]: IdTriple) -> bool {
        let t = [s.0, p.0, o.0];
        if !self.runs[0].remove(&t) {
            return false;
        }
        for rotation in [Rotation::Pos, Rotation::Osp] {
            self.runs[rotation as usize].remove(&rotation.apply(t));
        }
        true
    }

    pub(crate) fn contains(&self, [s, p, o]: IdTriple) -> bool {
        self.runs[0].contains(&[s.0, p.0, o.0])
    }

    /// Appends the triples matching `s p o` to `out`, in the answering
    /// rotation's order. A fully bound key is one lookup.
    pub(crate) fn matches_into(
        &self,
        out: &mut Vec<IdTriple>,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                out.extend(self.contains([s, p, o]).then_some([s, p, o]))
            }
            _ => out.extend(self.scan(s, p, o)),
        }
    }

    /// The triples matching `s p o`, in the answering rotation's order.
    /// Seeks the first match and reads forward to the first key past the
    /// range, as [`match_runs`] does: one descent of the tree, where a
    /// bounded range descends twice.
    fn scan(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        let (rotation, lo, hi) = pattern_range(s, p, o);
        self.runs[rotation as usize]
            .range(lo..)
            .take_while(move |&&t| t <= hi)
            .map(move |&t| rotation.triple(t))
    }

    /// Every triple in SPO order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.runs[0].iter().map(|&t| Rotation::Spo.triple(t))
    }

    /// Drops every triple.
    pub(crate) fn clear(&mut self) {
        self.runs.iter_mut().for_each(BTreeSet::clear);
    }

    /// Do the three rotations hold the same triples?
    pub(crate) fn is_coherent(&self) -> bool {
        let [spo, pos, osp] = &self.runs;
        spo.len() == pos.len()
            && spo.len() == osp.len()
            && spo.iter().all(|&t| {
                pos.contains(&Rotation::Pos.apply(t)) && osp.contains(&Rotation::Osp.apply(t))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_gets_the_rotation_that_binds_a_prefix() {
        use Rotation::*;
        let cases = [
            ((true, true, true), Spo),
            ((true, true, false), Spo),
            ((true, false, false), Spo),
            ((false, true, true), Pos),
            ((false, true, false), Pos),
            ((true, false, true), Osp),
            ((false, false, true), Osp),
            ((false, false, false), Spo),
        ];
        for ((s, p, o), want) in cases {
            assert_eq!(access_path(s, p, o), want, "{s} {p} {o}");
        }
    }

    #[test]
    fn rotations_round_trip() {
        for rotation in Rotation::ALL {
            let key = rotation.apply([1, 2, 3]);
            assert_eq!(key[0], [1, 2, 3][rotation as usize]);
            assert_eq!(rotation.triple(key), [TermId(1), TermId(2), TermId(3)]);
        }
    }

    #[test]
    fn match_runs_agrees_with_a_filter() {
        let triples: Vec<[u32; 3]> = (0..40).map(|i| [i / 9, i % 9 / 3, i % 3]).collect();
        let runs = Rotation::ALL.map(|r| {
            let mut run: Vec<[u32; 3]> = triples.iter().map(|&t| r.apply(t)).collect();
            run.sort_unstable();
            run
        });
        let at = |r: Rotation, i: usize| runs[r as usize][i];
        // Every shape bound to every stored triple and to an absent key.
        for key in triples.iter().copied().chain([[7, 7, 7]]) {
            for mask in 0..8u8 {
                let bound = |i: usize| (mask & (1 << i) != 0).then_some(TermId(key[i]));
                let (s, p, o) = (bound(0), bound(1), bound(2));
                let mut got: Vec<IdTriple> = match_runs(triples.len(), at, s, p, o).collect();
                got.sort_unstable();
                let want: Vec<IdTriple> = triples
                    .iter()
                    .map(|&t| t.map(TermId))
                    .filter(|t| (0..3).all(|i| bound(i).is_none_or(|x| t[i] == x)))
                    .collect();
                assert_eq!(got, want, "mask {mask} on {key:?}");
            }
        }
        assert_eq!(match_runs(0, at, None, None, None).count(), 0);
    }
}
