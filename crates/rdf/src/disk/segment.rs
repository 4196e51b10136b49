//! The write-once, dictionary-encoded segment file.
//!
//! One segment persists one closed graph (the ledger's epoch-0 base):
//! the full term dictionary in dense id order, the three sorted triple
//! permutations `Graph` keeps in memory, the [`GraphStats`] it was
//! written with (read back at open, never recounted),
//! and a small metadata section. Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic  b"FEOSEG\0"                     (7 bytes)
//!        7   format version                         (1 byte, = 2)
//!        8   checksum: hash::checksum(bytes[16..])  (u64)
//!       16   term_count                             (u64)
//!       24   triple_count                           (u64)
//!       32   stats section length                   (u64)
//!       40   dict offset table  (term_count+1)×u64  (relative to blob)
//!        …   dict blob          concatenated codec-encoded terms
//!        …   sorted permutation term_count×u32      (ids by entry bytes)
//!        …   SPO run            triple_count×[u32;3]
//!        …   POS run            triple_count×[u32;3]
//!        …   OSP run            triple_count×[u32;3]
//!        …   stats section
//!        …   meta section       base_inferred, `hash::triple_sum` (2×u64)
//! ```
//!
//! The ledger's epoch-0 hash takes the triple sum as it is kept here.
//!
//! The dictionary keeps the graph's dense interner ids verbatim, so a
//! reopened segment answers with *exactly* the ids the original graph
//! used — WAL layers and derivation records stay valid without any
//! remapping. Reads are zero-copy over the mapped bytes: pattern scans
//! binary-search the runs in place and terms decode lazily into a
//! per-id cache on first access.
//!
//! Every structural invariant (section bounds, offset monotonicity, run
//! sort order, id ranges) is validated at open, after the checksum; a
//! file that passes [`Segment::open`] cannot make any later read panic.
//! A compaction adopts the file it has just written without either.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use super::codec;
use super::mmap::{map_file, MapData};
use super::source::{added_terms, SegmentSource};
use super::{StoreError, FORMAT_VERSION};
use crate::graph::{Graph, IdTriple};
use crate::hash::{checksum, triple_sum, Checksum};
use crate::index::{match_runs, partition_point, Rotation};
use crate::intern::TermId;
use crate::stats::{GraphStats, PredicateStats};
use crate::term::Term;
use crate::view::GraphView;

pub(crate) const MAGIC: &[u8; 7] = b"FEOSEG\0";
const HEADER_LEN: usize = 40;
/// The meta section: `base_inferred` and the triple sum.
const META_LEN: usize = 16;

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

pub(super) fn le64(b: &[u8], at: usize) -> u64 {
    u64::from(le32(b, at)) | u64::from(le32(b, at + 4)) << 32
}

// ---- stats / meta section codecs ------------------------------------

fn encode_stats(out: &mut Vec<u8>, stats: &GraphStats) {
    match stats.rdf_type_id() {
        Some(id) => {
            out.push(1);
            out.extend_from_slice(&id.0.to_le_bytes());
        }
        None => {
            out.push(0);
            out.extend_from_slice(&0u32.to_le_bytes());
        }
    }
    out.extend_from_slice(&stats.total_triples().to_le_bytes());
    let preds = stats.predicate_entries();
    out.extend_from_slice(&(preds.len() as u32).to_le_bytes());
    for (p, ps) in preds {
        out.extend_from_slice(&p.to_le_bytes());
        out.extend_from_slice(&ps.triples.to_le_bytes());
        out.extend_from_slice(&ps.distinct_subjects.to_le_bytes());
        out.extend_from_slice(&ps.distinct_objects.to_le_bytes());
    }
    let classes = stats.class_entries();
    out.extend_from_slice(&(classes.len() as u32).to_le_bytes());
    for (c, n) in classes {
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
}

fn decode_stats(bytes: &[u8]) -> Result<GraphStats, StoreError> {
    let mut r = codec::Reader::new(bytes, "segment stats");
    let has_type = r.u8()?;
    let raw_type = r.u32()?;
    let rdf_type = if has_type != 0 {
        Some(TermId(raw_type))
    } else {
        None
    };
    let total = r.u64()?;
    let np = r.u32()? as usize;
    let mut preds = Vec::with_capacity(np.min(bytes.len() / 28));
    for _ in 0..np {
        let p = r.u32()?;
        let triples = r.u64()?;
        let distinct_subjects = r.u64()?;
        let distinct_objects = r.u64()?;
        preds.push((
            p,
            PredicateStats {
                triples,
                distinct_subjects,
                distinct_objects,
            },
        ));
    }
    let nc = r.u32()? as usize;
    let mut classes = Vec::with_capacity(nc.min(bytes.len() / 12));
    for _ in 0..nc {
        let c = r.u32()?;
        let n = r.u64()?;
        classes.push((c, n));
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt {
            what: "segment stats: trailing bytes".to_string(),
        });
    }
    Ok(GraphStats::from_entries(rdf_type, total, preds, classes))
}

// ---- writer ----------------------------------------------------------

/// Dictionary entry `id`, by an offset table into `blob`.
fn entry_at<'a>(offsets: &[u8], blob: &'a [u8], id: usize) -> &'a [u8] {
    &blob[le64(offsets, id * 8) as usize..le64(offsets, id * 8 + 8) as usize]
}

/// The file under the segment writer's buffer: the body's checksum takes
/// each chunk as it goes to the file, whole buffers rather than single
/// ids, so the file is never held in memory.
struct Summed {
    file: File,
    checksum: Checksum,
}

impl Write for Summed {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.file.write(bytes)?;
        self.checksum.update(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// The segment file being written, buffered over [`Summed`].
struct SegmentWriter<'p> {
    out: BufWriter<Summed>,
    tmp: &'p Path,
}

impl SegmentWriter<'_> {
    /// Appends bytes the checksum covers (everything from offset 16).
    fn put(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.out
            .write_all(bytes)
            .map_err(|e| StoreError::io("write", self.tmp, e))
    }

    /// Appends `base` — sorted records of `W` little-endian words, the
    /// `i`th keyed by `base_key(i)` — in chunks as it is, with the sorted
    /// `items` merged in, each keyed and encoded by `item`. A key held
    /// twice is refused.
    fn put_merged<T: Copy, K: Ord, const W: usize>(
        &mut self,
        base: &[u8],
        base_key: impl Fn(usize) -> K,
        items: &[T],
        item: impl Fn(T) -> (K, [[u8; 4]; W]),
    ) -> Result<(), StoreError> {
        let (width, len) = (4 * W, base.len() / (4 * W));
        let (mut at, mut prev) = (0, None);
        for &t in items {
            let (key, bytes) = item(t);
            let pos = at + partition_point(len - at, |i| base_key(at + i) < key);
            self.put(&base[at * width..pos * width])?;
            if prev.as_ref() == Some(&key) || (pos < len && base_key(pos) == key) {
                return Err(StoreError::Corrupt {
                    what: "segment merge: a triple or term is held twice".to_string(),
                });
            }
            self.put(bytes.as_flattened())?;
            (at, prev) = (pos, Some(key));
        }
        self.put(&base[at * width..])
    }
}

/// What [`write_segment`] knows of the file it wrote, all a segment needs
/// besides its map and stats: term and triple counts, the blob's length
/// and the meta section.
pub struct Written {
    lens: [usize; 3],
    meta: [u64; 2],
}

/// Writes `source` (with its counted `stats` and the engine's epoch-0
/// inferred-triple count) as a segment file at `path`, crash-safely:
/// the bytes stream into `<path>.tmp` first, are fsynced, and only then
/// renamed over `path` — a crash mid-write leaves either the old file
/// or none.
///
/// A merge of what the source holds in order: a segment base is copied
/// from its map (whose pages are then dropped), and the terms and runs a
/// graph base or a layer adds are merged in. Stats that disagree with the
/// triple count, or a triple or term held twice, are refused.
pub fn write_segment<S: SegmentSource + ?Sized>(
    path: &Path,
    source: &S,
    stats: &GraphStats,
    base_inferred: u64,
) -> Result<Written, StoreError> {
    let parts @ (segment, graph, layers) = source.parts();
    // A segment base's sections as mapped; an empty base without one.
    let ([offsets, blob, perm], runs) = match segment {
        Some(seg) => {
            let b = seg.data.bytes();
            let run = |r: usize| &b[seg.runs[r]..seg.runs[r] + seg.triple_count * 12];
            let offsets = &b[HEADER_LEN..seg.dict_blob.start];
            let (blob, perm) = (&b[seg.dict_blob.clone()], &b[seg.perm..seg.runs[0]]);
            ([offsets, blob, perm], [run(0), run(1), run(2)])
        }
        None => ([&[0u8; 8][..], &[], &[]], [&[][..]; 3]),
    };
    let (base_terms, base_triples) = (perm.len() / 4, runs[0].len() / 12);
    let (mut added_blob, mut added_ends) = (Vec::new(), vec![0]);
    for term in added_terms(parts) {
        codec::encode_term(&mut added_blob, term);
        added_ends.push(added_blob.len());
    }
    let added = |i: u32| &added_blob[added_ends[i as usize]..added_ends[i as usize + 1]];
    let mut added_order: Vec<u32> = (0..added_ends.len() as u32 - 1).collect();
    added_order.sort_unstable_by(|&a, &b| added(a).cmp(added(b)));
    let n = base_terms + added_order.len();
    let t =
        base_triples + graph.map_or(0, Graph::len) + layers.iter().map(|l| l.len()).sum::<usize>();
    if stats.total_triples() != t as u64 {
        return Err(StoreError::Corrupt {
            what: "segment merge: stats total disagrees with triple count".to_string(),
        });
    }

    let mut stats_section = Vec::new();
    encode_stats(&mut stats_section, stats);
    let mut meta = [base_inferred, segment.map_or(0, Segment::triple_sum)];

    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(|e| StoreError::io("write", &tmp, e))?;
    let mut head = [0u8; 16]; // checksum at 8..16 patched below
    head[..7].copy_from_slice(MAGIC);
    head[7] = FORMAT_VERSION;
    file.write_all(&head)
        .map_err(|e| StoreError::io("write", &tmp, e))?;
    let checksum = Checksum::default();
    let mut w = SegmentWriter {
        out: BufWriter::with_capacity(1 << 16, Summed { file, checksum }),
        tmp: &tmp,
    };
    for len in [n, t, stats_section.len()] {
        w.put(&(len as u64).to_le_bytes())?;
    }
    w.put(offsets)?;
    for &end in &added_ends[1..] {
        w.put(&((blob.len() + end) as u64).to_le_bytes())?;
    }
    w.put(blob)?;
    w.put(&added_blob)?;
    let entry = |at: usize| entry_at(offsets, blob, le32(perm, at * 4) as usize);
    w.put_merged(perm, entry, &added_order, |i| {
        (added(i), [(base_terms as u32 + i).to_le_bytes()])
    })?;
    let mut delta = Vec::with_capacity(t - base_triples);
    for (rotation, run) in Rotation::ALL.into_iter().zip(runs) {
        let r = rotation as usize;
        delta.clear();
        delta.extend(graph.into_iter().flat_map(|g| &g.index().runs[r]));
        delta.extend(layers.iter().flat_map(|l| l.run(rotation)));
        delta.sort(); // a merge of the sorted runs just appended
        if rotation == Rotation::Spo {
            meta[1] = triple_sum(meta[1], &delta);
        }
        let key = |i: usize| [0, 4, 8].map(|k| le32(run, i * 12 + k));
        w.put_merged(run, key, &delta, |d| (d, d.map(u32::to_le_bytes)))?;
    }
    if let Some(seg) = segment {
        seg.data.release(); // read in full: drop its pages from this process
    }
    w.put(&stats_section)?;
    w.put(meta.map(u64::to_le_bytes).as_flattened())?;

    let Summed { mut file, checksum } = w
        .out
        .into_inner()
        .map_err(|e| StoreError::io("write", &tmp, e.into_error()))?;
    file.seek(SeekFrom::Start(8))
        .and_then(|_| file.write_all(&checksum.finish().to_le_bytes()))
        .map_err(|e| StoreError::io("write", &tmp, e))?;
    file.sync_all()
        .map_err(|e| StoreError::io("fsync", &tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io("rename", path, e))?;
    let lens = [n, t, blob.len() + added_blob.len()];
    Ok(Written { lens, meta })
}

// ---- Segment ---------------------------------------------------------

/// An open (usually memory-mapped) segment file: a read-only
/// [`GraphView`] whose ids match the graph it was written from.
pub struct Segment {
    data: MapData,
    path: PathBuf,
    term_count: usize,
    triple_count: usize,
    dict_blob: Range<usize>, // the offset table is at HEADER_LEN
    perm: usize,             // byte offset of the permutation
    runs: [usize; 3],        // byte offsets of the runs, one per `Rotation`
    stats: GraphStats,
    base_inferred: u64,
    triple_sum: u64,
    /// Lazily-decoded term cache, one slot per dictionary entry.
    terms: Vec<OnceLock<Term>>,
    /// Sentinel returned for out-of-range ids instead of panicking.
    /// Unreachable through normal engine reads (ids come from this
    /// segment's own dictionary), but keeps `term()` total.
    corrupt: Term,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("terms", &self.term_count)
            .field("triples", &self.triple_count)
            .field("mapped", &self.data.is_mapped())
            .finish()
    }
}

impl Segment {
    /// The segment over `data` as `written` lays it out, with the `stats`
    /// it was written with, reading nothing back: how a compaction takes
    /// the file it has just written and fsynced, with no checksum pass
    /// and no structural checks. [`Segment::open`] runs those first.
    pub(crate) fn adopt(
        data: MapData,
        path: &Path,
        written: Written,
        stats: GraphStats,
    ) -> Segment {
        let ([n, t, blob_len], [base_inferred, triple_sum]) = (written.lens, written.meta);
        let blob = HEADER_LEN + (n + 1) * 8;
        let (perm, spo) = (blob + blob_len, blob + blob_len + n * 4);
        let mut terms = Vec::with_capacity(n);
        terms.resize_with(n, OnceLock::new);
        Segment {
            data,
            path: path.to_path_buf(),
            term_count: n,
            triple_count: t,
            dict_blob: blob..perm,
            perm,
            runs: [spo, spo + t * 12, spo + t * 24],
            stats,
            base_inferred,
            triple_sum,
            terms,
            corrupt: Term::iri("urn:feo:store:corrupt-term"),
        }
    }

    /// Opens and fully validates a segment file. After `open` succeeds,
    /// no read on the returned value can panic — every bound checked
    /// here is what the read paths rely on.
    pub fn open(path: &Path, verify_checksum: bool) -> Result<Segment, StoreError> {
        let data = map_file(path)?;
        let bytes = data.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "segment header",
            });
        }
        if &bytes[..7] != MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        if bytes[7] != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: bytes[7],
            });
        }
        let [n, t, stats_len] = [16, 24, 32].map(|at| le64(bytes, at));
        if n > u64::from(u32::MAX) || t > u64::from(u32::MAX) {
            return Err(StoreError::Corrupt {
                what: "segment header: counts exceed u32 id space".to_string(),
            });
        }
        // The blob's length, summed in u128: a corrupt header must not
        // wrap it into a "valid" small one.
        let fixed = (HEADER_LEN + 8 + META_LEN) as u128 + 12 * n as u128 + 36 * t as u128;
        let blob_len = (bytes.len() as u128)
            .checked_sub(fixed + u128::from(stats_len))
            .ok_or(StoreError::Truncated {
                what: "segment sections",
            })? as usize;
        let (n, t, stats_len) = (n as usize, t as usize, stats_len as usize);

        if verify_checksum && le64(bytes, 8) != checksum(&bytes[16..]) {
            return Err(StoreError::ChecksumMismatch {
                what: "segment body",
            });
        }
        let meta_at = bytes.len() - META_LEN;
        let stats = decode_stats(&bytes[meta_at - stats_len..meta_at])?;
        let written = Written {
            lens: [n, t, blob_len],
            meta: [le64(bytes, meta_at), le64(bytes, meta_at + 8)],
        };
        let seg = Segment::adopt(data, path, written, stats);
        let bytes = seg.data.bytes();
        let (blob_start, perm) = (seg.dict_blob.start, seg.perm);

        // Offset table: monotone, in-bounds, covering the whole blob.
        let mut prev = 0u64;
        for i in 0..=n {
            let off = le64(bytes, HEADER_LEN + i * 8);
            if off < prev || off > blob_len as u64 {
                return Err(StoreError::Corrupt {
                    what: format!("segment dictionary: offset {i} out of order or out of bounds"),
                });
            }
            prev = off;
        }
        if prev != blob_len as u64 {
            return Err(StoreError::Corrupt {
                what: "segment dictionary: offsets do not cover the blob".to_string(),
            });
        }

        // Permutation: in-range ids whose dictionary entries are
        // strictly increasing byte-wise. Strictness over n entries
        // implies all entries are distinct, hence a true permutation.
        let entry = |id| entry_at(&bytes[HEADER_LEN..], &bytes[blob_start..], id);
        let mut prev_id: Option<usize> = None;
        for i in 0..n {
            let id = le32(bytes, perm + i * 4) as usize;
            if id >= n {
                return Err(StoreError::Corrupt {
                    what: format!("segment permutation: id {id} out of range"),
                });
            }
            if let Some(p) = prev_id {
                if entry(p) >= entry(id) {
                    return Err(StoreError::Corrupt {
                        what: "segment permutation: entries not strictly sorted".to_string(),
                    });
                }
            }
            prev_id = Some(id);
        }

        // Runs: sorted, deduplicated, ids in range.
        for (name, at) in ["spo", "pos", "osp"].into_iter().zip(seg.runs) {
            let mut prev: Option<[u32; 3]> = None;
            for i in 0..t {
                let base = at + i * 12;
                let tri = [
                    le32(bytes, base),
                    le32(bytes, base + 4),
                    le32(bytes, base + 8),
                ];
                if tri.iter().any(|&id| id as usize >= n) {
                    return Err(StoreError::Corrupt {
                        what: format!("segment {name} run: term id out of range"),
                    });
                }
                if let Some(p) = prev {
                    if p >= tri {
                        return Err(StoreError::Corrupt {
                            what: format!("segment {name} run: not strictly sorted"),
                        });
                    }
                }
                prev = Some(tri);
            }
        }

        if seg.stats.total_triples() != t as u64 {
            return Err(StoreError::Corrupt {
                what: "segment stats: total disagrees with triple count".to_string(),
            });
        }
        if let Some(ty) = seg.stats.rdf_type_id() {
            if ty.index() >= n {
                return Err(StoreError::Corrupt {
                    what: "segment stats: rdf:type id out of range".to_string(),
                });
            }
        }
        Ok(seg)
    }

    /// The statistics persisted with the graph.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Inferred-triple count of the materialized closure stored here
    /// (epoch 0's share of `InferenceResult::added`).
    pub fn base_inferred(&self) -> u64 {
        self.base_inferred
    }

    /// The wrapping sum of the triples' hashes (`hash::triple_sum`), as the
    /// file keeps it.
    pub fn triple_sum(&self) -> u64 {
        self.triple_sum
    }

    /// The file this segment was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when reads go through a memory mapping (vs. an owned copy).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Fills the term cache from `source`, which this segment was written
    /// from (ids survive the write): every term its segment base had
    /// decoded and every term its graph or layers add.
    pub(crate) fn adopt_terms<S: SegmentSource + ?Sized>(&mut self, source: &S) {
        let parts = source.parts();
        let base = parts.0.map_or(&[][..], |seg| &seg.terms[..]);
        let added = added_terms(parts).map(|t| OnceLock::from(t.clone()));
        for (slot, term) in self.terms.iter_mut().zip(base.iter().cloned().chain(added)) {
            *slot = term;
        }
    }

    fn dict_entry(&self, id: usize) -> &[u8] {
        let b = self.data.bytes();
        entry_at(&b[HEADER_LEN..], &b[self.dict_blob.clone()], id)
    }

    fn tri_at(&self, run: usize, i: usize) -> [u32; 3] {
        let bytes = self.data.bytes();
        let base = run + i * 12;
        [
            le32(bytes, base),
            le32(bytes, base + 4),
            le32(bytes, base + 8),
        ]
    }

    /// The triples matching `s p o`, read off the mapped runs in place.
    fn matches(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        let at = |r: Rotation, i| self.tri_at(self.runs[r as usize], i);
        match_runs(self.triple_count, at, s, p, o)
    }
}

impl GraphView for Segment {
    fn len(&self) -> usize {
        self.triple_count
    }

    fn term_count(&self) -> usize {
        self.term_count
    }

    fn lookup(&self, term: &Term) -> Option<TermId> {
        let key = codec::term_bytes(term);
        let bytes = self.data.bytes();
        let (mut lo, mut hi) = (0usize, self.term_count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let id = le32(bytes, self.perm + mid * 4) as usize;
            match self.dict_entry(id).cmp(key.as_slice()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(TermId(id as u32)),
            }
        }
        None
    }

    fn term(&self, id: TermId) -> &Term {
        match self.terms.get(id.index()) {
            Some(slot) => slot.get_or_init(|| {
                // Validation at open guarantees the entry decodes; the
                // sentinel fallback only exists to keep this total.
                codec::decode_term_exact(self.dict_entry(id.index()), "segment dictionary")
                    .unwrap_or_else(|_| self.corrupt.clone())
            }),
            None => &self.corrupt,
        }
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.matches(Some(s), Some(p), Some(o)).next().is_some()
    }

    fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        self.matches(s, p, o).collect()
    }

    fn predicate_stats(&self, p: TermId) -> PredicateStats {
        self.stats.predicate(p)
    }

    fn class_instance_count(&self, class_id: TermId) -> u64 {
        self.stats.class_instances(class_id)
    }

    fn iter_ids(&self) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        Box::new(
            (0..self.triple_count).map(move |i| Rotation::Spo.triple(self.tri_at(self.runs[0], i))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::view::GraphStore;
    use crate::vocab::rdf;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", rdf::TYPE, "http://e/Food");
        g.insert_iris("http://e/b", rdf::TYPE, "http://e/Food");
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/b", "http://e/p", "http://e/c");
        let lit = g.intern(&Term::simple("crisp"));
        let a = g.lookup_iri("http://e/a").unwrap();
        let label = g.intern_iri("http://e/label");
        g.insert_ids(a, label, lit);
        let b = g.fresh_bnode();
        let p = g.lookup_iri("http://e/p").unwrap();
        g.insert_ids(b, p, a);
        g
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feo-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn segment_round_trips_graph_reads() {
        let g = sample();
        let path = tmp_path("round.feo");
        write_segment(&path, &g, g.stats(), 7).unwrap();
        let seg = Segment::open(&path, true).unwrap();

        assert_eq!(GraphView::len(&seg), g.len());
        assert_eq!(GraphView::term_count(&seg), g.term_count());
        assert_eq!(seg.base_inferred(), 7);

        // Ids are preserved verbatim: every term resolves identically.
        for i in 0..g.term_count() {
            let id = TermId(i as u32);
            assert_eq!(GraphView::term(&seg, id), g.term(id), "term {i}");
            assert_eq!(GraphView::lookup(&seg, g.term(id)), Some(id));
        }
        assert_eq!(GraphView::lookup(&seg, &Term::iri("http://e/absent")), None);

        // All pattern shapes agree with the source graph.
        let ids: Vec<Option<TermId>> = (0..g.term_count())
            .map(|i| Some(TermId(i as u32)))
            .chain([None])
            .collect();
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let mut want = g.match_pattern(s, p, o);
                    let mut got = seg.match_pattern(s, p, o);
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(want, got, "pattern {s:?} {p:?} {o:?}");
                }
            }
        }

        // Persisted stats answer exactly like the live ones.
        let p = g.lookup_iri("http://e/p").unwrap();
        assert_eq!(seg.predicate_stats(p), g.stats().predicate(p));
        let food = g.lookup_iri("http://e/Food").unwrap();
        assert_eq!(seg.class_instance_count(food), 2);
    }

    /// The format is pinned byte for byte: length and checksum field of
    /// this fixed graph. The length is the build-in-memory writer's, the
    /// checksum format version 2's.
    #[test]
    fn written_bytes_are_pinned() {
        let g = sample();
        let path = tmp_path("pinned.feo");
        write_segment(&path, &g, g.stats(), 7).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 671);
        assert_eq!(le64(&bytes, 8), 0x9dd5_dc81_e2b6_69cc);
        assert_eq!(checksum(&bytes[16..]), le64(&bytes, 8));
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let path = tmp_path("empty.feo");
        write_segment(&path, &g, g.stats(), 0).unwrap();
        let seg = Segment::open(&path, true).unwrap();
        assert_eq!(GraphView::len(&seg), 0);
        assert_eq!(GraphView::term_count(&seg), 0);
        assert!(seg.match_pattern(None, None, None).is_empty());
        assert_eq!(GraphView::lookup(&seg, &Term::iri("http://e/x")), None);
    }

    #[test]
    fn corruption_is_typed_never_panicking() {
        let g = sample();
        let path = tmp_path("corrupt.feo");
        write_segment(&path, &g, g.stats(), 0).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation at every prefix length: typed error, no panic.
        let tpath = tmp_path("trunc.feo");
        for cut in [0, 7, 8, 16, 47, 48, good.len() / 2, good.len() - 1] {
            std::fs::write(&tpath, &good[..cut]).unwrap();
            assert!(Segment::open(&tpath, true).is_err(), "cut at {cut}");
        }

        // A bit flip anywhere in the body fails the checksum (or an
        // earlier structural check).
        let fpath = tmp_path("flip.feo");
        for &at in &[0usize, 7, 9, 20, 50, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            std::fs::write(&fpath, &bad).unwrap();
            assert!(Segment::open(&fpath, true).is_err(), "flip at {at}");
        }

        // Wrong magic and wrong version get their own variants.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&fpath, &bad).unwrap();
        assert!(matches!(
            Segment::open(&fpath, true),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad = good.clone();
        bad[7] = 99;
        std::fs::write(&fpath, &bad).unwrap();
        assert!(matches!(
            Segment::open(&fpath, true),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }
}
