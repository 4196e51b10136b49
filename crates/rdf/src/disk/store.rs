//! The on-disk store directory: MANIFEST + paired segment/WAL files.
//!
//! ```text
//! <dir>/MANIFEST            "feo-store 1\n<index>\n" (tmp+rename)
//! <dir>/segment-000000.feo  the active base segment
//! <dir>/wal-000000.feo      the delta log paired with that segment
//! ```
//!
//! The WAL is *named after* its segment index, so the MANIFEST rename
//! switches both atomically: compaction writes `segment-000001.feo`
//! plus an empty `wal-000001.feo`, then renames the MANIFEST — a crash
//! on either side of that rename leaves a fully consistent store (the
//! old pair, or the new one). Every file is fsynced before a name
//! points at it, and the directory after the names change (unix), so
//! the MANIFEST never names a pair that a crash could lose. Stale pairs
//! are deleted best-effort afterwards.

use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::segment::{write_segment, Segment};
use super::source::SegmentSource;
use super::wal::{self, WalRecord};
use super::{OpenOptions, StoreError, FORMAT_VERSION};
use crate::hash::FxSet;
use crate::intern::TermId;
use crate::stats::GraphStats;
use crate::view::GraphView;

const MANIFEST: &str = "MANIFEST";

/// Handle to a store directory and its active segment/WAL pair.
#[derive(Debug, Clone)]
pub struct DiskStore {
    dir: PathBuf,
    index: u64,
}

/// Everything [`DiskStore::open`] yields: the handle, the mapped
/// segment, the replayable WAL records, and — after a crash tore the
/// log — the typed error describing what recovery truncated away.
#[derive(Debug)]
pub struct OpenedStore {
    pub store: DiskStore,
    pub segment: Arc<Segment>,
    /// WAL records of the intact prefix, oldest first, id-validated
    /// against the segment's dictionary.
    pub records: Vec<WalRecord>,
    /// Damage found (and repaired by truncation) in the WAL tail.
    pub recovered: Option<StoreError>,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST)
}

fn read_manifest(dir: &Path) -> Result<u64, StoreError> {
    let path = manifest_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| StoreError::io("read", &path, e))?;
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l == format!("feo-store {FORMAT_VERSION}") => {}
        Some(l) => {
            let found = l
                .strip_prefix("feo-store ")
                .and_then(|v| v.parse::<u8>().ok());
            return Err(match found {
                Some(v) => StoreError::UnsupportedVersion { path, found: v },
                None => StoreError::BadMagic { path },
            });
        }
        None => return Err(StoreError::Truncated { what: "manifest" }),
    }
    lines
        .next()
        .and_then(|l| l.trim().parse::<u64>().ok())
        .ok_or(StoreError::Corrupt {
            what: "manifest: missing or non-numeric segment index".to_string(),
        })
}

/// Writes `bytes` as the whole of `path` and fsyncs it.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = File::create(path).map_err(|e| StoreError::io("write", path, e))?;
    f.write_all(bytes)
        .map_err(|e| StoreError::io("write", path, e))?;
    f.sync_all().map_err(|e| StoreError::io("fsync", path, e))
}

/// Fsyncs `dir` so that the names made in it survive a crash (unix).
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StoreError::io("fsync", dir, e))?;
    Ok(())
}

impl DiskStore {
    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active segment's index (bumped by every save/compact).
    pub fn segment_index(&self) -> u64 {
        self.index
    }

    /// Path of the active segment file.
    pub fn segment_path(&self) -> PathBuf {
        self.dir.join(format!("segment-{:06}.feo", self.index))
    }

    /// Path of the active WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(format!("wal-{:06}.feo", self.index))
    }

    /// Publishes this pair, whose segment is already written: writes
    /// and fsyncs its WAL, fsyncs the directory, switches the MANIFEST
    /// (tmp, fsync, rename, directory fsync), then removes the pair at
    /// `old` best-effort.
    fn publish(&self, wal_bytes: &[u8], old: Option<u64>) -> Result<(), StoreError> {
        write_synced(&self.wal_path(), wal_bytes)?;
        sync_dir(&self.dir)?;
        let tmp = self.dir.join("MANIFEST.tmp");
        let body = format!("feo-store {FORMAT_VERSION}\n{}\n", self.index);
        write_synced(&tmp, body.as_bytes())?;
        let path = manifest_path(&self.dir);
        std::fs::rename(&tmp, &path).map_err(|e| StoreError::io("rename", &path, e))?;
        sync_dir(&self.dir)?;
        if let Some(index) = old {
            let mut stale = self.clone();
            stale.index = index;
            let _ = std::fs::remove_file(stale.segment_path());
            let _ = std::fs::remove_file(stale.wal_path());
        }
        Ok(())
    }

    /// Writes a complete store into `dir`: a segment holding `source`
    /// plus a WAL holding `records`, published by the MANIFEST rename.
    /// An existing store in the same directory is superseded (new
    /// index) and its files removed best-effort.
    pub fn save<S: SegmentSource + ?Sized>(
        dir: &Path,
        source: &S,
        stats: &GraphStats,
        base_inferred: u64,
        records: &[WalRecord],
    ) -> Result<DiskStore, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("mkdir", dir, e))?;
        let old = read_manifest(dir).ok();
        let store = DiskStore {
            dir: dir.to_path_buf(),
            index: old.map_or(0, |i| i + 1),
        };
        write_segment(&store.segment_path(), source, stats, base_inferred)?;
        let mut wal_bytes = wal::header().to_vec();
        for rec in records {
            wal_bytes.extend_from_slice(&wal::encode_record(rec));
        }
        store.publish(&wal_bytes, old)?;
        Ok(store)
    }

    /// Opens the store in `dir`: maps the active segment, scans the
    /// WAL, repairs a torn tail by truncating to the intact prefix, and
    /// validates every record's term ids against the dictionary they
    /// extend.
    pub fn open(dir: &Path, opts: OpenOptions) -> Result<OpenedStore, StoreError> {
        let index = read_manifest(dir)?;
        let store = DiskStore {
            dir: dir.to_path_buf(),
            index,
        };
        let segment = Segment::open(&store.segment_path(), opts.verify_checksum)?;
        let wal_path = store.wal_path();
        let replay = wal::read_wal(&wal_path)?;
        let recovered = replay.truncated;
        if recovered.is_some() {
            // Truncate back to the intact prefix so future appends
            // extend a consistent log. A sub-header file is rewritten
            // as a fresh empty log.
            if (replay.valid_len as usize) >= wal::HEADER_LEN {
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(|e| StoreError::io("open", &wal_path, e))?;
                f.set_len(replay.valid_len)
                    .map_err(|e| StoreError::io("truncate", &wal_path, e))?;
                f.sync_all()
                    .map_err(|e| StoreError::io("fsync", &wal_path, e))?;
            } else {
                write_synced(&wal_path, &wal::header())?;
            }
        }
        // Each record's triples may only reference the dictionary as it
        // stood when that record was committed: segment terms plus all
        // earlier spills plus its own. A spill holds each term once (a
        // layer's dictionary is an `Interner`), so a repeated term would
        // shift every later id. No commit repeats a triple the chain
        // holds (in the segment, an earlier record or itself): a repeat
        // would count twice in the statistics a compaction persists.
        let mut term_limit = segment.term_count();
        let mut triples = FxSet::default();
        for (k, rec) in replay.records.iter().enumerate() {
            let mut seen = HashSet::with_capacity(rec.terms.len());
            if !rec.terms.iter().all(|t| seen.insert(t)) {
                return Err(StoreError::Corrupt {
                    what: format!("wal record {k}: repeated spill term"),
                });
            }
            let limit = term_limit + rec.terms.len();
            if rec.triples.iter().flatten().any(|&id| id as usize >= limit) {
                return Err(StoreError::Corrupt {
                    what: format!("wal record {k}: term id beyond dictionary"),
                });
            }
            let held = |t: [u32; 3]| {
                let [s, p, o] = t.map(TermId);
                segment.contains_ids(s, p, o)
            };
            if rec.triples.iter().any(|&t| !triples.insert(t) || held(t)) {
                return Err(StoreError::Corrupt {
                    what: format!("wal record {k}: repeats a triple"),
                });
            }
            term_limit = limit;
        }
        Ok(OpenedStore {
            store,
            segment: Arc::new(segment),
            records: replay.records,
            recovered,
        })
    }

    /// Appends one committed layer to the WAL (fsynced).
    pub fn append_delta(&self, rec: &WalRecord) -> Result<(), StoreError> {
        wal::append_record(&self.wal_path(), rec)
    }

    /// Compacts: freezes `source` (the current head, layers folded in)
    /// as a new base segment with an empty WAL, switches the MANIFEST to
    /// the new pair, and removes the old one best-effort. Returns the new
    /// segment, opened, with the terms `source` had decoded.
    pub fn compact<S: SegmentSource + ?Sized>(
        &mut self,
        source: &S,
        stats: &GraphStats,
        base_inferred: u64,
    ) -> Result<Segment, StoreError> {
        let next = DiskStore {
            dir: self.dir.clone(),
            index: self.index + 1,
        };
        write_segment(&next.segment_path(), source, stats, base_inferred)?;
        next.publish(&wal::header(), Some(self.index))?;
        self.index = next.index;
        let mut segment = Segment::open(&self.segment_path(), true)?;
        segment.adopt_terms(source);
        Ok(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::term::Term;
    use crate::view::GraphStore;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_iris("http://e/b", "http://e/p", "http://e/c");
        g
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feo-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn delta_rec(g: &Graph) -> WalRecord {
        let n = g.term_count() as u32;
        WalRecord {
            label: "explain".to_string(),
            inferred: 1,
            terms: vec![Term::iri("http://e/new")],
            triples: vec![[0, 1, n]],
        }
    }

    #[test]
    fn save_open_append_reopen() {
        let g = sample();
        let dir = tmp_dir("rt");
        let store = DiskStore::save(&dir, &g, g.stats(), 3, &[]).unwrap();
        assert_eq!(store.segment_index(), 0);

        let opened = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert!(opened.recovered.is_none());
        assert!(opened.records.is_empty());
        assert_eq!(GraphView::len(&*opened.segment), g.len());
        assert_eq!(opened.segment.base_inferred(), 3);

        opened.store.append_delta(&delta_rec(&g)).unwrap();
        let again = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.records[0].label, "explain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let g = sample();
        let dir = tmp_dir("tear");
        let store = DiskStore::save(&dir, &g, g.stats(), 0, &[delta_rec(&g)]).unwrap();
        let wal_path = store.wal_path();
        let full = std::fs::read(&wal_path).unwrap();
        // Tear mid-record.
        std::fs::write(&wal_path, &full[..full.len() - 3]).unwrap();

        let opened = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert!(opened.recovered.is_some());
        assert!(opened.records.is_empty());
        // The file was repaired: a second open is clean.
        let again = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert!(again.recovered.is_none());
        // And appending after recovery yields a readable record.
        again.store.append_delta(&delta_rec(&g)).unwrap();
        let third = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert_eq!(third.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_ids_beyond_dictionary_are_corrupt() {
        let g = sample();
        let dir = tmp_dir("ids");
        let bad = WalRecord {
            label: "x".to_string(),
            inferred: 0,
            terms: Vec::new(),
            triples: vec![[0, 0, 9999]],
        };
        DiskStore::save(&dir, &g, g.stats(), 0, &[bad]).unwrap();
        assert!(matches!(
            DiskStore::open(&dir, OpenOptions::default()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_switches_pair_and_empties_wal() {
        let g = sample();
        let dir = tmp_dir("compact");
        DiskStore::save(&dir, &g, g.stats(), 0, &[delta_rec(&g)]).unwrap();
        let mut opened = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert_eq!(opened.records.len(), 1);

        // Compact a bigger graph (as the engine would: head flattened).
        let mut g2 = sample();
        g2.insert_iris("http://e/c", "http://e/p", "http://e/d");
        opened.store.compact(&g2, g2.stats(), 2).unwrap();
        assert_eq!(opened.store.segment_index(), 1);

        let fresh = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        assert_eq!(fresh.store.segment_index(), 1);
        assert!(fresh.records.is_empty());
        assert_eq!(GraphView::len(&*fresh.segment), 3);
        assert_eq!(fresh.segment.base_inferred(), 2);
        // Old pair is gone.
        assert!(!dir.join("segment-000000.feo").exists());
        assert!(!dir.join("wal-000000.feo").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_mangled_manifest_is_typed() {
        let dir = tmp_dir("manifest");
        assert!(matches!(
            DiskStore::open(&dir, OpenOptions::default()),
            Err(StoreError::Io { .. })
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST"), "feo-store 9\n0\n").unwrap();
        assert!(matches!(
            DiskStore::open(&dir, OpenOptions::default()),
            Err(StoreError::UnsupportedVersion { found: 9, .. })
        ));
        std::fs::write(dir.join("MANIFEST"), "gibberish").unwrap();
        assert!(matches!(
            DiskStore::open(&dir, OpenOptions::default()),
            Err(StoreError::BadMagic { .. })
        ));
        std::fs::write(dir.join("MANIFEST"), "feo-store 1\n").unwrap();
        assert!(matches!(
            DiskStore::open(&dir, OpenOptions::default()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
