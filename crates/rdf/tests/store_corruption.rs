//! Crash-recovery fault injection for the persistent store.
//!
//! The contract under test, exhaustively rather than by example:
//!
//! - **Segment damage is always a typed [`StoreError`]** — truncating
//!   the file to *every* possible length and flipping *every* byte
//!   must yield `Err(..)` from `Segment::open` / `DiskStore::open`,
//!   never a panic and never a silently different graph.
//! - **WAL tears recover to the exact intact prefix** — cutting the
//!   log at every byte replays precisely the records whose encoded
//!   bytes survived, reports the damage in `OpenedStore::recovered`,
//!   truncates the file back, and leaves a log that appends cleanly.
//! - **WAL bit flips stop replay at the flipped record** — the
//!   per-record checksum catches the flip; everything before it
//!   replays byte-identically, nothing after it leaks through.

use std::path::PathBuf;

use feo_rdf::disk::{wal, OpenOptions};
use feo_rdf::{
    BaseStore, DiskStore, EpochId, GraphStore, GraphView, Ledger, Segment, StoreError, Term,
    TermId, WalRecord,
};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("feo-corrupt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but structurally complete graph: IRIs, a literal, and a
/// blank node, so the dictionary exercises every term tag.
fn sample_graph() -> feo_rdf::Graph {
    let mut g = feo_rdf::Graph::new();
    for i in 0..8 {
        g.insert_iris(
            &format!("http://e/s{i}"),
            "http://e/p",
            &format!("http://e/o{}", i % 3),
        );
    }
    g.insert_terms(
        Term::iri("http://e/s0"),
        Term::iri("http://e/label"),
        Term::simple("zero"),
    );
    g.insert_terms(
        Term::bnode("b0"),
        Term::iri("http://e/p"),
        Term::iri("http://e/s1"),
    );
    g
}

fn wal_records(g: &feo_rdf::Graph) -> Vec<WalRecord> {
    let base = g.term_count() as u32;
    (0..3u32)
        .map(|k| WalRecord {
            label: format!("layer{k}"),
            inferred: u64::from(k),
            terms: vec![Term::iri(format!("http://e/extra{k}"))],
            triples: vec![[0, 1, base + k], [2, 1, base + k]],
        })
        .collect()
}

/// Byte length of the log holding the first `n` records (header
/// included) — the exact `valid_len` recovery must truncate back to.
fn prefix_len(records: &[WalRecord], n: usize) -> usize {
    8 + records[..n]
        .iter()
        .map(|r| wal::encode_record(r).len())
        .sum::<usize>()
}

// ---- segment damage ----------------------------------------------------

/// Truncating the segment to every possible length is a typed error —
/// never a panic, never a silently short graph.
#[test]
fn truncated_segment_is_typed_at_every_length() {
    let g = sample_graph();
    let dir = tmp_dir("seg-trunc");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &[]).expect("save");
    let path = store.segment_path();
    let full = std::fs::read(&path).expect("segment readable");

    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).expect("write truncation");
        let err = Segment::open(&path, true).expect_err("truncated segment must not open");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::UnsupportedVersion { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
        // The store-level open surfaces the same typed failure.
        assert!(DiskStore::open(&dir, OpenOptions::default()).is_err());
    }

    // Restoring the bytes restores the store.
    std::fs::write(&path, &full).expect("restore");
    let opened = DiskStore::open(&dir, OpenOptions::default()).expect("restored store opens");
    assert_eq!(GraphView::len(&*opened.segment), g.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping every byte of the segment is caught: the header fields
/// fail their own validation, everything after byte 16 fails the
/// whole-file checksum.
#[test]
fn bit_flipped_segment_is_typed_at_every_byte() {
    let g = sample_graph();
    let dir = tmp_dir("seg-flip");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &[]).expect("save");
    let path = store.segment_path();
    let full = std::fs::read(&path).expect("segment readable");

    for at in 0..full.len() {
        let mut bytes = full.clone();
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write flip");
        let err = Segment::open(&path, true).expect_err("flipped segment must not open");
        match at {
            0..=6 => assert!(
                matches!(err, StoreError::BadMagic { .. }),
                "flip at {at}: {err:?}"
            ),
            7 => assert!(
                matches!(err, StoreError::UnsupportedVersion { .. }),
                "flip at {at}: {err:?}"
            ),
            _ => assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. }
                        | StoreError::Truncated { .. }
                        | StoreError::Corrupt { .. }
                ),
                "flip at {at}: {err:?}"
            ),
        }
    }

    std::fs::write(&path, &full).expect("restore");
    assert!(DiskStore::open(&dir, OpenOptions::default()).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// With checksum verification off, structural validation still rejects
/// a truncated file — the offset tables promise bytes that are gone.
#[test]
fn structural_validation_holds_without_checksum() {
    let g = sample_graph();
    let dir = tmp_dir("seg-nockh");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &[]).expect("save");
    let path = store.segment_path();
    let full = std::fs::read(&path).expect("segment readable");
    let opts = OpenOptions {
        verify_checksum: false,
    };

    // Sanity: the unverified open works on intact bytes.
    assert!(DiskStore::open(&dir, opts).is_ok());
    for cut in [0, 7, 16, 47, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).expect("write truncation");
        assert!(
            Segment::open(&path, false).is_err(),
            "cut at {cut} opened without checksum verification"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- WAL tears ---------------------------------------------------------

/// Tearing the log at every byte recovers exactly the records whose
/// encoded bytes survived — the differential crash-recovery contract.
#[test]
fn torn_wal_replays_exact_intact_prefix_at_every_cut() {
    let g = sample_graph();
    let records = wal_records(&g);
    let dir = tmp_dir("wal-tear");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &records).expect("save");
    let wal_path = store.wal_path();
    let full = std::fs::read(&wal_path).expect("wal readable");
    let boundaries: Vec<usize> = (0..=records.len())
        .map(|n| prefix_len(&records, n))
        .collect();
    assert_eq!(*boundaries.last().expect("nonempty"), full.len());

    for cut in 0..full.len() {
        std::fs::write(&wal_path, &full[..cut]).expect("write tear");
        let opened = DiskStore::open(&dir, OpenOptions::default()).expect("tear recovers");
        // How many whole records fit in `cut` bytes? (A sub-header cut
        // recovers as a fresh empty log: zero records.)
        let intact = boundaries
            .iter()
            .filter(|&&b| b <= cut)
            .count()
            .saturating_sub(1);
        assert_eq!(
            opened.records,
            records[..intact],
            "cut at {cut}: wrong replay prefix"
        );
        let mid_record = cut != boundaries[intact];
        assert_eq!(
            opened.recovered.is_some(),
            mid_record,
            "cut at {cut}: recovery flag"
        );
        // Recovery truncated the file back to the intact prefix, so a
        // second open is clean and byte-stable.
        let again = DiskStore::open(&dir, OpenOptions::default()).expect("post-repair open");
        assert!(again.recovered.is_none(), "cut at {cut}: repair not sticky");
        assert_eq!(again.records, records[..intact]);
        assert_eq!(
            std::fs::read(&wal_path).expect("wal readable").len(),
            boundaries[intact],
            "cut at {cut}: file not truncated to the intact prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// After recovery, the log extends cleanly: append a fresh record and
/// the chain is exactly `intact prefix + new record`.
#[test]
fn recovered_wal_accepts_appends() {
    let g = sample_graph();
    let records = wal_records(&g);
    let dir = tmp_dir("wal-append");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &records).expect("save");
    let wal_path = store.wal_path();
    let full = std::fs::read(&wal_path).expect("wal readable");

    // Tear inside the final record.
    std::fs::write(&wal_path, &full[..full.len() - 5]).expect("write tear");
    let opened = DiskStore::open(&dir, OpenOptions::default()).expect("recovers");
    assert!(opened.recovered.is_some());
    assert_eq!(opened.records, records[..2]);

    let fresh = WalRecord {
        label: "post-crash".to_string(),
        inferred: 0,
        terms: Vec::new(),
        // `s0 p s1`: ids the segment holds, a triple it does not.
        triples: vec![[0, 1, 3]],
    };
    opened
        .store
        .append_delta(&fresh)
        .expect("append after repair");
    let again = DiskStore::open(&dir, OpenOptions::default()).expect("opens");
    assert!(again.recovered.is_none());
    assert_eq!(again.records.len(), 3);
    assert_eq!(again.records[..2], records[..2]);
    assert_eq!(again.records[2], fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- WAL bit flips -----------------------------------------------------

/// Flipping any byte of the log either hard-fails the header (magic /
/// version) or stops replay at the flipped record with everything
/// before it byte-identical. A flip never yields a *wrong* record and
/// never panics.
#[test]
fn bit_flipped_wal_never_leaks_a_wrong_record() {
    let g = sample_graph();
    let records = wal_records(&g);
    let dir = tmp_dir("wal-flip");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &records).expect("save");
    let wal_path = store.wal_path();
    let full = std::fs::read(&wal_path).expect("wal readable");
    let boundaries: Vec<usize> = (0..=records.len())
        .map(|n| prefix_len(&records, n))
        .collect();

    for at in 0..full.len() {
        let mut bytes = full.clone();
        bytes[at] ^= 0xFF;
        std::fs::write(&wal_path, &bytes).expect("write flip");
        // Records wholly before the flipped byte must replay intact.
        let unaffected = boundaries
            .iter()
            .filter(|&&b| b <= at)
            .count()
            .saturating_sub(1);
        match DiskStore::open(&dir, OpenOptions::default()) {
            Ok(opened) => {
                assert!(
                    opened.records.len() <= records.len(),
                    "flip at {at}: extra records appeared"
                );
                assert!(
                    opened.records.len() >= unaffected.min(records.len()),
                    "flip at {at}: lost records before the flip"
                );
                for (i, rec) in opened.records.iter().enumerate() {
                    assert_eq!(rec, &records[i], "flip at {at}: record {i} mutated");
                }
                // A flip past the prefix was detected (flag set) unless
                // it corrupted a *length* field into a longer-but-valid
                // frame — impossible with per-record checksums.
                if opened.records.len() < records.len() {
                    assert!(
                        opened.recovered.is_some(),
                        "flip at {at}: silent record loss"
                    );
                }
            }
            // Header flips (magic/version) and checksummed-but-invalid
            // payloads are hard typed errors.
            Err(
                StoreError::BadMagic { .. }
                | StoreError::UnsupportedVersion { .. }
                | StoreError::Corrupt { .. }
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => panic!("flip at {at}: unexpected error {other:?}"),
        }
        // Restore the pristine bytes for the next iteration (repair may
        // have truncated the file).
        std::fs::write(&wal_path, &full).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- cross-file damage -------------------------------------------------

/// A checksum-valid record whose spill lists a term twice is corrupt:
/// a layer's dictionary holds each term once, so the repeat would
/// shift every later id rather than replay the committed numbering.
#[test]
fn repeated_spill_term_is_corrupt() {
    let g = sample_graph();
    let dir = tmp_dir("wal-repeat");
    let base = g.term_count() as u32;
    let extra = Term::iri("http://e/extra");
    let rec = WalRecord {
        label: "repeat".to_string(),
        inferred: 0,
        terms: vec![extra.clone(), extra],
        triples: vec![[0, 1, base], [2, 1, base + 1]],
    };
    DiskStore::save(&dir, &g, g.stats(), 0, &[rec]).expect("save");
    assert!(matches!(
        DiskStore::open(&dir, OpenOptions::default()),
        Err(StoreError::Corrupt { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deleting either half of the pair, or the MANIFEST, is a typed error.
#[test]
fn missing_files_are_typed_errors() {
    let g = sample_graph();
    let dir = tmp_dir("missing");
    let store = DiskStore::save(&dir, &g, g.stats(), 0, &[]).expect("save");

    let seg = std::fs::read(store.segment_path()).expect("segment readable");
    let log = std::fs::read(store.wal_path()).expect("wal readable");
    std::fs::remove_file(store.segment_path()).expect("remove segment");
    assert!(matches!(
        DiskStore::open(&dir, OpenOptions::default()),
        Err(StoreError::Io { .. })
    ));
    std::fs::write(store.segment_path(), &seg).expect("restore segment");

    std::fs::remove_file(store.wal_path()).expect("remove wal");
    assert!(matches!(
        DiskStore::open(&dir, OpenOptions::default()),
        Err(StoreError::Io { .. })
    ));
    std::fs::write(store.wal_path(), &log).expect("restore wal");

    std::fs::remove_file(dir.join("MANIFEST")).expect("remove manifest");
    assert!(matches!(
        DiskStore::open(&dir, OpenOptions::default()),
        Err(StoreError::Io { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// True when `open` refused the store for its repeated-triple check,
/// not for any other corruption it detects.
fn repeats_a_triple<T>(opened: &Result<T, StoreError>) -> bool {
    matches!(opened, Err(StoreError::Corrupt { what }) if what.ends_with("repeats a triple"))
}

/// A checksum-valid record holding a triple the chain already holds —
/// in the segment, or in an earlier record — is corrupt at open: no
/// commit repeats a triple, and the repeat would count twice in the
/// statistics a compaction persists, so the compacted store would never
/// reopen.
#[test]
fn repeated_wal_triple_is_corrupt() {
    let g = sample_graph();
    let base = g.term_count() as u32;
    let replay = |name: &str, records: &[WalRecord]| {
        let dir = tmp_dir(name);
        DiskStore::save(&dir, &g, g.stats(), 0, records).expect("save");
        let opened = DiskStore::open(&dir, OpenOptions::default());
        let _ = std::fs::remove_dir_all(&dir);
        opened.map(|o| Ledger::replay(BaseStore::Disk(o.segment), &o.records).head())
    };
    let record = |k: u32, triples: Vec<[u32; 3]>| WalRecord {
        label: format!("r{k}"),
        inferred: 0,
        terms: vec![Term::iri(format!("http://e/extra{k}"))],
        triples,
    };

    // `s0 p o0` is the segment's first triple.
    let in_segment = [record(0, vec![[0, 1, 2], [0, 1, base]])];
    assert!(repeats_a_triple(&replay("wal-repeat-seg", &in_segment)));
    let in_earlier = [
        record(0, vec![[0, 1, base]]),
        record(1, vec![[0, 1, base], [0, 1, base + 1]]),
    ];
    assert!(repeats_a_triple(&replay("wal-repeat-rec", &in_earlier)));
    let in_itself = [record(0, vec![[0, 1, base], [0, 1, base]])];
    assert!(repeats_a_triple(&replay("wal-repeat-self", &in_itself)));
    assert_eq!(replay("wal-sound", &wal_records(&g)), Ok(EpochId(3)));
}

/// `DiskStore::open` itself refuses a record that repeats a triple of
/// the segment, before any layer is built: a chain that commits the
/// records it returns never reaches a compaction holding a triple twice.
#[test]
fn record_repeating_a_segment_triple_is_corrupt_at_open() {
    let g = sample_graph();
    let dir = tmp_dir("wal-repeat-open");
    let iri = |s: &str| g.lookup_iri(s).expect("sample term").index() as u32;
    let (s0, p, o0) = (iri("http://e/s0"), iri("http://e/p"), iri("http://e/o0"));
    let rec = WalRecord {
        label: "repeat".to_string(),
        inferred: 0,
        terms: Vec::new(),
        triples: vec![[s0, p, o0]],
    };
    DiskStore::save(&dir, &g, g.stats(), 0, &[rec]).expect("save");
    let opened = DiskStore::open(&dir, OpenOptions::default());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(repeats_a_triple(&opened));
}

/// The compaction merge refuses a chain that holds a triple twice or
/// spills a term its base holds, before anything is renamed: the store
/// keeps its pair and reopens.
#[test]
fn compaction_refuses_a_repeated_triple_or_term() {
    let g = sample_graph();
    let dir = tmp_dir("compact-repeat");
    DiskStore::save(&dir, &g, g.stats(), 0, &[]).expect("save");
    let iri = |s: &str| g.lookup_iri(s).expect("sample term");
    let (s0, p, o0) = (iri("http://e/s0"), iri("http://e/p"), iri("http://e/o0"));
    let attempts: [(Vec<Term>, Vec<[TermId; 3]>); 2] = [
        (Vec::new(), vec![[s0, p, o0]]),
        (vec![Term::iri("http://e/s0")], Vec::new()),
    ];
    for (terms, delta) in attempts {
        let mut opened = DiskStore::open(&dir, OpenOptions::default()).expect("store opens");
        let mut ledger = Ledger::from_base(BaseStore::Disk(opened.segment.clone()));
        ledger.commit(terms, delta);
        let stats = (ledger.layers().iter()).fold(ledger.base().stats().clone(), |acc, l| {
            acc.merged_with(l.stats())
        });
        let refused = opened.store.compact(&ledger.head_view(), &stats, 0);
        assert!(
            matches!(refused, Err(StoreError::Corrupt { .. })),
            "{refused:?}"
        );
        assert_eq!(opened.store.segment_index(), 0);
        assert!(!dir.join("segment-000001.feo").exists());
        let again = DiskStore::open(&dir, OpenOptions::default()).expect("old pair intact");
        assert_eq!(again.store.segment_index(), 0);
        assert_eq!(GraphView::len(&*again.segment), g.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
