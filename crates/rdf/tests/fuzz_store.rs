//! Robustness: the store's binary decoders must never panic on
//! arbitrary bytes — the same contract the Turtle/N-Triples fuzz suite
//! (`fuzz_parser.rs`) pins for text inputs, extended to the segment
//! and WAL formats. Every outcome is a clean parse or a typed
//! [`StoreError`]; mutations of *valid* files additionally must never
//! smuggle a wrong record past the checksums.

use std::path::PathBuf;

use feo_rdf::disk::{wal, Segment};
use feo_rdf::{DiskStore, GraphStore, StoreError, Term, WalRecord};
use proptest::prelude::*;

fn tmp_file(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("feo-fuzz-{}-{name}-{case}.feo", std::process::id()))
}

fn sample_graph() -> feo_rdf::Graph {
    let mut g = feo_rdf::Graph::new();
    for i in 0..6 {
        g.insert_iris(
            &format!("http://e/s{i}"),
            "http://e/p",
            &format!("http://e/o{}", i % 2),
        );
    }
    g.insert_terms(
        Term::iri("http://e/s0"),
        Term::iri("http://e/label"),
        Term::simple("zero"),
    );
    g
}

fn sample_records() -> Vec<WalRecord> {
    (0..2u32)
        .map(|k| WalRecord {
            label: format!("layer{k}"),
            inferred: u64::from(k),
            terms: vec![Term::iri(format!("http://e/extra{k}"))],
            triples: vec![[0, 1, 2], [3, 1, k]],
        })
        .collect()
}

/// Valid on-disk bytes to mutate: one segment file, one WAL file.
fn valid_files() -> (Vec<u8>, Vec<u8>) {
    let g = sample_graph();
    // Per thread: two tests of this file call this at once.
    let dir = std::env::temp_dir().join(format!(
        "feo-fuzz-seed-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::save(&dir, &g, g.stats(), 1, &sample_records()).expect("save");
    let seg = std::fs::read(store.segment_path()).expect("segment readable");
    let log = std::fs::read(store.wal_path()).expect("wal readable");
    let _ = std::fs::remove_dir_all(&dir);
    (seg, log)
}

fn splice(base: &[u8], cut: usize, del: usize, insert: &[u8]) -> Vec<u8> {
    let pos = cut.min(base.len());
    let end = (pos + del).min(base.len());
    let mut out = Vec::with_capacity(base.len() + insert.len());
    out.extend_from_slice(&base[..pos]);
    out.extend_from_slice(insert);
    out.extend_from_slice(&base[end..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the WAL scanner; the outcome is a
    /// replay (possibly empty, possibly flagged) or a typed error.
    #[test]
    fn wal_parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        match wal::parse_wal(&bytes) {
            Ok(replay) => prop_assert!(replay.valid_len as usize <= bytes.len()),
            Err(
                StoreError::BadMagic { .. }
                | StoreError::UnsupportedVersion { .. }
                | StoreError::Corrupt { .. }
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Io { .. },
            ) => {}
        }
    }

    /// Mutations of a valid log never yield a record that was not
    /// committed: every replayed record is byte-equal to the original
    /// at its position (the per-record checksum stops the scan at the
    /// first damaged frame).
    #[test]
    fn mutated_wal_never_leaks_a_wrong_record(
        cut in 0usize..200,
        del in 0usize..8,
        insert in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let (_, log) = valid_files();
        let originals = sample_records();
        let mutated = splice(&log, cut, del, &insert);
        if let Ok(replay) = wal::parse_wal(&mutated) {
            for (i, rec) in replay.records.iter().enumerate() {
                // More records than committed can only appear if the
                // mutation forged a checksummed frame — effectively
                // impossible; treat it as a failure if it ever happens.
                prop_assert!(i < originals.len(), "forged record appeared");
                prop_assert_eq!(rec, &originals[i], "record {} mutated silently", i);
            }
        }
    }

    /// Arbitrary bytes never panic the segment opener.
    #[test]
    fn segment_open_never_panics_on_arbitrary_bytes(
        case in 0u64..u64::MAX,
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let path = tmp_file("seg-arb", case);
        std::fs::write(&path, &bytes).expect("write fuzz file");
        let _ = Segment::open(&path, true);
        let _ = Segment::open(&path, false);
        let _ = std::fs::remove_file(&path);
    }

    /// Mutations of a valid segment never panic, and with checksum
    /// verification on they can only open if the bytes are unchanged.
    #[test]
    fn mutated_segment_never_panics(
        case in 0u64..u64::MAX,
        cut in 0usize..600,
        del in 0usize..8,
        insert in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let (seg, _) = valid_files();
        let mutated = splice(&seg, cut, del, &insert);
        let path = tmp_file("seg-mut", case);
        std::fs::write(&path, &mutated).expect("write fuzz file");
        if Segment::open(&path, true).is_ok() {
            prop_assert_eq!(
                &mutated, &seg,
                "a checksum-verified open accepted altered bytes"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
