//! The write-ahead delta log: one record per committed ledger layer.
//!
//! A segment freezes epoch 0; everything committed after it goes here,
//! one self-checksummed record per [`Ledger::commit`] with exactly the
//! data `commit` consumed — the layer label, its inferred-triple count,
//! the spill dictionary, and the delta triples in SPO order. Replaying
//! the log through `Ledger::commit` therefore reconstructs the *same*
//! chain: same epochs, same term ids, same layer hashes.
//!
//! Layout: an 8-byte header (`b"FEOWAL\0"` + format version) followed by
//! records of `[u64 len][u64 hash::checksum(payload)][payload]`. A crash
//! can tear the final record; [`parse_wal`] replays the intact prefix
//! and reports the tear as a typed [`StoreError`] in
//! [`WalReplay::truncated`], with [`WalReplay::valid_len`] marking
//! where the store should truncate to recover.
//!
//! [`Ledger::commit`]: crate::ledger::Ledger::commit

use std::io::Write;
use std::path::Path;

use super::codec;
use super::segment::le64;
use super::{StoreError, FORMAT_VERSION};
use crate::graph::IdTriple;
use crate::hash::checksum;
use crate::intern::TermId;
use crate::term::Term;

pub(crate) const MAGIC: &[u8; 7] = b"FEOWAL\0";
pub(crate) const HEADER_LEN: usize = 8;

/// One committed layer, exactly as `Ledger::commit` consumed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The commit label (`"explain"`, `"population"`, …).
    pub label: String,
    /// How many of the layer's triples the reasoner derived (the
    /// engine's per-commit share of `InferenceResult::added`).
    pub inferred: u64,
    /// Spill dictionary in id order: term `i` has id `term_base + i`.
    pub terms: Vec<Term>,
    /// Delta triples in SPO order, raw ids.
    pub triples: Vec<[u32; 3]>,
}

impl WalRecord {
    /// The delta triples as typed ids, ready for `Ledger::commit`.
    pub fn id_triples(&self) -> Vec<IdTriple> {
        self.triples
            .iter()
            .map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)])
            .collect()
    }
}

/// The 8-byte log header.
pub(crate) fn header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..7].copy_from_slice(MAGIC);
    h[7] = FORMAT_VERSION;
    h
}

/// Serializes one record (length + checksum + payload).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(rec.label.len() as u32).to_le_bytes());
    payload.extend_from_slice(rec.label.as_bytes());
    payload.extend_from_slice(&rec.inferred.to_le_bytes());
    payload.extend_from_slice(&(rec.terms.len() as u32).to_le_bytes());
    for t in &rec.terms {
        codec::encode_term(&mut payload, t);
    }
    payload.extend_from_slice(&(rec.triples.len() as u64).to_le_bytes());
    for &[s, p, o] in &rec.triples {
        payload.extend_from_slice(&s.to_le_bytes());
        payload.extend_from_slice(&p.to_le_bytes());
        payload.extend_from_slice(&o.to_le_bytes());
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, StoreError> {
    let mut r = codec::Reader::new(payload, "wal record");
    let label = r.str()?.to_string();
    let inferred = r.u64()?;
    let n_terms = r.u32()? as usize;
    let mut terms = Vec::with_capacity(n_terms.min(payload.len()));
    for _ in 0..n_terms {
        terms.push(codec::decode_term(&mut r)?);
    }
    let n_triples = r.u64()? as usize;
    if n_triples.checked_mul(12) != Some(r.remaining()) {
        return Err(StoreError::Corrupt {
            what: "wal record: triple section length mismatch".to_string(),
        });
    }
    let mut triples = Vec::with_capacity(n_triples);
    for _ in 0..n_triples {
        triples.push([r.u32()?, r.u32()?, r.u32()?]);
    }
    Ok(WalRecord {
        label,
        inferred,
        terms,
        triples,
    })
}

/// Result of scanning a log: the replayable prefix plus, when the tail
/// was torn or flipped, the typed error describing the damage and the
/// byte length of the intact prefix to truncate back to.
#[derive(Debug)]
pub struct WalReplay {
    /// Records of the intact prefix, oldest first.
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix (header included). Recovery
    /// truncates the file here before appending again.
    pub valid_len: u64,
    /// The damage found past `valid_len`, if any.
    pub truncated: Option<StoreError>,
}

/// Scans serialized log bytes. Wrong magic or version is a hard error;
/// a damaged *tail* (torn record header, short payload, checksum
/// mismatch) ends the scan and is reported in `truncated` — everything
/// before it replays normally, which is the crash-recovery contract.
pub fn parse_wal(bytes: &[u8]) -> Result<WalReplay, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            truncated: Some(StoreError::Truncated { what: "wal header" }),
        });
    }
    if &bytes[..7] != MAGIC {
        return Err(StoreError::BadMagic {
            path: std::path::PathBuf::from("wal.feo"),
        });
    }
    if bytes[7] != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: std::path::PathBuf::from("wal.feo"),
            found: bytes[7],
        });
    }
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    loop {
        if at == bytes.len() {
            return Ok(WalReplay {
                records,
                valid_len: at as u64,
                truncated: None,
            });
        }
        let tear = |what: &'static str| StoreError::Truncated { what };
        if bytes.len() - at < 16 {
            return Ok(WalReplay {
                records,
                valid_len: at as u64,
                truncated: Some(tear("wal record header")),
            });
        }
        let (len, stored_sum) = (le64(bytes, at) as usize, le64(bytes, at + 8));
        let body_at = at + 16;
        if len > bytes.len() - body_at {
            return Ok(WalReplay {
                records,
                valid_len: at as u64,
                truncated: Some(tear("wal record payload")),
            });
        }
        let payload = &bytes[body_at..body_at + len];
        if checksum(payload) != stored_sum {
            return Ok(WalReplay {
                records,
                valid_len: at as u64,
                truncated: Some(StoreError::ChecksumMismatch { what: "wal record" }),
            });
        }
        // Checksummed but undecodable is not a torn write — hard error.
        records.push(decode_payload(payload)?);
        at = body_at + len;
    }
}

/// Reads and scans a log file.
pub fn read_wal(path: &Path) -> Result<WalReplay, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io("read", path, e))?;
    parse_wal(&bytes)
}

/// Appends one record to the log, fsyncing before returning — once
/// this succeeds, the commit survives a crash.
pub fn append_record(path: &Path, rec: &WalRecord) -> Result<(), StoreError> {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| StoreError::io("open", path, e))?;
    f.write_all(&encode_record(rec))
        .map_err(|e| StoreError::io("append", path, e))?;
    f.sync_all().map_err(|e| StoreError::io("fsync", path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &str, k: u32) -> WalRecord {
        WalRecord {
            label: label.to_string(),
            inferred: u64::from(k),
            terms: vec![Term::iri(format!("http://e/t{k}")), Term::simple("x")],
            triples: vec![[k, k + 1, k + 2], [k + 3, 0, 1]],
        }
    }

    fn log_bytes(recs: &[WalRecord]) -> Vec<u8> {
        let mut out = header().to_vec();
        for r in recs {
            out.extend_from_slice(&encode_record(r));
        }
        out
    }

    #[test]
    fn records_round_trip() {
        let recs = vec![rec("population", 0), rec("explain", 5)];
        let replay = parse_wal(&log_bytes(&recs)).unwrap();
        assert_eq!(replay.records, recs);
        assert!(replay.truncated.is_none());
        assert_eq!(replay.valid_len as usize, log_bytes(&recs).len());
        // Typed-id view matches the raw triples.
        assert_eq!(replay.records[0].id_triples().len(), 2);
        assert_eq!(replay.records[0].id_triples()[0][0].index(), 0);
    }

    #[test]
    fn torn_tail_replays_intact_prefix() {
        let recs = vec![rec("a", 1), rec("b", 2)];
        let full = log_bytes(&recs);
        let first_len = log_bytes(&recs[..1]).len();
        // Tear at every byte inside the second record.
        for cut in first_len + 1..full.len() {
            let replay = parse_wal(&full[..cut]).unwrap();
            assert_eq!(replay.records, recs[..1], "cut at {cut}");
            assert_eq!(replay.valid_len as usize, first_len);
            assert!(replay.truncated.is_some());
        }
        // A bit flip in the second record's payload also stops there.
        let mut flipped = full.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0x01;
        let replay = parse_wal(&flipped).unwrap();
        assert_eq!(replay.records, recs[..1]);
        assert!(matches!(
            replay.truncated,
            Some(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        let mut bytes = log_bytes(&[rec("a", 1)]);
        bytes[0] = b'X';
        assert!(matches!(
            parse_wal(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bytes = log_bytes(&[rec("a", 1)]);
        bytes[7] = 9;
        assert!(matches!(
            parse_wal(&bytes),
            Err(StoreError::UnsupportedVersion { found: 9, .. })
        ));
        // An empty / sub-header file is recoverable, not fatal.
        let replay = parse_wal(&[]).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);
        assert!(replay.truncated.is_some());
    }
}
