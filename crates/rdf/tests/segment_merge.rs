//! The segment writer merges what a base and its layers already hold in
//! order. This suite pins the file it writes, byte for byte, to a naive
//! reference writer kept here: every triple through `iter_ids`, sorted
//! and deduplicated, rotated and sorted again for the other two orders,
//! every term encoded in id order and the permutation sorted by entry
//! bytes.
//!
//! Inputs are generated chains: a memory or a segment base, 0–70
//! layers (empty ones included), spills whose encodings sort before,
//! between and after the base's dictionary entries, and deltas touching
//! id 0 and the top id. The chain is written directly, and compacted
//! through a store whose reopened segment must resolve every id to the
//! chain's term.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use feo_rdf::disk::codec::encode_term;
use feo_rdf::disk::segment::write_segment;
use feo_rdf::disk::OpenOptions;
use feo_rdf::{
    BaseStore, DiskStore, EpochId, Graph, GraphStats, GraphStore, GraphView, Ledger, LedgerView,
    Literal, Overlay, Segment, Term, TermId,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ---- the reference writer ----------------------------------------------

fn step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn fmix(mut h: u64) -> u64 {
    h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// The format-2 checksum, one word at a time: word `i` of the bytes,
/// zero-padded to a multiple of 32, steps lane `i % 4`; the byte length
/// then steps through the four lanes.
fn checksum(bytes: &[u8]) -> u64 {
    let mut padded = bytes.to_vec();
    padded.resize(bytes.len().div_ceil(32) * 32, 0);
    let mut lanes = [0; 4];
    for (i, word) in padded.chunks(8).enumerate() {
        let word = u64::from_le_bytes(word.try_into().unwrap());
        lanes[i % 4] = step(lanes[i % 4], word);
    }
    fmix(
        lanes
            .iter()
            .fold(bytes.len() as u64, |h, &lane| step(h, lane)),
    )
}

/// The wrapping sum of the triples' hashes that the meta section keeps.
fn triple_sum(spo: &[[u32; 3]]) -> u64 {
    spo.iter().fold(0, |sum, &[s, p, o]| {
        let h = fmix(step(
            step(0, u64::from(s) | u64::from(p) << 32),
            u64::from(o),
        ));
        sum.wrapping_add(h)
    })
}

fn stats_bytes(stats: &GraphStats) -> Vec<u8> {
    let mut out = Vec::new();
    let ty = stats.rdf_type_id();
    out.push(u8::from(ty.is_some()));
    out.extend_from_slice(&ty.map_or(0, |t| t.index() as u32).to_le_bytes());
    out.extend_from_slice(&stats.total_triples().to_le_bytes());
    let preds = stats.predicate_entries();
    out.extend_from_slice(&(preds.len() as u32).to_le_bytes());
    for (p, ps) in preds {
        out.extend_from_slice(&p.to_le_bytes());
        for v in [ps.triples, ps.distinct_subjects, ps.distinct_objects] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let classes = stats.class_entries();
    out.extend_from_slice(&(classes.len() as u32).to_le_bytes());
    for (c, n) in classes {
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
    out
}

/// The segment file of `view`, whose ids are `ids` in order, as the
/// collect-and-sort writer built it.
fn reference_segment(
    view: &LedgerView<'_>,
    ids: &[TermId],
    stats: &GraphStats,
    base_inferred: u64,
) -> Vec<u8> {
    let (mut blob, mut offsets) = (Vec::new(), vec![0u64]);
    for &id in ids {
        encode_term(&mut blob, view.term(id));
        offsets.push(blob.len() as u64);
    }
    let entry = |i: u32| &blob[offsets[i as usize] as usize..offsets[i as usize + 1] as usize];
    let mut perm: Vec<u32> = (0..ids.len() as u32).collect();
    perm.sort_by(|&a, &b| entry(a).cmp(entry(b)));
    let mut spo: Vec<[u32; 3]> = view
        .iter_ids()
        .map(|t| t.map(|id| id.index() as u32))
        .collect();
    spo.sort();
    spo.dedup();
    let rotate = |run: &[[u32; 3]]| {
        let mut out: Vec<[u32; 3]> = run.iter().map(|&[a, b, c]| [b, c, a]).collect();
        out.sort();
        out
    };
    let pos = rotate(&spo);
    let osp = rotate(&pos);
    let stats = stats_bytes(stats);

    let mut body = Vec::new();
    for v in [ids.len(), spo.len(), stats.len()] {
        body.extend_from_slice(&(v as u64).to_le_bytes());
    }
    offsets
        .iter()
        .for_each(|o| body.extend_from_slice(&o.to_le_bytes()));
    body.extend_from_slice(&blob);
    perm.iter()
        .for_each(|i| body.extend_from_slice(&i.to_le_bytes()));
    for run in [&spo, &pos, &osp] {
        run.iter()
            .flatten()
            .for_each(|v| body.extend_from_slice(&v.to_le_bytes()));
    }
    body.extend_from_slice(&stats);
    body.extend_from_slice(&base_inferred.to_le_bytes());
    body.extend_from_slice(&triple_sum(&spo).to_le_bytes());
    let mut file = b"FEOSEG\x00\x02".to_vec();
    file.extend_from_slice(&checksum(&body).to_le_bytes());
    file.extend_from_slice(&body);
    file
}

// ---- generated chains --------------------------------------------------

/// Term `k`, unique per `k`. Base terms are long IRIs, blank nodes and
/// simple literals; a spill may also be a short IRI, which sorts before
/// every base entry, or a language-tagged or typed literal, whose tags
/// sort after all of them.
fn term(rng: &mut TestRng, k: usize, spill: bool) -> Term {
    let kinds = if spill { 6 } else { 3 };
    match rng.usize_in(0, kinds) {
        0 => Term::iri(format!("http://e/{}{k}", "x".repeat(rng.usize_in(0, 4)))),
        1 => Term::bnode(format!("b{k}")),
        2 => Term::simple(format!("{k}")),
        3 => Term::iri(format!("{k}")),
        4 => Term::Literal(Literal::lang(format!("w{k}"), "en")),
        _ => Term::integer(k as i64),
    }
}

/// A chain: base terms and triples, then per layer its spill and its
/// triples. Triples index the ids in order (base terms, then spills).
#[derive(Debug)]
struct Chain {
    base_terms: Vec<Term>,
    base_triples: Vec<[usize; 3]>,
    layers: Vec<(Vec<Term>, Vec<[usize; 3]>)>,
}

fn chain(seed: u64) -> Chain {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut k = 0;
    let mut fresh = |rng: &mut TestRng, spill: bool| {
        k += 1;
        term(rng, k, spill)
    };
    let base_terms: Vec<Term> = (0..rng.usize_in(0, 40))
        .map(|_| fresh(&mut rng, false))
        .collect();
    let pick = |rng: &mut TestRng, n: usize| [0; 3].map(|_| rng.usize_in(0, n));
    let base_triples = match base_terms.len() {
        0 => Vec::new(),
        n => (0..rng.usize_in(0, 60))
            .map(|_| pick(&mut rng, n))
            .collect(),
    };
    let mut n = base_terms.len();
    let layer_count = rng.usize_in(0, 71);
    let layers = (0..layer_count)
        .map(|l| {
            if rng.usize_in(0, 4) == 0 {
                return (Vec::new(), Vec::new());
            }
            let spill: Vec<Term> = (0..rng.usize_in(0, 4))
                .map(|_| fresh(&mut rng, true))
                .collect();
            n += spill.len();
            let mut triples: Vec<[usize; 3]> = match n {
                0 => Vec::new(),
                n => (0..rng.usize_in(0, 6)).map(|_| pick(&mut rng, n)).collect(),
            };
            // The lowest and the highest id, in the last layer and now
            // and then on the way.
            if n > 0 && (l + 1 == layer_count || rng.usize_in(0, 8) == 0) {
                triples.push([0, n - 1, n - 1]);
                triples.push([n - 1, 0, 0]);
            }
            (spill, triples)
        })
        .collect();
    Chain {
        base_terms,
        base_triples,
        layers,
    }
}

fn base_graph(chain: &Chain) -> (Graph, Vec<TermId>) {
    let mut g = Graph::new();
    let ids: Vec<TermId> = chain.base_terms.iter().map(|t| g.intern(t)).collect();
    for &[s, p, o] in &chain.base_triples {
        g.insert_ids(ids[s], ids[p], ids[o]);
    }
    (g, ids)
}

/// Commits the chain's layers onto `ledger` the way the engine does,
/// through an overlay over the head (which drops a triple the chain
/// already holds); returns every id in order and the stacked stats.
fn commit_layers(
    ledger: &mut Ledger,
    chain: &Chain,
    mut ids: Vec<TermId>,
) -> (Vec<TermId>, GraphStats) {
    for (spill, triples) in &chain.layers {
        let (terms, delta) = {
            let mut ov = Overlay::new(ledger.head_view());
            ids.extend(spill.iter().map(|t| ov.intern(t)));
            for &[s, p, o] in triples {
                ov.insert_ids(ids[s], ids[p], ids[o]);
            }
            ov.into_delta()
        };
        ledger.commit(terms, delta);
    }
    let stats = ledger
        .layers()
        .iter()
        .fold(ledger.base().stats().clone(), |acc, l| {
            acc.merged_with(l.stats())
        });
    (ids, stats)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("feo-segment-merge-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn same_bytes(what: &str, got: &Path, want: &[u8]) -> Result<(), TestCaseError> {
    let got = std::fs::read(got).unwrap();
    let first_diff = got.iter().zip(want).position(|(a, b)| a != b);
    prop_assert!(
        got == want,
        "{}: {} bytes written, {} expected, first difference at {:?}",
        what,
        got.len(),
        want.len(),
        first_diff
    );
    Ok(())
}

/// Two segments of one file answer alike: each of `ids` (every id, in
/// order) resolves to the same term, each run reads the same where the
/// position it leads with is bound, and the stats and meta agree.
fn same_segment(adopted: &Segment, opened: &Segment, ids: &[TermId]) -> Result<(), TestCaseError> {
    prop_assert_eq!(adopted.term_count(), opened.term_count());
    prop_assert_eq!(ids.len(), opened.term_count());
    let all = |seg: &Segment| seg.match_pattern(None, None, None);
    prop_assert_eq!(all(adopted), all(opened));
    for &id in ids {
        prop_assert_eq!(adopted.term(id), opened.term(id));
        prop_assert_eq!(adopted.lookup(opened.term(id)), Some(id));
        let id = Some(id);
        for (s, p, o) in [(id, None, None), (None, id, None), (None, None, id)] {
            prop_assert_eq!(
                adopted.match_pattern(s, p, o),
                opened.match_pattern(s, p, o)
            );
        }
    }
    let (a, b) = (adopted.stats(), opened.stats());
    prop_assert_eq!(a.total_triples(), b.total_triples());
    prop_assert_eq!(a.rdf_type_id(), b.rdf_type_id());
    prop_assert_eq!(a.predicate_entries(), b.predicate_entries());
    prop_assert_eq!(a.class_entries(), b.class_entries());
    prop_assert_eq!(adopted.base_inferred(), opened.base_inferred());
    prop_assert_eq!(adopted.triple_sum(), opened.triple_sum());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_segments_are_byte_identical_to_the_reference(seed in any::<u64>()) {
        let chain = chain(seed);
        let dir = scratch("direct");

        // A memory base.
        let (graph, ids) = base_graph(&chain);
        let mut mem = Ledger::new(graph);
        let (ids, stats) = commit_layers(&mut mem, &chain, ids);
        let head = mem.head_view();
        prop_assert_eq!(ids.len(), head.term_count());
        let want = reference_segment(&head, &ids, &stats, 3);
        write_segment(&dir.join("mem.feo"), &head, &stats, 3).unwrap();
        same_bytes("memory base", &dir.join("mem.feo"), &want)?;

        // The same chain over a segment base: the same file.
        let (graph, _) = base_graph(&chain);
        write_segment(&dir.join("base.feo"), &graph, graph.stats(), 0).unwrap();
        let segment = Segment::open(&dir.join("base.feo"), true).unwrap();
        let mut disk = Ledger::from_base(BaseStore::Disk(Arc::new(segment)));
        let base_ids = chain.base_terms.iter().map(|t| disk.base().lookup(t).unwrap()).collect();
        let (_, stats) = commit_layers(&mut disk, &chain, base_ids);
        write_segment(&dir.join("disk.feo"), &disk.head_view(), &stats, 3).unwrap();
        same_bytes("segment base", &dir.join("disk.feo"), &want)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_writes_the_reference_and_resolves_every_id(seed in any::<u64>()) {
        let chain = chain(seed);
        let dir = scratch("compact");
        let (graph, _) = base_graph(&chain);
        DiskStore::save(&dir, &graph, graph.stats(), 0, &[]).unwrap();
        let mut opened = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        let mut ledger = Ledger::from_base(BaseStore::Disk(opened.segment.clone()));
        let base_ids: Vec<TermId> =
            chain.base_terms.iter().map(|t| ledger.base().lookup(t).unwrap()).collect();
        // Decode part of the base first: compaction carries what the old
        // segment had decoded, and decodes nothing itself.
        for &id in base_ids.iter().step_by(2) {
            ledger.base().term(id);
        }
        let (ids, stats) = commit_layers(&mut ledger, &chain, base_ids);
        let head = ledger.head_view();
        let compacted = opened.store.compact(&head, &stats, 5).unwrap();
        let want = reference_segment(&head, &ids, &stats, 5);
        same_bytes("compaction", &opened.store.segment_path(), &want)?;
        for &id in &ids {
            prop_assert_eq!(compacted.term(id), head.term(id));
            prop_assert_eq!(compacted.lookup(head.term(id)), Some(id));
        }
        let mut all: Vec<_> = head.iter_ids().collect();
        all.sort();
        prop_assert_eq!(compacted.match_pattern(None, None, None), all);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A compaction adopts the file it wrote without reading it back:
    /// the segment it returns reads exactly as a verified open of that
    /// file, and the base hash it carries is the content's, as a memory
    /// base of the same ids and triples computes it.
    #[test]
    fn an_adopted_segment_reads_as_a_verified_open(seed in any::<u64>()) {
        let chain = chain(seed);
        let dir = scratch("adopt");
        let (graph, _) = base_graph(&chain);
        DiskStore::save(&dir, &graph, graph.stats(), 0, &[]).unwrap();
        let mut opened = DiskStore::open(&dir, OpenOptions::default()).unwrap();
        let mut ledger = Ledger::from_base(BaseStore::Disk(opened.segment.clone()));
        let base_ids = chain.base_terms.iter().map(|t| ledger.base().lookup(t).unwrap()).collect();
        let (ids, stats) = commit_layers(&mut ledger, &chain, base_ids);
        let head = ledger.head_view();
        let adopted = opened.store.compact(&head, &stats, 7).unwrap();
        let verified = Segment::open(&opened.store.segment_path(), true).unwrap();
        same_segment(&adopted, &verified, &ids)?;

        let mut flat = Graph::new();
        for &id in &ids {
            prop_assert_eq!(flat.intern(head.term(id)), id);
        }
        for [s, p, o] in head.iter_ids() {
            flat.insert_ids(s, p, o);
        }
        let carried = Ledger::from_base(BaseStore::Disk(Arc::new(adopted)));
        prop_assert_eq!(carried.hash_at(EpochId(0)), Ledger::new(flat).hash_at(EpochId(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
