//! The disk-store lifecycle: save the main chain, reopen it without
//! re-materializing, and fold its WAL back into the segment.

use feo_foodkg::{FoodKg, SystemContext, UserProfile};
use feo_owl::InferenceResult;
use feo_rdf::disk::OpenOptions as StoreOpenOptions;
use feo_rdf::ledger::{BaseStore, Ledger};
use feo_rdf::{DiskStore, Overlay, StoreError, WalRecord};
use std::path::Path;
use std::sync::Arc;

use super::ledger::CommitNote;
use super::{EngineBase, EngineError};

impl EngineBase {
    /// Saves the main chain into `dir` as a persistent store — the
    /// sealed epoch-0 base as a dictionary-encoded, memory-mappable
    /// segment, every committed layer as one WAL record — and attaches
    /// the store so later commits append to the WAL. Reopen with
    /// [`EngineBase::open`]; fold the WAL back into the segment with
    /// [`EngineBase::compact`]. An existing store in `dir` is
    /// superseded atomically (MANIFEST rename).
    pub fn save_to(&mut self, dir: &Path) -> Result<(), EngineError> {
        let records: Vec<WalRecord> = self
            .ledger
            .layers()
            .iter()
            .zip(&self.commit_log)
            .map(|(layer, note)| WalRecord {
                label: note.label.clone(),
                inferred: note.inferred as u64,
                terms: layer.spill_terms().to_vec(),
                triples: layer.spo_raw().to_vec(),
            })
            .collect();
        let base = self.ledger.base();
        let base_inferred = self.base_inferred() as u64;
        let store = DiskStore::save(dir, base, base.stats(), base_inferred, &records)?;
        self.store = Some(store);
        Ok(())
    }

    /// Opens a store written by [`EngineBase::save_to`]: the segment is
    /// memory-mapped as the epoch-0 base — no re-assembly, no
    /// re-materialization — and each WAL record replays through
    /// [`Ledger::commit`], reconstructing the same chain (same epochs,
    /// same term ids, same layer hashes), so answers are byte-identical
    /// to the engine that saved it.
    ///
    /// `kg`, `user`, and `ctx` supply the structured side-channels that
    /// never lived in the graph (recipe metadata, the user id, the
    /// season); they must match what the store was built from. Traits
    /// that are not persisted must be re-attached explicitly:
    /// [`EngineBase::mark_population`] for the population flag,
    /// [`EngineBase::with_recommendations`] for recommender output.
    /// Derivations are likewise not persisted, so
    /// [`EngineBase::proof_of_type`] cannot explain typings inferred
    /// before the save. A torn WAL tail is repaired during open and
    /// reported as an inference warning.
    pub fn open(
        dir: &Path,
        kg: FoodKg,
        user: UserProfile,
        ctx: SystemContext,
    ) -> Result<Self, EngineError> {
        let opened = DiskStore::open(dir, StoreOpenOptions::default())?;
        let mut inference = InferenceResult {
            added: opened.segment.base_inferred() as usize,
            converged: true,
            ..Default::default()
        };
        if let Some(e) = &opened.recovered {
            inference.warnings.push(format!("wal recovered: {e}"));
        }
        let ledger = Ledger::replay(BaseStore::Disk(opened.segment.clone()), &opened.records);
        let mut commit_log = Vec::new();
        for rec in &opened.records {
            commit_log.push(CommitNote {
                label: rec.label.clone(),
                inferred: rec.inferred as usize,
            });
            inference.added += rec.inferred as usize;
        }
        // Recompile the rule set from the persisted TBox. The segment
        // dictionary already holds the reasoner's vocabulary (it was
        // interned before the save), so the compile pass normally spills
        // nothing; if it ever does, the spill is committed — and
        // WAL-logged — as its own layer so ids stay aligned on disk.
        let mut overlay = Overlay::new(ledger.head_view());
        let rules = Self::reasoner(false).compile(&mut overlay);
        let (spill, delta) = overlay.into_delta();
        let mut engine = Self::seal(kg, user, ctx, ledger, rules, inference, false)?;
        engine.commit_log = commit_log;
        engine.store = Some(opened.store);
        if !spill.is_empty() || !delta.is_empty() {
            engine.commit_labeled("vocab", spill, delta, InferenceResult::default());
        }
        Ok(engine)
    }

    /// Folds every committed layer into a fresh base segment with an
    /// empty WAL — log-structured compaction for the attached store.
    /// The MANIFEST rename publishes the new segment/WAL pair
    /// atomically, so a crash mid-compaction leaves the old pair
    /// intact. Afterwards the in-memory chain re-anchors on the new
    /// segment: history collapses to a single epoch 0, and branches
    /// (forked from the old chain's epochs) are dropped. Term ids are
    /// preserved by the flatten, so accumulated derivations stay valid.
    pub fn compact(&mut self) -> Result<(), EngineError> {
        let Some(store) = self.store.as_mut() else {
            return Err(EngineError::Store(StoreError::Corrupt {
                what: "compact without an attached store (open or save_to first)".to_string(),
            }));
        };
        let stats = self
            .ledger
            .layers()
            .iter()
            .fold(self.ledger.base().stats().clone(), |acc, layer| {
                acc.merged_with(layer.stats())
            });
        let segment = store.compact(
            &self.ledger.head_view(),
            &stats,
            self.inference.added as u64,
        )?;
        self.ledger = Ledger::from_base(BaseStore::Disk(Arc::new(segment)));
        self.commit_log.clear();
        self.branches.clear();
        Ok(())
    }

    /// The attached persistent store, when the base was opened from or
    /// saved to disk.
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }
}
