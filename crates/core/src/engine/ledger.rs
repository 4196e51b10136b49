//! Commits, the history and named branches: everything that appends
//! to the main chain or forks from it.

use feo_owl::{InferenceResult, ReasonerError};
use feo_rdf::ledger::{diff_views, BranchChain, EpochId, Ledger, LedgerView};
use feo_rdf::{IdTriple, Overlay, Term, WalRecord};

use super::{EngineBase, EngineError, Session};
use crate::ecosystem::apply_hypothesis;
use crate::question::Hypothesis;

/// One line of [`EngineBase::history`]: what a commit added and the
/// chained hash sealing it.
#[derive(Debug, Clone)]
pub struct CommitInfo {
    pub epoch: EpochId,
    /// Provenance label recorded at commit time (`"base"` for epoch 0).
    pub label: String,
    /// Triples this epoch added (the whole closed base for epoch 0).
    pub triples: usize,
    /// Dictionary terms this epoch added.
    pub terms: usize,
    /// How many of the added triples the per-commit closure derived.
    pub inferred: usize,
    /// Chained tamper-evidence hash at this epoch.
    pub hash: u64,
}

/// One line of [`EngineBase::branch_list`].
#[derive(Debug, Clone)]
pub struct BranchInfo {
    pub name: String,
    /// Main-chain epoch the branch forked from.
    pub fork: EpochId,
    /// Commits the branch has made since forking.
    pub commits: usize,
    /// The branch's head epoch (fork + its own commits).
    pub head: EpochId,
    /// Hash of the branch's newest layer (`None` before any commit).
    pub head_hash: Option<u64>,
}

/// Content-level difference between two branch heads, as rendered
/// triples (each view renders through its own dictionary, so diverged
/// id spaces compare correctly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchDiff {
    pub only_in_a: Vec<String>,
    pub only_in_b: Vec<String>,
}

impl BranchDiff {
    /// True when both heads hold exactly the same triples.
    pub fn is_empty(&self) -> bool {
        self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }
}

pub(super) struct NamedBranch {
    name: String,
    chain: BranchChain,
}

/// Per-commit provenance kept alongside the ledger layers (entry `k`
/// describes epoch `k + 1`).
pub(super) struct CommitNote {
    pub(super) label: String,
    pub(super) inferred: usize,
}

/// Adds one closure's inferred count, warnings, inconsistencies and
/// derivations to a running total. Rounds are left to the caller: a
/// session counts its own, while a base's count stays that of its
/// build.
pub(super) fn absorb(total: &mut InferenceResult, closed: InferenceResult) {
    total.added += closed.added;
    total.warnings.extend(closed.warnings);
    total.inconsistencies.extend(closed.inconsistencies);
    total.derivations.extend(closed.derivations);
}

impl EngineBase {
    /// Commits a closed session delta as a new epoch on the main chain
    /// and returns its [`EpochId`]. The delta follows the
    /// [`Overlay::into_delta`] contract: spill terms in overlay-id
    /// order (which the ledger layer preserves verbatim, so the delta's
    /// id triples and any derivation records stay valid), triples in
    /// SPO order. `inference` is the per-commit closure that produced
    /// the delta — it is recorded alongside the layer, never recomputed
    /// on replay.
    pub fn commit(
        &mut self,
        spill: Vec<Term>,
        delta: Vec<IdTriple>,
        inference: InferenceResult,
    ) -> EpochId {
        self.commit_labeled("session", spill, delta, inference)
    }

    /// [`EngineBase::commit`] with a provenance label for
    /// [`EngineBase::history`].
    pub fn commit_labeled(
        &mut self,
        label: &str,
        spill: Vec<Term>,
        delta: Vec<IdTriple>,
        inference: InferenceResult,
    ) -> EpochId {
        // Write-ahead: persist the delta before the in-memory commit so
        // a crash after this point replays it on reopen. A failed append
        // detaches the store (the in-memory chain stays authoritative)
        // and surfaces as a warning instead of an error — callers of
        // `commit` hold closed session results that must not be lost.
        if let Some(store) = self.store.take() {
            let rec = WalRecord {
                label: label.to_string(),
                inferred: inference.added as u64,
                terms: spill.clone(),
                triples: delta
                    .iter()
                    .map(|t| {
                        [
                            t[0].index() as u32,
                            t[1].index() as u32,
                            t[2].index() as u32,
                        ]
                    })
                    .collect(),
            };
            match store.append_delta(&rec) {
                Ok(()) => self.store = Some(store),
                Err(e) => self
                    .inference
                    .warnings
                    .push(format!("store detached: WAL append failed: {e}")),
            }
        }
        let epoch = self.ledger.commit(spill, delta);
        self.commit_log.push(CommitNote {
            label: label.to_string(),
            inferred: inference.added,
        });
        absorb(&mut self.inference, inference);
        epoch
    }

    /// Runs `write` against a fresh overlay on the head view, closes
    /// the delta incrementally with the precompiled rules, and commits
    /// the result as a new epoch. The one-stop commit entry point used
    /// by [`EngineBase::with_population`], branch materialization, and
    /// tests.
    pub fn commit_with<F>(&mut self, label: &str, write: F) -> EpochId
    where
        F: for<'v> FnOnce(&mut Overlay<LedgerView<'v>>),
    {
        let mut overlay = Overlay::new(self.ledger.head_view());
        write(&mut overlay);
        // Unguarded, so it cannot trip; keep whatever closed if it ever
        // does.
        let inference = self
            .close(&mut overlay, &self.rules, None)
            .unwrap_or_else(ReasonerError::into_partial);
        let (spill, delta) = overlay.into_delta();
        self.commit_labeled(label, spill, delta, inference)
    }

    /// The newest committed epoch on the main chain.
    pub fn head(&self) -> EpochId {
        self.ledger.head()
    }

    /// The underlying epoch ledger — layers, hashes, and raw views.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Triples the build's closure derived: the total less what every
    /// commit's closure added.
    pub(super) fn base_inferred(&self) -> usize {
        let committed: usize = self.commit_log.iter().map(|n| n.inferred).sum();
        self.inference.added.saturating_sub(committed)
    }

    /// The commit chain, oldest first: epoch 0 (the sealed base) plus
    /// one line per committed layer.
    pub fn history(&self) -> Vec<CommitInfo> {
        let base = self.ledger.base();
        let mut out = vec![CommitInfo {
            epoch: EpochId(0),
            label: "base".to_string(),
            triples: base.len(),
            terms: base.term_count(),
            inferred: self.base_inferred(),
            hash: self.ledger.hash_at(EpochId(0)).unwrap_or_default(),
        }];
        for (i, (layer, note)) in self
            .ledger
            .layers()
            .iter()
            .zip(&self.commit_log)
            .enumerate()
        {
            out.push(CommitInfo {
                epoch: EpochId(i as u64 + 1),
                label: note.label.clone(),
                triples: layer.len(),
                terms: layer.term_len(),
                inferred: note.inferred,
                hash: layer.hash(),
            });
        }
        out
    }

    // ---- named branches ----------------------------------------------

    fn branch(&self, name: &str) -> Result<usize, EngineError> {
        (self.branches.iter().position(|b| b.name == name))
            .ok_or_else(|| EngineError::UnknownBranch(name.to_string()))
    }

    /// Forks a named branch at `from`. The branch shares the base and
    /// the forked prefix by reference — nothing is copied; it diverges
    /// only through its own commits ([`EngineBase::branch_commit_with`]
    /// / [`EngineBase::branch_apply`]).
    pub fn branch_create(&mut self, name: &str, from: EpochId) -> Result<EpochId, EngineError> {
        if name == "main" || self.branch(name).is_ok() {
            return Err(EngineError::DuplicateBranch(name.to_string()));
        }
        let chain = self
            .ledger
            .fork(from)
            .ok_or(EngineError::UnknownEpoch(from.0))?;
        self.branches.push(NamedBranch {
            name: name.to_string(),
            chain,
        });
        Ok(from)
    }

    /// Runs `write` against an overlay on the branch's head view,
    /// closes it incrementally, and commits the delta onto the branch's
    /// own chain. The main chain and every other branch are untouched.
    pub fn branch_commit_with<F>(&mut self, name: &str, write: F) -> Result<EpochId, EngineError>
    where
        F: for<'v> FnOnce(&mut Overlay<LedgerView<'v>>),
    {
        let i = self.branch(name)?;
        let mut overlay = Overlay::new(self.ledger.branch_view(&self.branches[i].chain));
        write(&mut overlay);
        // A branch keeps whatever closed, and records no statistics.
        let _ = self.close(&mut overlay, &self.rules, None);
        let (spill, delta) = overlay.into_delta();
        let chain = &mut self.branches[i].chain;
        Ok(self.ledger.commit_branch(chain, spill, delta))
    }

    /// Applies a hypothesis as a commit on the named branch — the
    /// branch-world form of a counterfactual session: the hypothesis
    /// ABox is closed incrementally against the branch head and the
    /// result appended to the branch chain.
    pub fn branch_apply(
        &mut self,
        name: &str,
        hypothesis: &Hypothesis,
    ) -> Result<EpochId, EngineError> {
        let user = self.user.clone();
        self.branch_commit_with(name, |overlay| {
            apply_hypothesis(hypothesis, &user, overlay);
        })
    }

    /// Opens a session over the named branch's head view.
    pub fn branch_session(&self, name: &str) -> Option<Session<'_>> {
        let chain = &self.branches[self.branch(name).ok()?].chain;
        Some(self.session_over(self.ledger.branch_view(chain)))
    }

    /// All branches, in creation order.
    pub fn branch_list(&self) -> Vec<BranchInfo> {
        self.branches
            .iter()
            .map(|b| BranchInfo {
                name: b.name.clone(),
                fork: b.chain.fork_epoch(),
                commits: b.chain.layers().len(),
                head: b.chain.head(),
                head_hash: b.chain.head_hash(),
            })
            .collect()
    }

    fn diff_view(&self, name: &str) -> Result<LedgerView<'_>, EngineError> {
        if name == "main" {
            return Ok(self.ledger.head_view());
        }
        Ok(self
            .ledger
            .branch_view(&self.branches[self.branch(name)?].chain))
    }

    /// Content-level difference between two branch heads (`"main"`
    /// names the main chain): triples only in `a` and triples only in
    /// `b`. The shared base and common prefix cancel out — only
    /// diverged layers contribute.
    pub fn branch_diff(&self, a: &str, b: &str) -> Result<BranchDiff, EngineError> {
        let (only_in_a, only_in_b) = diff_views(&self.diff_view(a)?, &self.diff_view(b)?);
        Ok(BranchDiff {
            only_in_a,
            only_in_b,
        })
    }
}
