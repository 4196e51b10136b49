//! Many questions over one base: fanned out across the batch workers,
//! and metered by one shared budget.

use feo_rdf::governor::{Budget, Exhausted};
use feo_rdf::pool::map_chunks;
use feo_rdf::Parallelism;

use super::{EngineBase, EngineError, ExplainOptions};
use crate::explanation::Explanation;
use crate::question::{ExplanationType, Question};

/// What a budgeted explanation run could not finish, and why.
///
/// Returned inside [`BudgetedOutcome`] when the shared budget trips
/// partway through a batch: `completed` lists the explanation types that
/// were fully answered before the trip, `skipped` the ones that were not.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The resource that tripped, with spent/limit figures.
    pub exhausted: Exhausted,
    /// Explanation types answered before the budget ran out.
    pub completed: Vec<ExplanationType>,
    /// Explanation types skipped (the one in flight when the budget
    /// tripped, plus everything after it).
    pub skipped: Vec<ExplanationType>,
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = |ts: &[ExplanationType]| -> String {
            if ts.is_empty() {
                "none".to_string()
            } else {
                ts.iter().map(|t| t.label()).collect::<Vec<_>>().join(", ")
            }
        };
        write!(
            f,
            "{}; completed: {}; skipped: {}",
            self.exhausted,
            names(&self.completed),
            names(&self.skipped)
        )
    }
}

/// Result of [`EngineBase::explain_batch_with_budget`]: every
/// explanation that finished within the budget, plus a
/// [`DegradationReport`] when the budget tripped before the batch
/// completed.
#[derive(Debug)]
pub struct BudgetedOutcome {
    pub explanations: Vec<Explanation>,
    /// `None` when every question was answered within the budget.
    pub degradation: Option<DegradationReport>,
}

impl BudgetedOutcome {
    /// True when every requested explanation completed.
    pub fn is_complete(&self) -> bool {
        self.degradation.is_none()
    }
}

impl EngineBase {
    /// Answers a batch of questions concurrently — one throwaway
    /// [`super::Session`] per question, all reading this shared snapshot.
    ///
    /// Questions are partitioned contiguously across the worker pool
    /// ([`ExplainOptions::parallelism`], with the `FEO_THREADS` override
    /// honoured by [`Parallelism::Auto`]); each worker answers its slice
    /// in input order and the slices are merged back in input order, so
    /// the result vector is byte-identical to calling
    /// [`EngineBase::explain`] in a loop. Each session closes and
    /// queries on its worker's thread; nothing fans out below the
    /// question.
    ///
    /// A guard in `opts` meters the whole batch. Questions that trip (or
    /// start after the trip) report [`EngineError::Exhausted`] in their
    /// own slot instead of aborting the batch — per-question errors like
    /// [`EngineError::UnknownEntity`] likewise stay in their slot. For
    /// the aggregate completed/skipped view, see
    /// [`EngineBase::explain_batch_with_budget`].
    pub fn explain_batch(
        &self,
        questions: &[Question],
        opts: &ExplainOptions<'_>,
    ) -> Vec<Result<Explanation, EngineError>> {
        map_chunks(opts.parallelism.workers(), questions, |_, chunk| {
            chunk
                .iter()
                .map(|q| self.explain(q, opts))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Answers a batch of questions under one shared [`Budget`],
    /// degrading gracefully when it trips.
    ///
    /// One [`feo_rdf::governor::Guard`] meters the whole batch —
    /// reasoning and querying for every question draw from the same
    /// deadline and budgets — and the batch fans out across
    /// `parallelism` workers as in [`EngineBase::explain_batch`]. When a
    /// budget trips the call still succeeds: the outcome carries every
    /// explanation that completed plus a [`DegradationReport`] naming
    /// the tripped resource and the skipped explanation types.
    /// Non-budget errors (unknown entity, missing population, engine
    /// bugs) abort the batch as a real `Err`.
    ///
    /// Every question is attempted, so after a trip a question that
    /// never touches the guard (trace-based, simulation) is still
    /// answered rather than skipped. With more than one worker, workers
    /// race the shared budget, so *which* questions land in `completed`
    /// versus `skipped` after a trip depends on scheduling; with
    /// [`Parallelism::Off`] it does not. At every worker count, every
    /// returned explanation is complete and correct, `completed` ∪
    /// `skipped` covers the batch exactly once, and a run whose budget
    /// never trips is byte-identical to [`EngineBase::explain`] in a
    /// loop.
    pub fn explain_batch_with_budget(
        &self,
        questions: &[Question],
        budget: &Budget,
        parallelism: Parallelism,
    ) -> Result<BudgetedOutcome, EngineError> {
        let guard = budget.start();
        let opts = ExplainOptions {
            guard: Some(&guard),
            parallelism,
        };
        let results = self.explain_batch(questions, &opts);
        let mut explanations = Vec::new();
        let mut completed = Vec::new();
        let mut skipped = Vec::new();
        let mut exhausted = None;
        for (question, result) in questions.iter().zip(results) {
            match result {
                Ok(explanation) => {
                    completed.push(explanation.explanation_type);
                    explanations.push(explanation);
                }
                Err(EngineError::Exhausted(e)) => {
                    skipped.push(question.explanation_type());
                    exhausted.get_or_insert(e);
                }
                Err(other) => return Err(other),
            }
        }
        Ok(BudgetedOutcome {
            explanations,
            degradation: exhausted.map(|exhausted| DegradationReport {
                exhausted,
                completed,
                skipped,
            }),
        })
    }
}
