//! [`Session`]: one question's throwaway overlay over one epoch view.

use feo_owl::{InferenceResult, ReasonerError};
use feo_rdf::governor::Guard;
use feo_rdf::ledger::{EpochId, LedgerView};
use feo_rdf::{GraphView, Overlay, Term};
use feo_sparql::{
    execute_prepared, execute_seeded, plan_query, QueryOptions, QueryResult, SolutionTable,
};

use super::ledger::absorb;
use super::{EngineBase, EngineError, ExplainOptions};
use crate::ecosystem::assert_question;
use crate::explanation::Explanation;
use crate::knowledge::{EVERYDAY_RECORD, SCIENTIFIC_RECORD};
use crate::queries::Prepared;
use crate::question::Question;

impl EngineBase {
    /// Opens a question-answering session over the head epoch. The
    /// session writes only into its private overlay; any number of
    /// sessions can run concurrently over one base.
    pub fn session(&self) -> Session<'_> {
        self.session_over(self.ledger.head_view())
    }

    /// A fresh session over `view`, an epoch of the main chain or of a
    /// branch.
    pub(super) fn session_over<'s>(&'s self, view: LedgerView<'s>) -> Session<'s> {
        Session {
            base: self,
            overlay: Overlay::new(view),
            inference: InferenceResult::default(),
            guard: None,
        }
    }

    /// Opens a session pinned at a historical epoch — the view stacks
    /// exactly the first `epoch` layers, so answers reproduce what the
    /// engine knew then, byte for byte. `None` past the head.
    ///
    /// Structured side-channels that never lived in the graph
    /// (recommender traces, the population's presence flag) are not
    /// versioned: graph-backed answers are epoch-exact, trace-based
    /// ones reflect the current recommender output.
    pub fn at_epoch(&self, epoch: EpochId) -> Option<Session<'_>> {
        Some(self.session_over(self.ledger.view(epoch)?))
    }

    /// Answers `question` exactly as the engine would have at `epoch`:
    /// the session view stacks only the layers committed up to then, so
    /// later commits cannot perturb the answer.
    pub fn explain_as_of(
        &self,
        epoch: EpochId,
        question: &Question,
        opts: &ExplainOptions<'_>,
    ) -> Result<Explanation, EngineError> {
        self.at_epoch(epoch)
            .ok_or(EngineError::UnknownEpoch(epoch.0))?
            .explain(question, opts)
    }

    /// Answers a question in a fresh throwaway session. Takes `&self`,
    /// so explanations can be produced from many threads over one
    /// `Arc<EngineBase>` — and no question can leak state into the next.
    ///
    /// [`ExplainOptions`] carries the execution guard (a trip surfaces
    /// as [`EngineError::Exhausted`] instead of unbounded work).
    pub fn explain<'s>(
        &'s self,
        question: &Question,
        opts: &ExplainOptions<'s>,
    ) -> Result<Explanation, EngineError> {
        self.session().explain(question, opts)
    }
}

/// A per-question view over a shared [`EngineBase`], pinned at one
/// epoch of its ledger (the head for [`EngineBase::session`], any
/// historical epoch for [`EngineBase::at_epoch`], a branch head for
/// [`EngineBase::branch_session`]).
///
/// Question individuals (and everything the reasoner derives from them)
/// land in the session's [`Overlay`]; SPARQL templates evaluate over the
/// stacked epoch view + delta. Dropping the session discards the delta.
pub struct Session<'a> {
    pub(super) base: &'a EngineBase,
    pub(super) overlay: Overlay<LedgerView<'a>>,
    /// Closure stats and derivations accumulated by this session's
    /// incremental closes (disjoint from the base's own inference).
    inference: InferenceResult,
    /// Execution governor checked by incremental closes and SPARQL
    /// evaluation; `None` runs unguarded.
    pub(super) guard: Option<&'a Guard>,
}

impl<'a> Session<'a> {
    /// The base this session reads through.
    pub fn base(&self) -> &'a EngineBase {
        self.base
    }

    /// Inference accumulated by this session's incremental closes.
    pub fn inference(&self) -> &InferenceResult {
        &self.inference
    }

    /// Number of triples in the session delta.
    pub fn delta_len(&self) -> usize {
        self.overlay.delta_len()
    }

    /// Decomposes the session into its overlay and inference, for a
    /// caller that reads or closes the overlay itself or hands the delta
    /// to [`EngineBase::commit`].
    pub fn into_parts(self) -> (Overlay<LedgerView<'a>>, InferenceResult) {
        (self.overlay, self.inference)
    }

    fn query_options(&self) -> QueryOptions<'a> {
        QueryOptions {
            guard: self.guard,
            ..Default::default()
        }
    }

    /// Runs a competency template over `view`, its parameters bound to
    /// the IRIs in `args` by a seed row, under the session guard.
    pub(super) fn run_template<V: GraphView>(
        &self,
        view: V,
        template: &Prepared,
        args: &[&str],
    ) -> Result<SolutionTable, EngineError> {
        let seed: Vec<(&str, Term)> = (template.params.iter().copied())
            .zip(args.iter().map(|iri| Term::iri(*iri)))
            .collect();
        let result = execute_seeded(
            view,
            &template.query,
            &template.plan,
            &seed,
            &self.query_options(),
        )?;
        Ok(result.expect_solutions())
    }

    /// Runs an arbitrary SPARQL query over this session's epoch view
    /// plus its private delta — the entry point behind `/query` and
    /// `feo query --as-of`. The parsed text comes from the base's memo;
    /// the plan is made against this session's epoch view.
    pub fn query(&self, sparql: &str) -> Result<QueryResult, EngineError> {
        let parsed = self.base.parsed.parse(sparql)?;
        let plan = plan_query(self.overlay.base(), &parsed);
        Ok(execute_prepared(
            &self.overlay,
            &parsed,
            &plan,
            &self.query_options(),
        )?)
    }

    /// Like [`Session::query`], but under the guard carried by `opts`
    /// (which sticks for the rest of this session, exactly as with
    /// [`Session::explain`]). This is the
    /// request-scoped entry point the HTTP service uses: the guard
    /// carries the request's clamped [`feo_rdf::governor::Budget`] and
    /// its disconnect [`feo_rdf::CancelFlag`], so an abandoned or
    /// over-budget query stops with a typed [`EngineError::Exhausted`]
    /// instead of holding its connection thread.
    pub fn query_opts(
        &mut self,
        sparql: &str,
        opts: &ExplainOptions<'a>,
    ) -> Result<QueryResult, EngineError> {
        self.guard = opts.guard;
        self.query(sparql)
    }

    /// Answers a question with the matching explanation type, under the
    /// guard carried by [`ExplainOptions`] (which sticks for the rest of
    /// this session).
    pub fn explain(
        &mut self,
        question: &Question,
        opts: &ExplainOptions<'a>,
    ) -> Result<Explanation, EngineError> {
        self.guard = opts.guard;
        let (bindings, statements, answer) = match question {
            Question::WhyEat { food } => self.contextual(question, food),
            Question::WhyEatOver {
                preferred,
                alternative,
            } => self.contrastive(question, preferred, alternative),
            Question::WhatIf { hypothesis } => self.counterfactual(question, hypothesis),
            Question::WhatSteps { food } => self.trace_based(food),
            Question::WhatOtherUsers { food } => self.case_based(food),
            Question::WhyGenerally { food } => self.knowledge_based(food, EVERYDAY_RECORD),
            Question::WhatLiterature { food } => self.knowledge_based(food, SCIENTIFIC_RECORD),
            Question::WhatIfEatenDaily { food } => self.simulation(food),
            Question::WhatEvidenceForDiet { diet } => self.statistical(diet),
        }?;
        Ok(Explanation {
            question: question.clone(),
            explanation_type: question.explanation_type(),
            bindings,
            statements,
            answer,
        })
    }

    pub(super) fn require_recipe(&self, food: &str) -> Result<(), EngineError> {
        if self.base.kg.recipe(food).is_none() && self.base.kg.ingredient(food).is_none() {
            return Err(EngineError::UnknownEntity(food.to_string()));
        }
        Ok(())
    }

    /// Asserts the question into the overlay and re-closes incrementally:
    /// the precompiled rules run semi-naïvely from the delta, which is
    /// equivalent to the paper's full "export with inferred axioms" over
    /// the extended graph because the base is already closed and the
    /// question triples are pure ABox.
    pub(super) fn assert_and_close(&mut self, question: &Question) -> Result<(), EngineError> {
        assert_question(question, &mut self.overlay);
        let base = self.base;
        let (closed, tripped) = match base.close(&mut self.overlay, &base.rules, self.guard) {
            Ok(closed) => (closed, None),
            // Keep the partial closure's statistics: the derived triples
            // are already in the overlay (sound but incomplete), and the
            // degradation report should account for them.
            Err(ReasonerError::Exhausted { exhausted, partial }) => (*partial, Some(exhausted)),
        };
        self.inference.rounds += closed.rounds;
        absorb(&mut self.inference, closed);
        tripped.map_or(Ok(()), |exhausted| Err(EngineError::Exhausted(exhausted)))
    }
}
