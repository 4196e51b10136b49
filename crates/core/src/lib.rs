//! # feo-core
//!
//! The paper's primary contribution: the FEO explanation engine.
//!
//! Given a food knowledge graph, a user profile, and the system context,
//! the engine assembles the FEO ontology stack, materializes it with the
//! OWL reasoner, and answers user questions with typed explanations —
//! the three evaluated competency-question types (contextual,
//! contrastive, counterfactual; paper §V) plus the six future-work types
//! (§VI) implemented as extensions (trace-based, case-based, everyday,
//! scientific, simulation-based, statistical).
//!
//! One type builds the world: [`EngineBase`] assembles, materializes
//! and seals it as epoch 0 of a ledger. Every question is answered in a
//! throwaway [`Session`] over one epoch of that ledger, so a base behind
//! an `Arc` serves any number of threads.
//!
//! ```
//! use feo_core::{EngineBase, ExplainOptions, Question};
//! use feo_foodkg::{curated, Season, SystemContext, UserProfile};
//!
//! let user = UserProfile::new("u").allergies(&["Broccoli"]);
//! let ctx = SystemContext::new(Season::Autumn);
//! let base = EngineBase::new(curated(), user, ctx)?;
//! let e = base.explain(
//!     &Question::WhyEat { food: "CauliflowerPotatoCurry".into() },
//!     &ExplainOptions::default(),
//! )?;
//! assert!(e.answer.contains("current season"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
pub mod competency;
pub mod ecosystem;
mod engine;
pub mod explanation;
pub mod factfoil;
pub mod json;
pub mod knowledge;
pub mod queries;
pub mod question;
pub mod scenarios;

pub use cache::PlanCacheStats;
pub use engine::{
    BranchDiff, BranchInfo, BudgetedOutcome, CommitInfo, DegradationReport, EngineBase,
    EngineError, ExplainOptions, Session,
};
pub use explanation::{humanize, Explanation};
pub use factfoil::{classify, figure3_matrix, Classification};
pub use json::ToJson;
pub use knowledge::Population;
pub use question::{ExplanationType, Hypothesis, Question};
pub use scenarios::{all_scenarios, scenario_a, scenario_b, scenario_c, Scenario};

// `ExplainOptions::parallelism`, the ledger handle types, and the
// persistent-store types surfaced by `EngineBase::{open, save_to}` are
// part of this crate's public API; re-export them so callers don't need
// a separate feo-rdf import.
pub use feo_rdf::{BaseStore, DiskStore, EpochId, Ledger, LedgerView, Parallelism, StoreError};
