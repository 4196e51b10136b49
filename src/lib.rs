//! # feo — Food Explanation Ontology, reproduced in Rust
//!
//! Umbrella crate re-exporting the full stack built for the reproduction of
//! *"Semantic Modeling for Food Recommendation Explanations"* (ICDE 2021):
//!
//! - [`rdf`] — RDF term model, indexed triple store, Turtle/N-Triples;
//! - [`sparql`] — SPARQL 1.1 query engine;
//! - [`owl`] — OWL 2 RL materializing reasoner (Pellet substitute);
//! - [`ontology`] — the EO fragment, FEO, and food TBoxes;
//! - [`foodkg`] — curated + synthetic food knowledge graphs, users;
//! - [`recommender`] — the Health Coach simulator and baseline;
//! - [`core`] — the explanation engine (the paper's contribution);
//! - [`serve`] — the HTTP explanation service (admission control,
//!   load shedding, graceful degradation and shutdown).
//!
//! [`core::EngineBase`] is the one engine type: it builds the world once
//! and answers each question in a throwaway session. The CLI, the HTTP
//! service and the benchmark all go through it.
//!
//! ```
//! use feo::core::{EngineBase, ExplainOptions, Question};
//! use feo::foodkg::{curated, Season, SystemContext, UserProfile};
//!
//! let base = EngineBase::new(
//!     curated(),
//!     UserProfile::new("u"),
//!     SystemContext::new(Season::Autumn),
//! )?;
//! let e = base.explain(
//!     &Question::WhyEat { food: "CauliflowerPotatoCurry".into() },
//!     &ExplainOptions::default(),
//! )?;
//! println!("{}", e.answer);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;

pub use error::FeoError;

pub use feo_core as core;
pub use feo_foodkg as foodkg;
pub use feo_ontology as ontology;
pub use feo_owl as owl;
pub use feo_rdf as rdf;
pub use feo_recommender as recommender;
pub use feo_serve as serve;
pub use feo_sparql as sparql;

/// One-stop imports for the common workflow: build an engine, open
/// sessions, meter them with budgets, and tune query execution.
///
/// ```
/// use feo::prelude::*;
///
/// let base = EngineBase::new(
///     curated(),
///     UserProfile::new("u"),
///     SystemContext::new(Season::Autumn),
/// )?;
/// let e = base.explain(
///     &Question::WhyEat { food: "CauliflowerPotatoCurry".into() },
///     &ExplainOptions::default(),
/// )?;
/// assert!(e.answer.contains("current season"));
/// # Ok::<(), EngineError>(())
/// ```
pub mod prelude {
    pub use crate::core::{
        BranchDiff, BranchInfo, BudgetedOutcome, CommitInfo, DegradationReport, EngineBase,
        EngineError, EpochId, ExplainOptions, Explanation, Hypothesis, PlanCacheStats, Question,
        Session, ToJson,
    };
    pub use crate::error::FeoError;
    pub use crate::foodkg::{curated, Season, SystemContext, UserProfile};
    pub use crate::owl::{MaterializeOptions, Reasoner};
    pub use crate::rdf::governor::{Budget, CancelFlag, Exhausted, Guard};
    pub use crate::rdf::Parallelism;
    pub use crate::serve::{ServeConfig, Server};
    pub use crate::sparql::{QueryOptions, QueryResult};
}
