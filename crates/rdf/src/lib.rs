//! # feo-rdf
//!
//! RDF 1.1 substrate for the FEO (Food Explanation Ontology) reproduction:
//! a term model, an interning dictionary, an indexed in-memory triple
//! store, and Turtle / N-Triples I/O.
//!
//! The paper this workspace reproduces ("Semantic Modeling for Food
//! Recommendation Explanations", ICDE 2021) assumes a standard semantic-web
//! stack. Rust lacks one, so this crate provides the storage layer every
//! other crate builds on:
//!
//! - [`term`] — IRIs, blank nodes, literals, triples;
//! - [`intern`] — Term ↔ dense-id dictionary;
//! - [`graph`] — SPO/POS/OSP-indexed in-memory triple store;
//! - [`view`] — the read and write traits every store implements
//!   (pattern matching, RDF collection helpers) and the overlay;
//! - [`access_path`] — which of the three orders answers a pattern, for
//!   every store;
//! - [`turtle`] / [`ntriples`] — parsers and serializers;
//! - [`vocab`] — RDF/RDFS/OWL/XSD vocabulary constants.
//!
//! ## Example
//!
//! ```
//! use feo_rdf::graph::Graph;
//! use feo_rdf::turtle::parse_turtle_into;
//!
//! let mut g = Graph::new();
//! parse_turtle_into(
//!     "@prefix feo: <https://purl.org/heals/feo#> .
//!      feo:Autumn a feo:SeasonCharacteristic .",
//!     &mut g,
//!     &feo_rdf::ParseOptions::default(),
//! ).unwrap();
//! assert_eq!(g.len(), 1);
//! ```

pub mod disk;
pub mod governor;
pub mod graph;
mod index;
pub mod intern;
pub mod ledger;
pub mod ntriples;
pub mod pool;
pub mod stats;
pub mod term;
pub mod turtle;
pub mod view;
pub mod vocab;

pub use disk::{DiskStore, OpenOptions, OpenedStore, Segment, StoreError, WalRecord};
pub use governor::{Budget, CancelFlag, Exhausted, Guard, Resource};
pub use graph::{Graph, IdTriple};
pub use index::{access_path, Rotation};
pub use intern::{Interner, TermId};
pub use ledger::{BaseStore, BranchChain, EpochId, Layer, Ledger, LedgerView};
pub use pool::Parallelism;
pub use stats::{GraphStats, PredicateStats};
pub use term::{BlankNode, Iri, Literal, Term, Triple};
pub use view::{GraphStore, GraphView, Overlay};

use std::fmt;
use turtle::TurtleError;

/// Options accepted by the parser entry points
/// ([`turtle::parse_turtle`], [`ntriples::parse_ntriples`] and their
/// `_into` forms). `Default` parses unguarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions<'a> {
    /// Execution governor: when set, the input-size cap is checked up
    /// front and the deadline / cancellation flag during parsing. A
    /// tripped budget surfaces as [`RdfError::Exhausted`].
    pub guard: Option<&'a Guard>,
}

impl<'a> ParseOptions<'a> {
    /// Options parsing under `guard`.
    pub fn guarded(guard: &'a Guard) -> Self {
        ParseOptions { guard: Some(guard) }
    }
}

/// Error surface of the guarded parser entry points: either a syntax
/// error with its 1-based line/column, or a tripped execution budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// Malformed input; carries the parser's line/column location.
    Syntax(TurtleError),
    /// An execution budget tripped before parsing finished.
    Exhausted(Exhausted),
    /// A persistent-store failure: I/O, corruption, or an incompatible
    /// on-disk format version.
    Store(StoreError),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::Syntax(e) => e.fmt(f),
            RdfError::Exhausted(e) => e.fmt(f),
            RdfError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RdfError {}

impl From<TurtleError> for RdfError {
    fn from(e: TurtleError) -> Self {
        RdfError::Syntax(e)
    }
}

impl From<Exhausted> for RdfError {
    fn from(e: Exhausted) -> Self {
        RdfError::Exhausted(e)
    }
}

impl From<StoreError> for RdfError {
    fn from(e: StoreError) -> Self {
        RdfError::Store(e)
    }
}
