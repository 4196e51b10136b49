//! # feo-sparql
//!
//! A SPARQL 1.1 query engine over [`feo_rdf::Graph`] — the workspace's
//! substitute for the Jena/ARQ-style engine the paper used to evaluate
//! its competency questions (§IV–§V).
//!
//! Pipeline: lexer → [`parser`] → cost-based planning ([`plan`]) →
//! evaluation ([`eval`]) with solution sets. Supported: SELECT / ASK /
//! CONSTRUCT, BGPs in one statistics-driven join order (EXISTS bodies
//! included), OPTIONAL, UNION, MINUS,
//! FILTER (incl. EXISTS / NOT EXISTS), BIND, VALUES, property paths
//! (`^ / | * + ?` and negated sets), the builtin function library,
//! GROUP BY with aggregates, HAVING, ORDER BY, DISTINCT / REDUCED,
//! LIMIT / OFFSET.
//!
//! The single entry point is [`query`] / [`execute`] with
//! [`QueryOptions`] carrying the governor guard and EXPLAIN mode:
//!
//! ```
//! use feo_rdf::Graph;
//! use feo_rdf::turtle::parse_turtle_into;
//! use feo_sparql::query;
//!
//! let mut g = Graph::new();
//! parse_turtle_into(r#"
//!     @prefix feo: <https://purl.org/heals/feo#> .
//!     feo:Autumn a feo:SeasonCharacteristic .
//! "#, &mut g, &Default::default())?;
//! let result = query(&g,
//!     "PREFIX feo: <https://purl.org/heals/feo#>
//!      SELECT ?c WHERE { ?c a feo:SeasonCharacteristic }",
//!     &Default::default())?;
//! let table = result.expect_solutions();
//! assert!(table.contains_local("c", "Autumn"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A query asked many times about different individuals is prepared
//! instead: parsed once ([`parse_query`]), planned once ([`plan_seeded`]),
//! and run with [`execute_seeded`], its parameters bound by a seed row.

pub mod ast;
pub mod error;
pub mod eval;
mod lexer;
pub mod parser;
pub mod plan;
pub mod regexlite;
pub mod results;
pub mod value;

pub use error::{Result, SparqlError};
pub use eval::{execute, execute_prepared, execute_seeded, join_counters, query, JoinCounters};
pub use parser::parse_query;
pub use plan::{plan_query, plan_seeded, JoinAlgo, Plan, QueryOptions};
pub use results::{QueryResult, SolutionTable};
