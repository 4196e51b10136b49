//! # feo-owl
//!
//! OWL 2 axiom extraction and a forward-chaining materializing reasoner —
//! the workspace's substitute for the Pellet reasoner used by the paper
//! ("we use a reasoner known to handle individuals more efficiently, and
//! we thus use the Pellet reasoner", §IV).
//!
//! The paper's pipeline runs the reasoner once, exports the ontology with
//! its inferred axioms, then evaluates SPARQL competency questions over
//! the export. [`Reasoner::materialize`] performs that export step in
//! place on a [`feo_rdf::Graph`].
//!
//! The implemented fragment is OWL 2 RL over named individuals — complete
//! for everything the FEO ontology exercises: class/property hierarchies
//! with multiple inheritance, inverse and transitive properties,
//! domain/range, and `owl:equivalentClass` definitions built from
//! `someValuesFrom` / `hasValue` / `intersectionOf` restrictions (the
//! `eo:Fact` / `eo:Foil` machinery of the paper's Figure 3).
//!
//! ```
//! use feo_rdf::{Graph, GraphView};
//! use feo_rdf::turtle::parse_turtle_into;
//! use feo_owl::Reasoner;
//!
//! let mut g = Graph::new();
//! parse_turtle_into(r#"
//!     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!     @prefix e: <http://e/> .
//!     e:SeasonCharacteristic rdfs:subClassOf e:SystemCharacteristic .
//!     e:SystemCharacteristic rdfs:subClassOf e:Characteristic .
//!     e:Autumn a e:SeasonCharacteristic .
//! "#, &mut g, &Default::default())?;
//! let result = Reasoner::new().materialize(&mut g, &Default::default())?;
//! assert!(result.is_consistent());
//! // Autumn is now also typed as Characteristic.
//! let autumn = g.lookup_iri("http://e/Autumn").ok_or("Autumn is in the graph")?;
//! let ty = g.lookup_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type").ok_or("rdf:type is")?;
//! let characteristic = g.lookup_iri("http://e/Characteristic").ok_or("so is the class")?;
//! assert!(g.contains_ids(autumn, ty, characteristic));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod axiom;
pub mod extract;
pub mod proof;
pub mod reasoner;

pub use axiom::{Axiom, ClassExpr, Ontology};
pub use extract::{extract_axioms, SCHEMA_PREDICATES};
pub use proof::{proof, ProofNode};
pub use reasoner::{
    CompiledRules, Derivation, Inconsistency, InconsistencyKind, InferenceResult,
    MaterializeOptions, ReadSet, Reasoner, ReasonerError, ReasonerOptions,
};
