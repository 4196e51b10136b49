//! # feo-serve
//!
//! A dependency-free HTTP/1.1 service wrapping [`feo_core::EngineBase`]
//! — the paper's explanation engine, operated the way a production
//! recommender would actually run it: as a shared, long-lived service
//! with strangers on the other end of the socket.
//!
//! The design extends the execution governor (`feo_rdf::governor`)
//! from "bound one call" to "bound a fleet of callers":
//!
//! - **Admission control** ([`admission::Admission`]): a global
//!   in-flight cap, a bounded queue with deadline-based shedding, and
//!   per-tenant token buckets. Overload produces fast, honest `429`s
//!   with `Retry-After` — never a timeout pile-up.
//! - **Graceful degradation**: every request runs under a [`Budget`]
//!   clamped to server ceilings; a tripped budget returns `206
//!   Partial Content` with the engine's `DegradationReport`, so
//!   clients see *which* explanations they got and *why* the rest
//!   were skipped.
//! - **Cancellation**: one watcher thread per server peeks the
//!   sockets of the in-flight requests and flips a request's
//!   `CancelFlag` when its client disconnects, aborting the work at
//!   the governor's next check.
//! - **Graceful shutdown**: SIGTERM/SIGINT stop the accept loop,
//!   `/ready` flips to `503`, in-flight requests drain up to a
//!   deadline, stragglers are cancelled, and the process exits 0.
//!
//! Everything is `std`-only: `TcpListener` + thread-per-connection,
//! hand-rolled HTTP framing ([`http`]), and JSON read and written by
//! `feo_core::json` (re-exported here as [`Json`]). No async runtime, no serde, no `libc` crate: the three
//! system calls `std` lacks (`signal`, `poll`, a non-blocking `recv`
//! peek) are declared by hand. A request's path through the transport
//! neither sleeps nor spawns — a connection is accepted when it
//! arrives and a response is one `write` on a `TCP_NODELAY` socket —
//! so a served explanation costs what the engine costs.
//!
//! ```no_run
//! use std::sync::Arc;
//! use feo_core::EngineBase;
//! use feo_foodkg::{curated, Season, SystemContext, UserProfile};
//! use feo_serve::{ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = Arc::new(EngineBase::new(
//!     curated(),
//!     UserProfile::new("u"),
//!     SystemContext::new(Season::Autumn),
//! )?);
//! let handle = Server::spawn(base, ServeConfig::default())?;
//! println!("listening on {}", handle.addr());
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod http;
pub mod server;
pub mod shutdown;
mod sys;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, Shed, TenantStats};
pub use feo_core::json::Json;
pub use http::{Request, Response};
pub use server::{DrainOutcome, ServeConfig, ServeError, Server, ServerHandle};

// The budget types a caller needs to configure the service.
pub use feo_rdf::{Budget, CancelFlag, Parallelism};
