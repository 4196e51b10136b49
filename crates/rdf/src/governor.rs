//! Execution governor: budgets, deadlines, and cooperative cancellation.
//!
//! Production triple stores treat query limits and typed resource-limit
//! errors as table stakes — a single pathological ontology or query must
//! not take the whole engine down. This module is the shared vocabulary
//! for that contract across the workspace: a [`Budget`] describes the
//! resources one execution may consume, a [`Guard`] is the live meter the
//! hot loops of the Turtle/N-Triples parsers, the OWL materializer, and
//! the SPARQL evaluator all check, and [`Exhausted`] is the typed error
//! every layer returns instead of looping or panicking when a limit trips.
//!
//! The guard is designed to cost (almost) nothing on the happy path:
//! counter bumps are relaxed atomic increments, and the wall clock is
//! only consulted every [`TIME_CHECK_INTERVAL`] ticks. A guard started
//! from an unlimited budget short-circuits every check. Because the
//! counters are atomics the guard is `Sync`: a batch of questions
//! fanned out over the worker pool (see [`crate::pool`]) shares one
//! `&Guard` across its threads, so a budget covers the whole batch, not
//! one thread's slice.
//!
//! ```
//! use std::time::Duration;
//! use feo_rdf::governor::{Budget, Resource};
//!
//! let budget = Budget::new()
//!     .with_deadline(Duration::from_millis(50))
//!     .with_max_inferred(10_000);
//! let guard = budget.start();
//! assert!(guard.add_inferred(9_999).is_ok());
//! let err = guard.add_inferred(2).unwrap_err();
//! assert_eq!(err.resource, Resource::InferredTriples);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many guard ticks elapse between actual wall-clock reads.
/// `Instant::now()` is a syscall-ish operation; amortizing it keeps the
/// governor's happy-path overhead under the workspace's 2% target.
pub const TIME_CHECK_INTERVAL: u64 = 256;

/// The resource whose budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    WallClock,
    /// The materializer derived more triples than allowed.
    InferredTriples,
    /// The reasoner's fixpoint used more outer rounds than allowed.
    Rounds,
    /// The query evaluator produced more join rows / solutions than
    /// allowed.
    Solutions,
    /// An input document exceeded the size cap before parsing began.
    InputSize,
    /// The shared cancellation flag was raised.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::WallClock => "wall-clock deadline",
            Resource::InferredTriples => "inferred-triple budget",
            Resource::Rounds => "fixpoint-round budget",
            Resource::Solutions => "solution budget",
            Resource::InputSize => "input-size cap",
            Resource::Cancelled => "cancellation",
        })
    }
}

/// A budget tripped: `spent` of `limit` units of `resource` were used.
///
/// For [`Resource::WallClock`] the units are milliseconds; for
/// [`Resource::Cancelled`] both figures are zero (there is nothing to
/// count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    pub resource: Resource,
    pub spent: u64,
    pub limit: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "execution cancelled"),
            Resource::WallClock => write!(
                f,
                "{} exhausted: {} ms spent of {} ms allowed",
                self.resource, self.spent, self.limit
            ),
            _ => write!(
                f,
                "{} exhausted: {} spent of {} allowed",
                self.resource, self.spent, self.limit
            ),
        }
    }
}

impl std::error::Error for Exhausted {}

/// A cloneable cancellation flag shared between a running execution and
/// whoever may want to stop it (another thread, a timeout reaper, a
/// request handler whose client disconnected).
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Raises the flag; every guard sharing it trips with
    /// [`Resource::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declarative resource limits for one execution. `None` means
/// unlimited. Construct with [`Budget::new`] (unlimited) and narrow with
/// the `with_*` builders; call [`Budget::start`] to obtain the live
/// [`Guard`] the pipeline layers check.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    pub deadline: Option<Duration>,
    pub max_inferred: Option<u64>,
    pub max_rounds: Option<u64>,
    pub max_solutions: Option<u64>,
    pub max_input_bytes: Option<u64>,
    pub cancel: Option<CancelFlag>,
}

impl Budget {
    /// An unlimited budget: every check is a no-op.
    pub fn new() -> Self {
        Budget::default()
    }

    /// Wall-clock deadline for the whole execution (reasoning + queries).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Cap on triples the materializer may derive.
    pub fn with_max_inferred(mut self, n: u64) -> Self {
        self.max_inferred = Some(n);
        self
    }

    /// Cap on reasoner fixpoint rounds.
    pub fn with_max_rounds(mut self, n: u64) -> Self {
        self.max_rounds = Some(n);
        self
    }

    /// Cap on join rows / solutions the SPARQL evaluator may produce.
    pub fn with_max_solutions(mut self, n: u64) -> Self {
        self.max_solutions = Some(n);
        self
    }

    /// Cap on the byte length of parsed input documents.
    pub fn with_max_input_bytes(mut self, n: u64) -> Self {
        self.max_input_bytes = Some(n);
        self
    }

    /// Attaches a shared cancellation flag.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no limit is set and no cancel flag is attached.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_inferred.is_none()
            && self.max_rounds.is_none()
            && self.max_solutions.is_none()
            && self.max_input_bytes.is_none()
            && self.cancel.is_none()
    }

    /// Starts the clock and returns the live guard for this execution.
    pub fn start(&self) -> Guard {
        let now = Instant::now();
        Guard {
            started: now,
            deadline: self.deadline,
            max_inferred: self.max_inferred,
            max_rounds: self.max_rounds,
            max_solutions: self.max_solutions,
            max_input_bytes: self.max_input_bytes,
            cancel: self.cancel.clone(),
            unlimited: self.is_unlimited(),
            inferred: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            solutions: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }
}

/// The live meter for one execution, shared by reference across every
/// pipeline layer (parser → reasoner → evaluator). Counters are relaxed
/// atomics so read-only evaluation paths can tick through `&Guard` and
/// the questions of one batch can charge one shared guard from several
/// worker threads: totals stay exact under concurrent charging, and
/// whichever thread pushes a counter past its limit observes the trip. Cooperative
/// cross-thread interruption additionally goes through the
/// [`CancelFlag`].
#[derive(Debug)]
pub struct Guard {
    started: Instant,
    deadline: Option<Duration>,
    max_inferred: Option<u64>,
    max_rounds: Option<u64>,
    max_solutions: Option<u64>,
    max_input_bytes: Option<u64>,
    cancel: Option<CancelFlag>,
    unlimited: bool,
    inferred: AtomicU64,
    rounds: AtomicU64,
    solutions: AtomicU64,
    ticks: AtomicU64,
}

impl Default for Guard {
    /// An unlimited guard (every check is a no-op).
    fn default() -> Self {
        Budget::new().start()
    }
}

impl Guard {
    /// Cheap hot-loop check: bumps the tick counter and consults the
    /// wall clock / cancel flag only every [`TIME_CHECK_INTERVAL`] ticks.
    #[inline]
    pub fn check_time(&self) -> Result<(), Exhausted> {
        if self.unlimited {
            return Ok(());
        }
        let t = self.ticks.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if !t.is_multiple_of(TIME_CHECK_INTERVAL) {
            return Ok(());
        }
        self.check_time_now()
    }

    /// Unamortized check: consults the wall clock and cancel flag
    /// immediately. Use at coarse boundaries (per statement, per round,
    /// per query) where the call frequency is low.
    pub fn check_time_now(&self) -> Result<(), Exhausted> {
        if self.unlimited {
            return Ok(());
        }
        if let Some(flag) = &self.cancel {
            if flag.is_cancelled() {
                return Err(Exhausted {
                    resource: Resource::Cancelled,
                    spent: 0,
                    limit: 0,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(Exhausted {
                    resource: Resource::WallClock,
                    spent: elapsed.as_millis() as u64,
                    limit: deadline.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Records `n` newly inferred triples; trips on the inference budget
    /// and (amortized) on the deadline.
    #[inline]
    pub fn add_inferred(&self, n: u64) -> Result<(), Exhausted> {
        if self.unlimited {
            return Ok(());
        }
        let total = self.inferred.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.max_inferred {
            if total > limit {
                return Err(Exhausted {
                    resource: Resource::InferredTriples,
                    spent: total,
                    limit,
                });
            }
        }
        self.check_time()
    }

    /// Records one fixpoint round; trips on the round budget and checks
    /// the clock unamortized (rounds are coarse).
    pub fn add_round(&self) -> Result<(), Exhausted> {
        if self.unlimited {
            return Ok(());
        }
        let total = self.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.max_rounds {
            if total > limit {
                return Err(Exhausted {
                    resource: Resource::Rounds,
                    spent: total,
                    limit,
                });
            }
        }
        self.check_time_now()
    }

    /// Records `n` join rows / solutions produced by the evaluator;
    /// trips on the solution budget and (amortized) on the deadline.
    #[inline]
    pub fn add_solutions(&self, n: u64) -> Result<(), Exhausted> {
        if self.unlimited {
            return Ok(());
        }
        let total = self.solutions.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.max_solutions {
            if total > limit {
                return Err(Exhausted {
                    resource: Resource::Solutions,
                    spent: total,
                    limit,
                });
            }
        }
        self.check_time()
    }

    /// Checks an input document's byte length against the input cap.
    pub fn check_input(&self, bytes: usize) -> Result<(), Exhausted> {
        if let Some(limit) = self.max_input_bytes {
            if bytes as u64 > limit {
                return Err(Exhausted {
                    resource: Resource::InputSize,
                    spent: bytes as u64,
                    limit,
                });
            }
        }
        self.check_time_now()
    }

    /// Wall-clock time since [`Budget::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn inferred_spent(&self) -> u64 {
        self.inferred.load(Ordering::Relaxed)
    }

    pub fn rounds_spent(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    pub fn solutions_spent(&self) -> u64 {
        self.solutions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let guard = Budget::new().start();
        for _ in 0..10_000 {
            assert!(guard.check_time().is_ok());
            assert!(guard.add_inferred(1_000).is_ok());
            assert!(guard.add_solutions(1_000).is_ok());
        }
        assert!(guard.add_round().is_ok());
        assert!(guard.check_input(usize::MAX).is_ok());
    }

    #[test]
    fn inferred_budget_trips_with_counts() {
        let guard = Budget::new().with_max_inferred(10).start();
        assert!(guard.add_inferred(10).is_ok());
        let err = guard.add_inferred(5).unwrap_err();
        assert_eq!(err.resource, Resource::InferredTriples);
        assert_eq!(err.spent, 15);
        assert_eq!(err.limit, 10);
    }

    #[test]
    fn round_budget_trips() {
        let guard = Budget::new().with_max_rounds(2).start();
        assert!(guard.add_round().is_ok());
        assert!(guard.add_round().is_ok());
        let err = guard.add_round().unwrap_err();
        assert_eq!(err.resource, Resource::Rounds);
    }

    #[test]
    fn solutions_budget_trips() {
        let guard = Budget::new().with_max_solutions(100).start();
        assert!(guard.add_solutions(100).is_ok());
        let err = guard.add_solutions(1).unwrap_err();
        assert_eq!(err.resource, Resource::Solutions);
    }

    #[test]
    fn input_cap_trips_before_parsing() {
        let guard = Budget::new().with_max_input_bytes(16).start();
        assert!(guard.check_input(16).is_ok());
        let err = guard.check_input(17).unwrap_err();
        assert_eq!(err.resource, Resource::InputSize);
    }

    #[test]
    fn deadline_trips_once_elapsed() {
        let guard = Budget::new()
            .with_deadline(Duration::from_millis(0))
            .start();
        std::thread::sleep(Duration::from_millis(2));
        let err = guard.check_time_now().unwrap_err();
        assert_eq!(err.resource, Resource::WallClock);
        // The amortized path reaches the same verdict within one
        // interval's worth of ticks.
        let mut tripped = false;
        for _ in 0..=TIME_CHECK_INTERVAL {
            if guard.check_time().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let flag = CancelFlag::new();
        let guard = Budget::new().with_cancel(flag.clone()).start();
        assert!(guard.check_time_now().is_ok());
        let remote = flag.clone();
        remote.cancel();
        let err = guard.check_time_now().unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
    }

    #[test]
    fn display_names_the_resource() {
        let e = Exhausted {
            resource: Resource::Solutions,
            spent: 101,
            limit: 100,
        };
        let s = e.to_string();
        assert!(s.contains("solution budget"), "{s}");
        assert!(s.contains("101"), "{s}");
    }
}
