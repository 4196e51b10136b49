//! A scoped worker pool for deterministic batch parallelism.
//!
//! Threads exist at one level of the workspace: the *question*.
//! `EngineBase::explain_batch` maps a slice of independent questions
//! over one read-only snapshot, and the server runs one thread per
//! connection; a single closure or a single query always runs on the
//! thread that asked for it. [`map_chunks`] runs the batch shape across
//! `std::thread::scope` workers while keeping the output **byte-identical
//! to the sequential run**: the input slice is split into contiguous
//! chunks, each worker processes its chunk in order, and the per-chunk
//! outputs are stitched back together in chunk order. Because every
//! item is processed independently against the same immutable view,
//! concatenating chunk outputs in pinned order reproduces exactly the
//! sequence a single thread would have produced.
//!
//! The [`Parallelism`] knob travels on `ExplainOptions` and is read by
//! `explain_batch*` only. `Auto` honours the `FEO_THREADS` environment
//! variable so deployments (and CI) can pin the batch worker count
//! without touching call sites. The variable is read **once per
//! process**, by the first `Auto` resolution: it is a start-up setting,
//! and a server resolving it per request would pay an environment
//! lookup and a re-read of the CPU affinity mask and cgroup quota files
//! on every `/explain`.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Upper bound on workers; protects against absurd `FEO_THREADS` values.
const MAX_WORKERS: usize = 64;

/// How many worker threads a batch of questions may use.
///
/// * `Off` — the whole batch runs on the calling thread.
/// * `Fixed(n)` — exactly `n` workers regardless of environment.
/// * `Auto` — the `FEO_THREADS` environment variable when set, otherwise
///   the machine's available parallelism; resolved once per process
///   (changing the variable after the first resolution has no effect).
///
/// Whatever the setting, results are identical: batch parallelism is a
/// throughput knob, never a semantics knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Sequential execution on the calling thread.
    Off,
    /// Exactly this many workers (values are clamped to `1..=64`).
    Fixed(usize),
    /// `FEO_THREADS` when set, otherwise
    /// `std::thread::available_parallelism`, as of the first resolution.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves the knob to a concrete worker count (≥ 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.clamp(1, MAX_WORKERS),
            Parallelism::Auto => {
                static AUTO: OnceLock<usize> = OnceLock::new();
                *AUTO.get_or_init(|| match env_threads() {
                    Some(n) => n.clamp(1, MAX_WORKERS),
                    None => std::thread::available_parallelism()
                        .map(NonZeroUsize::get)
                        .unwrap_or(1)
                        .min(MAX_WORKERS),
                })
            }
        }
    }

    /// True when the resolved worker count allows actual fan-out.
    pub fn is_parallel(self) -> bool {
        self.workers() > 1
    }
}

/// Reads `FEO_THREADS`; `None` when unset, empty, or unparseable (a
/// malformed value must degrade to the machine default, not panic).
fn env_threads() -> Option<usize> {
    let raw = std::env::var("FEO_THREADS").ok()?;
    let n: usize = raw.trim().parse().ok()?;
    if n == 0 {
        None
    } else {
        Some(n)
    }
}

/// Maps `f` over contiguous chunks of `items` on up to `workers`
/// threads and returns the per-chunk outputs **in chunk order**.
///
/// `f` receives `(chunk_start_index, chunk_slice)` so callers can
/// recover global item positions. With `workers <= 1`, or fewer items
/// than workers, `f` runs once inline on the calling thread — the
/// sequential fast path that keeps `Parallelism::Off` overhead at zero.
///
/// Chunk boundaries never influence the *content* of the result:
/// callers must make `f` item-local (each item processed independently
/// against shared read-only state), and then
/// `concat(map_chunks(...)) == f(0, items)` for every worker count.
///
/// If the OS refuses to spawn a thread the remaining chunks simply run
/// on the calling thread — degraded throughput, never an error. A
/// panicking worker propagates its panic to the caller after the scope
/// joins (workers in this workspace return typed errors instead of
/// panicking, so this is a backstop, not a channel).
pub fn map_chunks<I, T, F>(workers: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &[I]) -> T + Sync,
{
    let n = items.len();
    if workers <= 1 || n < workers {
        if n == 0 {
            return Vec::new();
        }
        return vec![f(0, items)];
    }
    let workers = workers.min(MAX_WORKERS);
    let chunk = n.div_ceil(workers);
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect();

    let mut out: Vec<Option<T>> = Vec::with_capacity(bounds.len());
    for _ in 0..bounds.len() {
        out.push(None);
    }
    std::thread::scope(|scope| {
        let fref = &f;
        let mut pending: Vec<(usize, std::thread::ScopedJoinHandle<'_, T>)> = Vec::new();
        // Chunk 0 runs on the calling thread; the rest fan out. A failed
        // spawn falls back to inline execution of that chunk.
        let mut inline: Vec<usize> = vec![0];
        for (idx, &(lo, hi)) in bounds.iter().enumerate().skip(1) {
            let spawned = std::thread::Builder::new()
                .name(format!("feo-pool-{idx}"))
                .spawn_scoped(scope, move || fref(lo, &items[lo..hi]));
            match spawned {
                Ok(handle) => pending.push((idx, handle)),
                Err(_) => inline.push(idx),
            }
        }
        for idx in inline {
            let (lo, hi) = bounds[idx];
            out[idx] = Some(f(lo, &items[lo..hi]));
        }
        for (idx, handle) in pending {
            match handle.join() {
                Ok(v) => out[idx] = Some(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_resolves_to_one_worker() {
        assert_eq!(Parallelism::Off.workers(), 1);
        assert!(!Parallelism::Off.is_parallel());
    }

    #[test]
    fn fixed_is_clamped() {
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(4).workers(), 4);
        assert_eq!(Parallelism::Fixed(10_000).workers(), MAX_WORKERS);
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn auto_resolves_once_per_process() {
        let first = Parallelism::Auto.workers();
        assert!((1..=MAX_WORKERS).contains(&first));
        for _ in 0..3 {
            assert_eq!(Parallelism::Auto.workers(), first);
        }
    }

    #[test]
    fn map_chunks_preserves_sequential_order() {
        let items: Vec<u64> = (0..1000).collect();
        let sequential: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 4, 7, 8] {
            let chunks = map_chunks(workers, &items, |_, chunk| {
                chunk.iter().map(|x| x * 3).collect::<Vec<u64>>()
            });
            let merged: Vec<u64> = chunks.into_iter().flatten().collect();
            assert_eq!(merged, sequential, "workers={workers}");
        }
    }

    #[test]
    fn map_chunks_reports_global_offsets() {
        let items: Vec<u32> = (0..100).collect();
        let chunks = map_chunks(4, &items, |start, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| (start + i, v))
                .collect::<Vec<_>>()
        });
        for (pos, v) in chunks.into_iter().flatten() {
            assert_eq!(pos as u32, v);
        }
    }

    #[test]
    fn small_inputs_stay_inline() {
        let items = [1u8];
        let chunks = map_chunks(8, &items, |start, chunk| (start, chunk.len()));
        assert_eq!(chunks, vec![(0, 1)]);
        let none: Vec<(usize, usize)> = map_chunks(8, &[] as &[u8], |s, c| (s, c.len()));
        assert!(none.is_empty());
    }

    #[test]
    fn guard_is_shareable_across_workers() {
        use crate::governor::Budget;
        let guard = Budget::new().with_max_solutions(10_000_000).start();
        let items: Vec<u32> = (0..4096).collect();
        let chunks = map_chunks(4, &items, |_, chunk| {
            for _ in chunk {
                guard.add_solutions(1).map_err(|e| e.resource).ok();
            }
            chunk.len()
        });
        let total: usize = chunks.into_iter().sum();
        assert_eq!(total, 4096);
        assert_eq!(guard.solutions_spent(), 4096);
    }
}
