//! Sample statistics: nearest-rank percentiles, and the
//! quietest-execution profile of a cycle that every gated timing is
//! computed from.

use std::time::Duration;

/// Median of `values` (mean of the middle pair for an even count).
/// `NaN` for an empty slice, so a missing measurement is visible in the
/// output instead of reading as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed round: whole cycles of the workload's schedule.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Schedule position of the round's first operation.
    pub first: u64,
    /// Wall time from the round's start to the end of its last
    /// operation.
    pub wall_s: f64,
    /// Latency of every operation in schedule order, milliseconds;
    /// `NaN` for one that failed or answered wrongly, which therefore
    /// contributes no sample.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
}

/// Throughput and latency percentiles of a set of samples.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
}

impl Round {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Completed-and-correct operations per second of wall time, and
    /// percentiles over their latencies.
    pub fn stats(&self) -> RoundStats {
        let mut sorted: Vec<f64> = self
            .latencies_ms
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        sorted.sort_by(f64::total_cmp);
        RoundStats {
            ops_per_s: sorted.len() as f64 / self.wall_s,
            p50_ms: percentile(&sorted, 0.50),
            p95_ms: percentile(&sorted, 0.95),
            p99_ms: percentile(&sorted, 0.99),
            samples: sorted.len(),
        }
    }
}

/// Which samples a run's gated timings are computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// For each position of the cycle, its fastest execution.
    Quietest,
    /// Every sample: for a schedule-bound loop, where most of a reply's
    /// latency is where its arrival fell in the server's poll — a
    /// property of the whole sample, not of a quiet moment.
    All,
}

/// Reduces a run's rounds to the samples its gated timings come from.
///
/// The sizing host flips between a quiet and a contended state that
/// each last from a fraction of a second to many seconds and differ by
/// 1.45-1.65x in speed; which state fills most of a 15 s run is luck.
/// Over identical runs the median over 3 s rounds moved 26-33 %, and
/// even the fastest 0.15 s round moved 10-28 % in a bad hour, when some
/// runs held no quiet 0.15 s at all (README, "Host noise"). So
/// `Quietest` keeps, for every position of the workload's cycle, the
/// fastest of its executions — a position is executed 60 to 2000 times
/// a run and needs one quiet millisecond — and reports throughput and
/// percentiles over that one undisturbed cycle. Interference only ever
/// adds time and a position always does the same work, so the fastest
/// execution is the undisturbed cost, not a lucky draw of inputs.
pub fn pooled(rounds: &[Round], pool: Pool, cycle: u64) -> Round {
    match pool {
        Pool::Quietest => {
            let mut fastest = vec![f64::NAN; cycle as usize];
            for round in rounds {
                for (i, latency) in round.latencies_ms.iter().enumerate() {
                    let slot = &mut fastest[((round.first + i as u64) % cycle) as usize];
                    // `min` ignores a NaN operand, so a failed
                    // operation never displaces a sample.
                    *slot = slot.min(*latency);
                }
            }
            Round {
                first: 0,
                wall_s: fastest.iter().sum::<f64>() / 1e3,
                latencies_ms: fastest,
                failed: 0,
            }
        }
        Pool::All => Round {
            first: 0,
            wall_s: rounds.iter().map(|r| r.wall_s).sum(),
            latencies_ms: rounds
                .iter()
                .flat_map(|r| r.latencies_ms.iter().copied())
                .collect(),
            failed: rounds.iter().map(|r| r.failed).sum(),
        },
    }
}

/// Share of rounds whose time per operation is within a tenth of the
/// fastest round's: how much of the run the host left undisturbed.
pub fn quiet_share(rounds: &[Round]) -> f64 {
    let per_op = |r: &Round| r.wall_s / r.attempted().max(1) as f64;
    let fastest = rounds.iter().map(per_op).fold(f64::INFINITY, f64::min);
    let quiet = rounds.iter().filter(|r| per_op(r) <= fastest * 1.1).count();
    quiet as f64 / rounds.len().max(1) as f64
}

/// The lowest of `values`; `NaN` when there are none.
pub fn lowest(values: impl IntoIterator<Item = f64>) -> f64 {
    values
        .into_iter()
        .filter(|v| v.is_finite())
        .reduce(f64::min)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        // Twenty samples: p95 is the 19th, one sample beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.95), 19.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn round_stats_count_only_recorded_samples() {
        let round = Round {
            first: 0,
            wall_s: 2.0,
            latencies_ms: vec![4.0, 1.0, f64::NAN, 3.0, 2.0],
            failed: 1,
        };
        let s = round.stats();
        assert_eq!((round.attempted(), s.samples), (5, 4));
        assert_eq!(s.ops_per_s, 2.0);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.p95_ms, 4.0);
    }

    fn round(first: u64, latencies_ms: &[f64]) -> Round {
        Round {
            first,
            wall_s: latencies_ms.iter().filter(|l| l.is_finite()).sum::<f64>() / 1e3,
            latencies_ms: latencies_ms.to_vec(),
            failed: latencies_ms.iter().filter(|l| l.is_nan()).count() as u64,
        }
    }

    #[test]
    fn quietest_execution_of_each_position_survives_a_mostly_disturbed_run() {
        // A cycle of three operations costing 1, 2 and 6 ms when the
        // host is quiet. Four passes in three rounds; the host is never quiet for a
        // whole pass, but every position meets a quiet moment once.
        let rounds = [
            round(0, &[1.0, 3.1, 9.2]),
            round(3, &[1.5, 2.0, 9.0]),
            round(6, &[1.6, 3.0, 6.0, 1.5, 3.2, 8.8]),
        ];
        let quiet = pooled(&rounds, Pool::Quietest, 3);
        assert_eq!(quiet.latencies_ms, vec![1.0, 2.0, 6.0]);
        let s = quiet.stats();
        assert_eq!((s.samples, s.p50_ms, s.p95_ms), (3, 2.0, 6.0));
        assert!((s.ops_per_s - 3.0 / 0.009).abs() < 1e-6);
        // No round came close: the fastest took 4 ms per operation
        // against the 3 ms of the undisturbed cycle, and two of the
        // three rounds are within a tenth of it.
        assert_eq!(quiet_share(&rounds), 2.0 / 3.0);
        // A schedule-bound loop keeps every sample.
        let all = pooled(&rounds, Pool::All, 3).stats();
        assert_eq!((all.samples, all.p50_ms), (12, 3.0));
    }

    #[test]
    fn quietest_maps_samples_by_schedule_position_and_skips_failures() {
        // A round may start anywhere in the cycle, and a failed
        // operation leaves its position to the other executions.
        let rounds = [
            round(4, &[5.0, f64::NAN, 7.0]),
            round(7, &[0.9, 6.5, f64::NAN]),
        ];
        let quiet = pooled(&rounds, Pool::Quietest, 3);
        // Positions: 4 % 3 = 1, 2, 0 then 7 % 3 = 1, 2, 0.
        assert_eq!(quiet.latencies_ms, vec![7.0, 0.9, 6.5]);
        // A position that never succeeded stays missing.
        let never = pooled(&[round(0, &[1.0, f64::NAN])], Pool::Quietest, 2);
        assert!(never.latencies_ms[1].is_nan());
        assert_eq!(never.stats().samples, 1);
        assert!(pooled(&[], Pool::Quietest, 2).stats().p50_ms.is_nan());
        assert!(lowest([]).is_nan());
        assert_eq!(lowest([2.0, f64::NAN, 1.5]), 1.5);
    }
}
