//! The five workloads and the run shape they share: set-up → one
//! untimed warm-up cycle → timed rounds of whole cycles on a
//! deterministic schedule, with throwaway set-ups in between so set-up
//! time is sampled across the whole run.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use feo_core::ecosystem::apply_hypothesis;
use feo_core::{EngineBase, ExplainOptions, Hypothesis};
use feo_foodkg::UserProfile;
use feo_serve::{ServeConfig, Server, ServerHandle};

use crate::http::{one_shot, Client};
use crate::inputs::{CycleEntry, QueryEntry, World};
use crate::stats::{ms, Pool, Round};

pub const WORKLOADS: [&str; 5] = [
    "explain_inproc",
    "explain_http",
    "explain_http_open",
    "query_scan",
    "commit_mixed",
];

/// Arrival rate of the gated open loop, requests per second.
pub const OPEN_RATE: f64 = 50.0;
/// The open loop cycles through the first quarter of the question
/// cycle: at 50 req/s a full cycle would make a round 2.6 s long.
pub const OPEN_CYCLE: usize = 32;
/// Sender threads of the open loop: request `k` belongs to sender
/// `k % OPEN_SENDERS`, so one slow reply does not delay the next send.
pub const OPEN_SENDERS: usize = 2;
/// `commit_mixed` folds the WAL back into the segment this often: one
/// sawtooth of 16 commits and 64 reads takes ~0.2 s, short enough to
/// fall inside one quiet phase of the host.
pub const COMPACT_EVERY: u64 = 16;
/// `commit_mixed` cycle: one commit, then this many explains at head.
pub const READS_PER_COMMIT: u64 = 4;

/// Everything a workload may read: generated inputs and references.
pub struct Inputs {
    pub world: World,
    pub cycle: Vec<CycleEntry>,
    pub queries: Vec<QueryEntry>,
}

/// A round is the fewest whole cycles that hold this many operations.
/// Rounds only pace the throwaway set-ups and the detail output; the
/// gated timings are taken per cycle position.
const ROUND_OPS: u64 = 128;
/// One throwaway set-up per this much measured time.
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// One workload instance, from ready to torn down.
pub trait Workload: Sized {
    /// Which samples the gated timings are computed from.
    const POOL: Pool = Pool::Quietest;

    /// Build → persist/open or spawn → first operation possible. The
    /// caller times this call; `dir` is a fresh directory of its own.
    fn setup(inputs: &Inputs, dir: &Path) -> Self;

    /// Executes step `index` of the endless cyclic schedule. `Ok` means
    /// completed and correct.
    fn step(&mut self, inputs: &Inputs, index: u64) -> Result<(), String>;

    /// Steps in one cycle; the warm-up runs exactly one.
    fn cycle_len(&self, inputs: &Inputs) -> u64 {
        inputs.cycle.len() as u64
    }

    /// One timed round of `ops` steps starting at schedule position
    /// `first`. The default is a closed loop on the calling thread.
    fn round(&mut self, inputs: &Inputs, first: u64, ops: u64) -> Round {
        let mut round = Round {
            first,
            ..Round::default()
        };
        let started = Instant::now();
        for index in first..first + ops {
            let t0 = Instant::now();
            let outcome = self.step(inputs, index);
            let latency = t0.elapsed();
            round.latencies_ms.push(match outcome {
                Ok(()) => ms(latency),
                Err(why) => {
                    round.failed += 1;
                    note_failure(&why);
                    f64::NAN
                }
            });
        }
        round.wall_s = started.elapsed().as_secs_f64();
        round
    }

    /// Tears the instance down; `Err` when a closing check fails.
    fn finish(self, inputs: &Inputs) -> Result<(), String>;
}

/// The first few failures are worth reading; thousands are not.
fn note_failure(why: &str) {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SHOWN: AtomicU32 = AtomicU32::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("failed operation: {why}");
    }
}

/// What one run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub pool: Pool,
    /// Operations in one cycle of the workload's schedule.
    pub cycle: u64,
    /// Failures outside the timed rounds: warm-up and closing checks.
    pub untimed_failures: Vec<String>,
    /// Process CPU seconds spent inside the timed rounds.
    pub cpu_s: f64,
    /// Operations the traced run's layer suite attempted on top of the
    /// rounds (zero in an untraced run).
    pub suite_attempted: u64,
}

/// One timed set-up in a directory of its own.
fn timed_setup<W: Workload>(inputs: &Inputs, scratch: &Path, k: usize) -> (W, f64) {
    let dir = scratch.join(format!("setup-{k}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let started = Instant::now();
    let instance = W::setup(inputs, &dir);
    (instance, started.elapsed().as_secs_f64())
}

/// Runs the shared shape for one workload type, with `measure` of time
/// inside timed rounds.
pub fn run<W: Workload>(inputs: &Inputs, measure: Duration, scratch: &Path) -> Measured {
    let mut untimed_failures = Vec::new();
    let (mut instance, first_setup) = timed_setup::<W>(inputs, scratch, 0);
    let mut setup_s = vec![first_setup];

    let cycle = instance.cycle_len(inputs);
    let round_len = ROUND_OPS.div_ceil(cycle) * cycle;
    for index in 0..cycle {
        if let Err(why) = instance.step(inputs, index) {
            untimed_failures.push(format!("warm-up step {index}: {why}"));
        }
    }

    let mut cpu_s = 0.0;
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut since_setup = Duration::ZERO;
    let mut next = cycle;
    while measured < measure {
        let cpu_before = crate::host::process_cpu_s();
        let round = instance.round(inputs, next, round_len);
        cpu_s += crate::host::process_cpu_s() - cpu_before;
        next += round.attempted();
        let took = Duration::from_secs_f64(round.wall_s);
        measured += took;
        since_setup += took;
        rounds.push(round);

        // Throwaway set-ups spread through the run, one per
        // `SETUP_EVERY` of measured time: the host alternates between
        // quiet and contended phases that last seconds, so set-ups
        // bunched at the start would all land in one phase.
        while since_setup >= SETUP_EVERY {
            since_setup -= SETUP_EVERY;
            let k = setup_s.len();
            let (throwaway, took) = timed_setup::<W>(inputs, scratch, k);
            setup_s.push(took);
            if let Err(why) = throwaway.finish(inputs) {
                untimed_failures.push(format!("set-up {k}: {why}"));
            }
        }
    }

    if let Err(why) = instance.finish(inputs) {
        untimed_failures.push(format!("closing check: {why}"));
    }
    Measured {
        setup_s,
        rounds,
        pool: W::POOL,
        cycle,
        untimed_failures,
        cpu_s,
        suite_attempted: 0,
    }
}

fn entry(inputs: &Inputs, index: u64) -> &CycleEntry {
    &inputs.cycle[(index % inputs.cycle.len() as u64) as usize]
}

fn open_entry(inputs: &Inputs, index: u64) -> &CycleEntry {
    &inputs.cycle[(index % OPEN_CYCLE as u64) as usize]
}

/// In-process `explain` checked against the reference answer.
pub fn explain_checked(base: &EngineBase, entry: &CycleEntry) -> Result<(), String> {
    let explanation = base
        .explain(&entry.question, &ExplainOptions::default())
        .map_err(|e| format!("explain: {e}"))?;
    if explanation.answer == entry.reference_answer {
        Ok(())
    } else {
        Err(format!(
            "wrong answer for {:?}: {:?}",
            entry.question, explanation.answer
        ))
    }
}

/// One query of `qset5` through `Session::query`, row count checked.
pub fn query_checked(base: &EngineBase, q: &QueryEntry) -> Result<(), String> {
    let rows = base
        .session()
        .query(&q.text)
        .map_err(|e| format!("query {}: {e}", q.name))?
        .expect_solutions()
        .len();
    if rows == q.reference_rows {
        Ok(())
    } else {
        Err(format!(
            "query {}: {rows} rows, expected {}",
            q.name, q.reference_rows
        ))
    }
}

/// Saves a freshly booted base into `dir` and reopens it from its
/// memory-mapped segment, WAL attached.
pub fn boot_persist_open(world: &World, dir: &Path) -> EngineBase {
    let mut built = world.boot();
    built.save_to(dir).expect("store saves");
    drop(built);
    EngineBase::open(dir, world.kg.clone(), world.user.clone(), world.ctx.clone())
        .expect("store opens")
}

// ---- explain_inproc ---------------------------------------------------

pub struct ExplainInproc {
    base: EngineBase,
}

impl Workload for ExplainInproc {
    fn setup(inputs: &Inputs, _dir: &Path) -> Self {
        ExplainInproc {
            base: inputs.world.boot(),
        }
    }

    fn step(&mut self, inputs: &Inputs, index: u64) -> Result<(), String> {
        explain_checked(&self.base, entry(inputs, index))
    }

    fn finish(self, _inputs: &Inputs) -> Result<(), String> {
        Ok(())
    }
}

// ---- explain_http / explain_http_open ---------------------------------

/// A server on loopback with every `ServeConfig` option at its default.
pub fn spawn_server(base: Arc<EngineBase>) -> ServerHandle {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    Server::spawn(base, cfg).expect("bind an ephemeral loopback port")
}

pub fn stop_server(server: ServerHandle) -> Result<(), String> {
    match server.shutdown_and_join() {
        Ok(outcome) if outcome.clean => Ok(()),
        Ok(outcome) => Err(format!("unclean drain: {outcome:?}")),
        Err(e) => Err(format!("server: {e}")),
    }
}

/// `POST /explain` on `client`; correct means 200 and a body equal to
/// the in-process outcome's JSON. 206, 429 and 503 are failures.
pub fn post_checked(client: &mut Client, entry: &CycleEntry, close: bool) -> Result<(), String> {
    let reply = client
        .request("POST", "/explain", &entry.body, close)
        .map_err(|e| format!("transport: {e}"))?;
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    if reply.body != entry.reference_json.as_bytes() {
        return Err(format!("body differs for {:?}", entry.question));
    }
    Ok(())
}

fn health_ok(addr: SocketAddr) -> bool {
    matches!(one_shot(addr, "GET", "/health", ""), Ok(reply) if reply.status == 200)
}

pub struct ExplainHttp {
    server: ServerHandle,
    client: Client,
}

impl Workload for ExplainHttp {
    fn setup(inputs: &Inputs, _dir: &Path) -> Self {
        let server = spawn_server(Arc::new(inputs.world.boot()));
        let mut client = Client::connect(server.addr()).expect("connect to loopback server");
        let ready = client
            .request("GET", "/health", "", false)
            .expect("health probe");
        assert_eq!(ready.status, 200, "server not healthy after spawn");
        ExplainHttp { server, client }
    }

    fn step(&mut self, inputs: &Inputs, index: u64) -> Result<(), String> {
        post_checked(&mut self.client, entry(inputs, index), false)
    }

    fn finish(self, _inputs: &Inputs) -> Result<(), String> {
        drop(self.client);
        stop_server(self.server)
    }
}

pub struct ExplainHttpOpen {
    server: ServerHandle,
}

/// One request of the open loop as its sender saw it.
pub struct OpenSample {
    /// Completion time minus due time.
    pub latency: Duration,
    /// Send time minus due time: how late the generator ran.
    pub late: Duration,
    /// When the reply was complete, relative to the round start.
    pub done_at: Duration,
    pub outcome: Result<(), String>,
}

/// Latency of a request that was due at `due`, sent at `sent` and
/// complete at `done`: counted from the due time, so a stalled
/// generator (or a slow previous reply) is charged to the requests it
/// delayed rather than hidden.
pub fn open_latency(due: Duration, sent: Duration, done: Duration) -> (Duration, Duration) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

/// Sends `total` requests, `first..`, at `rate` per second, each on a
/// fresh `Connection: close` connection, from `OPEN_SENDERS` threads.
pub fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    first: u64,
    rate: f64,
    total: u64,
) -> Vec<OpenSample> {
    let started = Instant::now();
    let mut samples: Vec<(u64, OpenSample)> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..OPEN_SENDERS as u64)
            .map(|sender| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut k = sender;
                    while k < total {
                        let due = Duration::from_secs_f64(k as f64 / rate);
                        if let Some(wait) = due.checked_sub(started.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = started.elapsed();
                        let outcome = Client::connect(addr)
                            .map_err(|e| format!("connect: {e}"))
                            .and_then(|mut c| {
                                post_checked(&mut c, open_entry(inputs, first + k), true)
                            });
                        let done = started.elapsed();
                        let (latency, late) = open_latency(due, sent, done);
                        mine.push((
                            k,
                            OpenSample {
                                latency,
                                late,
                                done_at: done,
                                outcome,
                            },
                        ));
                        k += OPEN_SENDERS as u64;
                    }
                    mine
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("open-loop sender panicked"))
            .collect()
    });
    samples.sort_by_key(|(k, _)| *k);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Folds open-loop samples, in schedule order from position `first`,
/// into a round.
pub fn open_round(first: u64, samples: &[OpenSample]) -> Round {
    let mut round = Round {
        first,
        ..Round::default()
    };
    for sample in samples {
        round.wall_s = round.wall_s.max(sample.done_at.as_secs_f64());
        round.latencies_ms.push(match &sample.outcome {
            Ok(()) => ms(sample.latency),
            Err(why) => {
                round.failed += 1;
                note_failure(why);
                f64::NAN
            }
        });
    }
    round
}

impl Workload for ExplainHttpOpen {
    /// Most of a reply's latency is where its arrival fell in the
    /// server's 10 ms accept poll; the fastest execution of a position
    /// would report the lucky arrivals and hide the poll.
    const POOL: Pool = Pool::All;

    fn setup(inputs: &Inputs, _dir: &Path) -> Self {
        let server = spawn_server(Arc::new(inputs.world.boot()));
        assert!(health_ok(server.addr()), "server not healthy after spawn");
        ExplainHttpOpen { server }
    }

    fn cycle_len(&self, _inputs: &Inputs) -> u64 {
        OPEN_CYCLE as u64
    }

    fn step(&mut self, inputs: &Inputs, index: u64) -> Result<(), String> {
        let mut client =
            Client::connect(self.server.addr()).map_err(|e| format!("connect: {e}"))?;
        post_checked(&mut client, open_entry(inputs, index), true)
    }

    fn round(&mut self, inputs: &Inputs, first: u64, ops: u64) -> Round {
        open_round(
            first,
            &open_loop(self.server.addr(), inputs, first, OPEN_RATE, ops),
        )
    }

    fn finish(self, _inputs: &Inputs) -> Result<(), String> {
        stop_server(self.server)
    }
}

// ---- query_scan -------------------------------------------------------

pub struct QueryScan {
    base: EngineBase,
}

impl Workload for QueryScan {
    fn setup(inputs: &Inputs, dir: &Path) -> Self {
        QueryScan {
            base: boot_persist_open(&inputs.world, dir),
        }
    }

    fn cycle_len(&self, inputs: &Inputs) -> u64 {
        inputs.queries.len() as u64
    }

    fn step(&mut self, inputs: &Inputs, index: u64) -> Result<(), String> {
        let query = &inputs.queries[(index % inputs.queries.len() as u64) as usize];
        query_checked(&self.base, query)
    }

    fn finish(self, _inputs: &Inputs) -> Result<(), String> {
        Ok(())
    }
}

// ---- commit_mixed -----------------------------------------------------

pub struct CommitMixed {
    base: EngineBase,
    dir: PathBuf,
    commits: u64,
    /// Epochs on the chain since the last compaction.
    expected_head: u64,
    reads: u64,
}

/// A hypothesis no earlier commit has made, about a user no earlier
/// commit has named, so every delta is non-empty and the profile the
/// questions are asked for stays as it was: with the hypotheses piling
/// up on the real user, reads slowed by a quarter over one run.
pub fn fresh_hypothesis(n: u64) -> (UserProfile, Hypothesis) {
    let user = UserProfile::new(&format!("BenchUser{n}"));
    let hypothesis = if n.is_multiple_of(2) {
        Hypothesis::FollowedDiet(format!("BenchDiet{n}"))
    } else {
        Hypothesis::AllergicTo(format!("BenchIngredient{n}"))
    };
    (user, hypothesis)
}

/// One `commit_with` of the `n`th fresh hypothesis.
pub fn commit_fresh(base: &mut EngineBase, n: u64) -> feo_core::EpochId {
    let (user, hypothesis) = fresh_hypothesis(n);
    base.commit_with("bench", |overlay| {
        apply_hypothesis(&hypothesis, &user, overlay);
    })
}

impl CommitMixed {
    fn commit(&mut self) -> Result<(), String> {
        let epoch = commit_fresh(&mut self.base, self.commits);
        self.commits += 1;
        self.expected_head += 1;
        if epoch.0 != self.expected_head {
            return Err(format!(
                "commit landed on epoch {}, expected {}",
                epoch.0, self.expected_head
            ));
        }
        if self.base.store().is_none() {
            return Err("store detached: WAL append failed".to_string());
        }
        if self.commits.is_multiple_of(COMPACT_EVERY) {
            self.base.compact().map_err(|e| format!("compact: {e}"))?;
            self.expected_head = 0;
        }
        Ok(())
    }
}

impl Workload for CommitMixed {
    fn setup(inputs: &Inputs, dir: &Path) -> Self {
        CommitMixed {
            base: boot_persist_open(&inputs.world, dir),
            dir: dir.to_path_buf(),
            commits: 0,
            expected_head: 0,
            reads: 0,
        }
    }

    /// One full sawtooth: 0 to `COMPACT_EVERY` layers and the
    /// compaction that folds them. Its reads walk the first
    /// `COMPACT_EVERY * READS_PER_COMMIT` questions of the cycle, so
    /// every sawtooth does the same work.
    fn cycle_len(&self, _inputs: &Inputs) -> u64 {
        COMPACT_EVERY * (1 + READS_PER_COMMIT)
    }

    fn step(&mut self, inputs: &Inputs, index: u64) -> Result<(), String> {
        if index.is_multiple_of(1 + READS_PER_COMMIT) {
            self.commit()
        } else {
            let question = self.reads % (COMPACT_EVERY * READS_PER_COMMIT);
            self.reads += 1;
            explain_checked(&self.base, entry(inputs, question))
        }
    }

    /// Reopens the store from disk: the replayed chain must end on the
    /// epoch the run left it at, with every layer hash intact.
    fn finish(self, inputs: &Inputs) -> Result<(), String> {
        let CommitMixed {
            base,
            dir,
            expected_head,
            ..
        } = self;
        drop(base);
        let world = &inputs.world;
        let reopened = EngineBase::open(
            &dir,
            world.kg.clone(),
            world.user.clone(),
            world.ctx.clone(),
        )
        .map_err(|e| format!("reopen: {e}"))?;
        if reopened.head().0 != expected_head {
            return Err(format!(
                "reopened head is epoch {}, expected {expected_head}",
                reopened.head().0
            ));
        }
        if let Some(epoch) = reopened.ledger().verify_chain() {
            return Err(format!("chain hash mismatch at epoch {}", epoch.0));
        }
        if !reopened.inference().warnings.is_empty() {
            return Err(format!(
                "reopen warnings: {:?}",
                reopened.inference().warnings
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let msd = Duration::from_millis;
        // On time: latency is the service time, lateness zero.
        assert_eq!(open_latency(msd(100), msd(100), msd(107)), (msd(7), msd(0)));
        // Generator stalled 30 ms: the request is charged the stall.
        assert_eq!(
            open_latency(msd(100), msd(130), msd(137)),
            (msd(37), msd(30))
        );
        // Woken a hair early never yields a negative lateness.
        assert_eq!(open_latency(msd(100), msd(99), msd(105)), (msd(5), msd(0)));
    }

    #[test]
    fn open_round_drops_failures_from_the_latency_samples() {
        let sample = |lat: u64, done: u64, ok: bool| OpenSample {
            latency: Duration::from_millis(lat),
            late: Duration::ZERO,
            done_at: Duration::from_millis(done),
            outcome: if ok { Ok(()) } else { Err("status 429".into()) },
        };
        let round = open_round(
            64,
            &[
                sample(5, 5, true),
                sample(9, 29, false),
                sample(6, 46, true),
            ],
        );
        assert_eq!((round.first, round.attempted(), round.failed), (64, 3, 1));
        assert_eq!(round.stats().samples, 2);
        assert!(round.latencies_ms[1].is_nan());
        assert!((round.wall_s - 0.046).abs() < 1e-9);
    }

    #[test]
    fn fresh_hypotheses_never_repeat() {
        let all: std::collections::BTreeSet<String> = (0..200)
            .map(|n| format!("{:?}", fresh_hypothesis(n)))
            .collect();
        assert_eq!(all.len(), 200);
    }
}
