//! `feo-benchmark`: one workload per process, every metric by name with
//! its unit. See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! feo-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the detail (per-round values, sample counts, host facts).

mod host;
mod http;
mod inputs;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use feo_core::json::json_string;
use feo_rdf::Parallelism;

use inputs::{query_set, question_cycle, World, WORLD_RECIPES};
use stats::{lowest, pooled, quiet_share, RoundStats};
use workloads::{
    CommitMixed, ExplainHttp, ExplainHttpOpen, ExplainInproc, Inputs, Measured, QueryScan,
    WORKLOADS,
};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A JSON number with every digit the measurement has; `null` when the
/// measurement is missing, which also marks the run incorrect.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn nums(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(num).collect();
    format!("[{}]", items.join(","))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: feo-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut i = 0;
    while i < raw.len() {
        let value = |i: usize| {
            raw.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", raw[i]))
        };
        match raw[i].as_str() {
            "--workload" => {
                workload = Some(value(i)?.clone());
                i += 1;
            }
            "--seed" => {
                seed = Some(
                    value(i)?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
                i += 1;
            }
            "--seconds" => {
                seconds = value(i)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number from 1 to 60")?;
                i += 1;
            }
            "--smoke" => seconds = 1.0,
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    trace = false;
                    i += 1;
                }
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(" | ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A directory under `benchmark/out` that this process owns and removes.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Scratch {
        let dir = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out`: the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn measure(workload: &str, inputs: &Inputs, time: Duration, scratch: &Path) -> Measured {
    match workload {
        "explain_inproc" => workloads::run::<ExplainInproc>(inputs, time, scratch),
        "explain_http" => workloads::run::<ExplainHttp>(inputs, time, scratch),
        "explain_http_open" => workloads::run::<ExplainHttpOpen>(inputs, time, scratch),
        "query_scan" => workloads::run::<QueryScan>(inputs, time, scratch),
        "commit_mixed" => workloads::run::<CommitMixed>(inputs, time, scratch),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// The five gated metrics: timings from the fastest execution of each
/// cycle position (`stats::pooled`) and the fastest set-up.
fn end_to_end(measured: &Measured, quiet: &RoundStats) -> Vec<Metric> {
    vec![
        metric("setup_s", lowest(measured.setup_s.iter().copied()), "s"),
        metric("ops_per_s", quiet.ops_per_s, "op/s"),
        metric("p50_ms", quiet.p50_ms, "ms"),
        metric("p95_ms", quiet.p95_ms, "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                num(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn run(args: &Args) -> bool {
    let scratch = Scratch::new(&args.workload);
    let time = Duration::from_secs_f64(args.seconds);

    // Inputs and references come from one reference base, booted once
    // and outside every timed interval.
    let world = World::generate(WORLD_RECIPES);
    let reference = world.boot();
    let inputs = Inputs {
        cycle: question_cycle(&world, args.seed, &reference),
        queries: query_set(&reference),
        world,
    };
    let triples = reference.graph().len();
    drop(reference);

    let (measured, layer_metrics) = if args.trace {
        let (measured, layers) =
            trace::traced_run(&args.workload, args.seed, &inputs, time, &scratch.0);
        (measured, Some(layers))
    } else {
        (measure(&args.workload, &inputs, time, &scratch.0), None)
    };

    let round_ops: u64 = measured.rounds.iter().map(|r| r.attempted()).sum();
    let attempted = round_ops + measured.suite_attempted;
    let failed: u64 = measured.rounds.iter().map(|r| r.failed).sum::<u64>()
        + measured.untimed_failures.len() as u64;
    let quiet = pooled(&measured.rounds, measured.pool, measured.cycle).stats();
    let metrics = layer_metrics.unwrap_or_else(|| end_to_end(&measured, &quiet));
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());

    let rounds_json: Vec<String> = measured
        .rounds
        .iter()
        .map(|round| {
            let s = round.stats();
            format!(
                "{{\"wall_s\":{},\"attempted\":{},\"failed\":{},\"samples\":{},\"ops_per_s\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
                num(round.wall_s),
                round.attempted(),
                round.failed,
                s.samples,
                num(s.ops_per_s),
                num(s.p50_ms),
                num(s.p95_ms),
                num(s.p99_ms)
            )
        })
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"world\":{{\"recipes\":{},\"ingredients\":{},\"base_triples\":{}}},\"host\":{{\"nproc\":{},\"engine_workers\":{}}},\"setup_s_runs\":{},\"rounds\":[{}],\"p99_ms\":{},\"quiet_share\":{},\"cpu_ms_per_op\":{},\"untimed_failures\":[{}]}}",
        json_string(&args.workload),
        args.seed,
        args.trace,
        num(args.seconds),
        inputs.world.kg.recipes.len(),
        inputs.world.kg.ingredients.len(),
        triples,
        host::nproc(),
        Parallelism::default().workers(),
        nums(measured.setup_s.iter().copied()),
        rounds_json.join(","),
        num(quiet.p99_ms),
        num(quiet_share(&measured.rounds)),
        num(measured.cpu_s * 1e3 / round_ops.max(1) as f64),
        measured
            .untimed_failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(","),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&metrics)
    );
    correct
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if run(&args) {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: failed operations or missing metrics", args.workload);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn accepts_the_drivers_and_the_readmes_argument_forms() {
        let a = parse_args(&argv(
            "--workload query_scan --seed 7 --seconds 15 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query_scan", 7, 15.0, false)
        );
        let b = parse_args(&argv("--workload commit_mixed --seed 1 --trace 1")).unwrap();
        assert!(b.trace);
        let c = parse_args(&argv("--trace --workload explain_http --seed 2 --smoke")).unwrap();
        assert!(c.trace);
        assert_eq!(c.seconds, 1.0);
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload query_scan")).is_err());
        assert!(parse_args(&argv("--workload query_scan --seed 1 --seconds 0")).is_err());
    }

    #[test]
    fn numbers_keep_their_digits_and_missing_ones_are_null() {
        assert_eq!(num(1.2034567891), "1.2034567891");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(nums([1.5, f64::INFINITY]), "[1.5,null]");
    }
}
