//! The traced run: a short untraced run of the workload (for its CPU
//! cost and failure counts) followed by the layer suite — a staged
//! replay that calls each layer's public functions in the order
//! `Session::explain` and `feo-serve` do, recording a span around every
//! call from here, outside the engine. Spans stay in memory and are
//! written to `benchmark/out/trace-<workload>.json` when the run ends.
//!
//! Every traced run reports every per-layer metric, whatever the
//! workload: the suite costs a few seconds and the layers are the same.
//! Replay timings are means per question of each question's fastest
//! pass (the reasoning is `stats::pooled`'s); counts are sums over one
//! pass and repeat exactly for a fixed seed.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use feo_core::ecosystem::{apply_hypothesis, assemble, assert_question};
use feo_core::knowledge::records_to_rdf;
use feo_core::{queries, EngineBase, ExplainOptions, Explanation, Hypothesis, Question, ToJson};
use feo_foodkg::FoodKg;
use feo_ontology::ns::feo;
use feo_owl::{MaterializeOptions, Reasoner};
use feo_rdf::{Overlay, WalRecord};
use feo_serve::http::{write_response, Conn};
use feo_serve::{Admission, AdmissionConfig, Json, Response};
use feo_sparql::{
    execute_prepared, join_counters, parse_query, plan_query, JoinCounters, QueryOptions,
};

use crate::http::{one_shot, Client};
use crate::inputs::{cycle_entries, draw_questions, CycleEntry, QueryEntry, World, SCALE_RECIPES};
use crate::stats::{lowest, median, ms, percentile, pooled, us};
use crate::workloads::{
    boot_persist_open, commit_fresh, open_loop, open_round, post_checked, spawn_server,
    stop_server, Inputs, Measured, OPEN_RATE,
};
use crate::{metric, Metric};

/// Passes of the staged replay over the cycle.
const REPLAY_PASSES: usize = 6;
const JOIN_NAMES: [&str; 4] = ["nested", "hash", "merge", "leapfrog"];
/// Repetitions of the one-shot stages (boot, save, open).
const BOOT_REPEATS: usize = 3;
/// Rates of the open-loop ladder, requests per second.
const LADDER_RATES: [f64; 4] = [25.0, 50.0, 100.0, 200.0];
/// The limit a ladder rate must meet to count as sustained.
const LIMIT_P95_MS: f64 = 50.0;
const LIMIT_LATE_P95_MS: f64 = 1.0;
/// Questions of the cycle used where a full cycle over HTTP would cost
/// seconds per pass.
const PROBE_QUESTIONS: usize = 32;
/// Commits stacked for the commit and layer-tax stages: four times what
/// `commit_mixed` lets pile up, so the read tax is charted well past it.
const STACKED_LAYERS: u64 = 64;

/// One recorded interval.
struct Span {
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Spans of one replayed request share this.
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    fn close(&mut self, id: usize) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Records `f` as a child span of `parent`.
    fn child<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let value = f();
        (value, self.close(id))
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"unit\":\"ns\",\"spans\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                if id == 0 { "" } else { "," },
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Timed stages of one replayed question, in the order they run.
const STAGES: [&str; 9] = [
    "core.session_build",
    "core.assert_question",
    "owl.delta_closure",
    "sparql.parse",
    "sparql.plan",
    "sparql.exec",
    // The whole staged request, spans included.
    "replay.request",
    // `Session::explain` of the same question, untraced.
    "core.explain_total",
    "core.json",
];
const SESSION_BUILD: usize = 0;
const ASSERT_QUESTION: usize = 1;
const DELTA_CLOSURE: usize = 2;
const PARSE: usize = 3;
const PLAN: usize = 4;
const EXEC: usize = 5;
const STAGED_TOTAL: usize = 6;
const EXPLAIN_TOTAL: usize = 7;
const JSON: usize = 8;

/// Microseconds per stage for one question.
type StageTimes = [f64; STAGES.len()];

/// What one pass over a cycle counted: closure and evaluator work that
/// must not depend on when it is measured.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ReplayCounts {
    inferred: u64,
    rounds: u64,
    rows: u64,
    /// nested, hash, merge, leapfrog.
    joins: [u64; 4],
}

fn joins_since(before: &JoinCounters) -> [u64; 4] {
    let now = join_counters();
    [
        now.nested - before.nested,
        now.hash - before.hash,
        now.merge - before.merge,
        now.leapfrog - before.leapfrog,
    ]
}

/// The competency query `Session::explain` would run for `question`.
fn competency_query(question: &Question) -> String {
    match question {
        Question::WhyEat { .. } => queries::contextual_query(question),
        Question::WhyEatOver { .. } => queries::contrastive_query(question),
        Question::WhatIf { hypothesis } => {
            let subject = match hypothesis {
                Hypothesis::Pregnant => feo::PREGNANCY_STATE.to_string(),
                Hypothesis::FollowedDiet(d) => FoodKg::iri(d),
                Hypothesis::AllergicTo(i) => FoodKg::iri(i),
            };
            queries::counterfactual_query(&subject)
        }
        other => unreachable!("the cycle holds only CQ1-CQ3 questions, got {other:?}"),
    }
}

/// Replays one question stage by stage, the way `Session::explain`
/// strings the layers together. Returns the result rows, for the check
/// against the real answer.
fn replay_question(
    tracer: &mut Tracer,
    base: &EngineBase,
    question: &Question,
    request: u64,
    times: &mut StageTimes,
    counts: &mut ReplayCounts,
) -> usize {
    let root = tracer.open(STAGES[STAGED_TOTAL], None, request);

    let (mut overlay, took) = tracer.child(STAGES[SESSION_BUILD], root, || {
        let (overlay, _inference) = base.session().into_parts();
        match question {
            // A what-if reasons in a throwaway world over the same view.
            Question::WhatIf { .. } => Overlay::new(overlay.base().clone()),
            _ => overlay,
        }
    });
    times[SESSION_BUILD] = us(took);

    let ((), took) = tracer.child(STAGES[ASSERT_QUESTION], root, || {
        if let Question::WhatIf { hypothesis } = question {
            apply_hypothesis(hypothesis, base.user(), &mut overlay);
        }
        assert_question(question, &mut overlay);
    });
    times[ASSERT_QUESTION] = us(took);

    let (inference, took) = tracer.child(STAGES[DELTA_CLOSURE], root, || {
        Reasoner::new()
            .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(base.rules()))
            .expect("unguarded closure cannot trip")
    });
    times[DELTA_CLOSURE] = us(took);
    counts.inferred += inference.added as u64;
    counts.rounds += inference.rounds as u64;

    let text = competency_query(question);
    let (parsed, took) = tracer.child(STAGES[PARSE], root, || {
        parse_query(&text).expect("engine template parses")
    });
    times[PARSE] = us(took);
    let (plan, took) = tracer.child(STAGES[PLAN], root, || plan_query(overlay.base(), &parsed));
    times[PLAN] = us(took);

    let joins_before = join_counters();
    let (table, took) = tracer.child(STAGES[EXEC], root, || {
        execute_prepared(&overlay, &parsed, &plan, &QueryOptions::default())
            .expect("engine template executes")
            .expect_solutions()
    });
    times[EXEC] = us(took);
    for (total, delta) in counts.joins.iter_mut().zip(joins_since(&joins_before)) {
        *total += delta;
    }
    counts.rows += table.len() as u64;

    times[STAGED_TOTAL] = us(tracer.close(root));
    table.len()
}

/// One pass over `cycle`: the staged replay of every question, then the
/// real `Session::explain` and `to_json` of the same questions.
fn replay_pass(
    tracer: &mut Tracer,
    base: &EngineBase,
    cycle: &[CycleEntry],
    first_request: u64,
    failures: &mut Vec<String>,
) -> (Vec<StageTimes>, ReplayCounts) {
    let mut times = vec![[0.0; STAGES.len()]; cycle.len()];
    let mut counts = ReplayCounts::default();
    let mut staged_rows = Vec::with_capacity(cycle.len());
    for (i, entry) in cycle.iter().enumerate() {
        staged_rows.push(replay_question(
            tracer,
            base,
            &entry.question,
            first_request + i as u64,
            &mut times[i],
            &mut counts,
        ));
    }
    let mut explanations: Vec<Explanation> = Vec::with_capacity(cycle.len());
    for (entry, times) in cycle.iter().zip(&mut times) {
        let t0 = Instant::now();
        let explanation = base
            .explain(&entry.question, &ExplainOptions::default())
            .expect("reference question explains");
        times[EXPLAIN_TOTAL] = us(t0.elapsed());
        explanations.push(explanation);
    }
    for (i, (entry, explanation)) in cycle.iter().zip(&explanations).enumerate() {
        if explanation.bindings.len() != staged_rows[i] {
            failures.push(format!(
                "staged replay of {:?} found {} rows, explain {}",
                entry.question,
                staged_rows[i],
                explanation.bindings.len()
            ));
        }
        let t0 = Instant::now();
        let json = std::hint::black_box(explanation.to_json());
        times[i][JSON] = us(t0.elapsed());
        if !entry.reference_json.contains(&json) {
            failures.push(format!(
                "to_json of {:?} left the reference",
                entry.question
            ));
        }
    }
    (times, counts)
}

/// `passes` replay passes folded into the mean per question of each
/// stage, microseconds. Each question's stage time is its quietest
/// over the passes: a pass takes half a second, longer than the host
/// stays quiet, but every question meets a quiet moment in some pass.
fn replay_passes(
    tracer: &mut Tracer,
    base: &EngineBase,
    cycle: &[CycleEntry],
    passes: usize,
    failures: &mut Vec<String>,
) -> (StageTimes, ReplayCounts) {
    let mut quietest = vec![[f64::INFINITY; STAGES.len()]; cycle.len()];
    let mut first_counts = None;
    for p in 0..passes {
        let first_request = (p * cycle.len()) as u64;
        let (times, counts) = replay_pass(tracer, base, cycle, first_request, failures);
        for (best, seen) in quietest.iter_mut().zip(&times) {
            for (b, s) in best.iter_mut().zip(seen) {
                *b = b.min(*s);
            }
        }
        // Counts must not depend on which pass is read.
        if *first_counts.get_or_insert(counts) != counts {
            failures.push(format!("replay counts differ between passes: {counts:?}"));
        }
    }
    let mut mean = [0.0; STAGES.len()];
    for question in &quietest {
        for (m, q) in mean.iter_mut().zip(question) {
            *m += q / cycle.len() as f64;
        }
    }
    (mean, first_counts.unwrap_or_default())
}

/// The layer suite's results.
struct Layers {
    metrics: Vec<Metric>,
    failures: Vec<String>,
    /// Operations the suite itself attempted (replayed questions,
    /// probe requests, ladder requests, commits).
    attempted: u64,
}

impl Layers {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }
}

/// Boot stages: what `setup_s` is made of on every workload.
fn boot_stages(layers: &mut Layers, world: &World) {
    let (mut assemble_ms, mut materialize_ms, mut cold_ms) = (vec![], vec![], vec![]);
    for _ in 0..BOOT_REPEATS {
        let t0 = Instant::now();
        let mut graph = assemble(&world.kg, &world.user, &world.ctx);
        assemble_ms.push(ms(t0.elapsed()));
        records_to_rdf(&mut graph);
        let reasoner = Reasoner::new();
        let rules = reasoner.compile(&mut graph);
        let t0 = Instant::now();
        let inference = reasoner
            .materialize(&mut graph, &MaterializeOptions::with_rules(&rules))
            .expect("unguarded closure cannot trip");
        materialize_ms.push(ms(t0.elapsed()));
        std::hint::black_box(inference);
        let t0 = Instant::now();
        std::hint::black_box(world.boot());
        cold_ms.push(ms(t0.elapsed()));
    }
    layers.push("core.assemble_ms", lowest(assemble_ms), "ms");
    layers.push("owl.materialize_ms", lowest(materialize_ms), "ms");
    layers.push("core.cold_boot_ms", lowest(cold_ms), "ms");
}

/// Store stages: what the store-backed workloads add to `setup_s`.
fn disk_stages(layers: &mut Layers, world: &World, scratch: &Path) {
    let (mut save_ms, mut open_ms) = (vec![], vec![]);
    let mut bytes_per_triple = f64::NAN;
    for k in 0..BOOT_REPEATS {
        let dir = scratch.join(format!("disk-{k}"));
        let mut built = world.boot();
        let triples = built.graph().len();
        let t0 = Instant::now();
        built.save_to(&dir).expect("store saves");
        save_ms.push(ms(t0.elapsed()));
        let segment = built.store().expect("store attached").segment_path();
        let bytes = std::fs::metadata(&segment).map_or(0, |m| m.len());
        bytes_per_triple = bytes as f64 / triples as f64;
        drop(built);
        let t0 = Instant::now();
        let opened = EngineBase::open(
            &dir,
            world.kg.clone(),
            world.user.clone(),
            world.ctx.clone(),
        )
        .expect("store opens");
        open_ms.push(ms(t0.elapsed()));
        std::hint::black_box(opened);
    }
    layers.push("rdf.disk.save_ms", lowest(save_ms), "ms");
    layers.push("rdf.disk.open_ms", lowest(open_ms), "ms");
    layers.push("rdf.disk.segment_bytes_per_triple", bytes_per_triple, "B");
}

/// The staged replay of the question cycle on an in-memory base.
/// `closed_loop_us` is the mean latency the untraced closed loop saw in
/// this process.
fn replay_stages(layers: &mut Layers, tracer: &mut Tracer, inputs: &Inputs, closed_loop_us: f64) {
    let base = inputs.world.boot();
    // Warm the plan cache the way any workload's warm-up does, then
    // watch it across the passes.
    for entry in &inputs.cycle {
        let _ = base.explain(&entry.question, &ExplainOptions::default());
    }
    let cache_before = base.plan_cache_stats();
    let (mean, counts) = replay_passes(
        tracer,
        &base,
        &inputs.cycle,
        REPLAY_PASSES,
        &mut layers.failures,
    );
    layers.attempted += (2 * REPLAY_PASSES * inputs.cycle.len()) as u64;
    let cache_after = base.plan_cache_stats();
    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;

    layers.push("core.session_build_us", mean[SESSION_BUILD], "us");
    layers.push("core.assert_question_us", mean[ASSERT_QUESTION], "us");
    layers.push("owl.delta_closure_us", mean[DELTA_CLOSURE], "us");
    layers.push("owl.delta_inferred", counts.inferred as f64, "count");
    layers.push("owl.delta_rounds", counts.rounds as f64, "count");
    layers.push("sparql.parse_us", mean[PARSE], "us");
    layers.push("sparql.plan_us", mean[PLAN], "us");
    layers.push("sparql.exec_us", mean[EXEC], "us");
    layers.push("sparql.result_rows", counts.rows as f64, "count");
    for (name, count) in JOIN_NAMES.iter().zip(counts.joins) {
        layers.push(format!("sparql.join_{name}"), count as f64, "count");
    }
    layers.push(
        "core.plan_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    layers.push("core.explain_total_us", mean[EXPLAIN_TOTAL], "us");
    // The residual: everything `Session::explain` does that is not one
    // of the stages above — result rendering, plan-cache lookup, checks.
    // Parse and plan are left out because a warm cache skips them.
    layers.push(
        "core.render_us",
        mean[EXPLAIN_TOTAL]
            - (mean[SESSION_BUILD] + mean[ASSERT_QUESTION] + mean[DELTA_CLOSURE] + mean[EXEC]),
        "us",
    );
    // How far the replayed total is from the untraced closed loop.
    layers.push(
        "core.explain_gap_us",
        mean[EXPLAIN_TOTAL] - closed_loop_us,
        "us",
    );
    layers.push("core.json_us", mean[JSON], "us");
    layers.push(
        "trace.overhead_share",
        1.0 - mean[EXPLAIN_TOTAL] / mean[STAGED_TOTAL],
        "ratio",
    );
}

/// `qset5` stage by stage on a base reopened from its segment.
fn query_stages(layers: &mut Layers, tracer: &mut Tracer, inputs: &Inputs, scratch: &Path) {
    let base = boot_persist_open(&inputs.world, &scratch.join("qset"));
    let (mut parse_us, mut plan_us, mut exec_us) = (vec![], vec![], vec![]);
    let mut rows = 0u64;
    let mut joins = [0u64; 4];
    for p in 0..REPLAY_PASSES {
        let (mut parse, mut plan, mut exec) = (0.0, 0.0, 0.0);
        let root = tracer.open("replay.qset_pass", None, p as u64);
        let (overlay, _) = base.session().into_parts();
        let joins_before = join_counters();
        let mut pass_rows = 0u64;
        for QueryEntry {
            name,
            text,
            reference_rows,
        } in &inputs.queries
        {
            let (parsed, took) = tracer.child("sparql.parse", root, || {
                parse_query(text).expect("qset5 parses")
            });
            parse += us(took);
            let (planned, took) =
                tracer.child("sparql.plan", root, || plan_query(overlay.base(), &parsed));
            plan += us(took);
            let (table, took) = tracer.child("sparql.exec", root, || {
                execute_prepared(&overlay, &parsed, &planned, &QueryOptions::default())
                    .expect("qset5 executes")
                    .expect_solutions()
            });
            exec += us(took);
            if table.len() != *reference_rows {
                layers.failures.push(format!(
                    "staged {name}: {} rows, expected {reference_rows}",
                    table.len()
                ));
            }
            pass_rows += table.len() as u64;
        }
        tracer.close(root);
        rows = pass_rows;
        joins = joins_since(&joins_before);
        parse_us.push(parse);
        plan_us.push(plan);
        exec_us.push(exec);
        layers.attempted += 1;
    }
    layers.push("sparql.qset_parse_us", lowest(parse_us), "us");
    layers.push("sparql.qset_plan_us", lowest(plan_us), "us");
    layers.push("sparql.qset_exec_us", lowest(exec_us), "us");
    layers.push("sparql.qset_rows", rows as f64, "count");
    for (name, count) in JOIN_NAMES.iter().zip(joins) {
        layers.push(format!("sparql.qset_join_{name}"), count as f64, "count");
    }
}

/// `feo-serve`'s own layers, each called directly: JSON parsing, HTTP
/// framing over a loopback pair, and the uncontended admission gate.
fn serve_stages(layers: &mut Layers, tracer: &mut Tracer, inputs: &Inputs) {
    let n = inputs.cycle.len() as f64;
    let mut parse_us = Vec::with_capacity(REPLAY_PASSES);
    for p in 0..REPLAY_PASSES {
        let root = tracer.open("replay.serve_pass", None, p as u64);
        let ((), took) = tracer.child("serve.json_parse", root, || {
            for entry in &inputs.cycle {
                std::hint::black_box(Json::parse(&entry.body).expect("bodies are valid JSON"));
            }
        });
        tracer.close(root);
        parse_us.push(us(took) / n);
    }
    layers.push("serve.json_parse_us", lowest(parse_us), "us");

    // One loopback pair; the server end is driven from this thread, so
    // only `read_request` and `write_response` are inside the timing.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut client =
        TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect loopback");
    client.set_nodelay(true).expect("nodelay");
    let (server_end, _) = listener.accept().expect("accept loopback");
    // This pair is the probe's own: without it every reply would sit
    // 40 ms behind the client's delayed ACK, outside the timed calls
    // but inside the run.
    server_end.set_nodelay(true).expect("nodelay");
    let mut conn = Conn::new(server_end, 1 << 20).expect("wrap connection");
    let mut frame_us = Vec::with_capacity(REPLAY_PASSES);
    for p in 0..REPLAY_PASSES {
        let root = tracer.open("replay.frame_pass", None, p as u64);
        let mut total = 0.0;
        for entry in &inputs.cycle {
            let request = format!(
                "POST /explain HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                entry.body.len(),
                entry.body
            );
            client.write_all(request.as_bytes()).expect("send request");
            let response = Response::json(200, entry.reference_json.clone());
            let (framed, took) = tracer.child("serve.http_frame", root, || {
                let request = conn.read_request(&|| false);
                let mut stream = conn.stream().try_clone().expect("clone stream");
                write_response(&mut stream, &response, false).expect("write response");
                request
            });
            total += us(took);
            match framed {
                Ok(Some(request)) if request.body == entry.body.as_bytes() => {}
                other => layers
                    .failures
                    .push(format!("framing lost the request: {other:?}")),
            }
            // Drain the reply so the socket buffers never fill.
            let mut reply = vec![0u8; entry.reference_json.len() + 512];
            let mut got = 0;
            while !reply[..got].ends_with(entry.reference_json.as_bytes()) {
                got += std::io::Read::read(&mut client, &mut reply[got..]).expect("read reply");
            }
        }
        tracer.close(root);
        frame_us.push(total / n);
    }
    layers.push("serve.http_frame_us", lowest(frame_us), "us");

    let admission = Admission::new(AdmissionConfig::default());
    let mut admit_us = Vec::with_capacity(REPLAY_PASSES);
    for _ in 0..REPLAY_PASSES {
        let t0 = Instant::now();
        for _ in 0..inputs.cycle.len() {
            let permit = admission.admit("bench", Instant::now() + Duration::from_secs(1));
            drop(std::hint::black_box(permit));
        }
        admit_us.push(us(t0.elapsed()) / n);
    }
    layers.push("serve.admission_us", lowest(admit_us), "us");
}

/// Probes and the rate ladder against a live server.
fn live_server_stages(layers: &mut Layers, inputs: &Inputs, time: Duration) {
    let base = Arc::new(inputs.world.boot());
    let probe = &inputs.cycle[..PROBE_QUESTIONS.min(inputs.cycle.len())];
    // The in-process half of `serve.overhead_p50_ms`: the same
    // questions, the same base, the same process.
    let mut inproc_ms = Vec::with_capacity(probe.len());
    // Twice: the first pass fills the plan cache, the second counts.
    for _ in 0..2 {
        inproc_ms.clear();
        for entry in probe {
            let t0 = Instant::now();
            let _ = std::hint::black_box(base.explain(&entry.question, &ExplainOptions::default()));
            inproc_ms.push(ms(t0.elapsed()));
        }
    }
    let server = spawn_server(Arc::clone(&base));
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect to loopback server");
    let mut health_ms = Vec::with_capacity(PROBE_QUESTIONS);
    for _ in 0..PROBE_QUESTIONS {
        let t0 = Instant::now();
        match client.request("GET", "/health", "", false) {
            Ok(reply) if reply.status == 200 => health_ms.push(ms(t0.elapsed())),
            other => layers.failures.push(format!("health probe: {other:?}")),
        }
    }
    // The server shares the base, so its plan cache is already warm.
    let mut http_ms = Vec::with_capacity(probe.len());
    for entry in probe {
        let t0 = Instant::now();
        match post_checked(&mut client, entry, false) {
            Ok(()) => http_ms.push(ms(t0.elapsed())),
            Err(why) => layers.failures.push(format!("overhead probe: {why}")),
        }
    }
    drop(client);
    let mut conn_ms = Vec::with_capacity(PROBE_QUESTIONS);
    for _ in 0..PROBE_QUESTIONS {
        let t0 = Instant::now();
        match one_shot(addr, "GET", "/health", "") {
            Ok(reply) if reply.status == 200 => conn_ms.push(ms(t0.elapsed())),
            other => layers.failures.push(format!("connection probe: {other:?}")),
        }
    }
    layers.attempted += (2 * PROBE_QUESTIONS + 3 * probe.len()) as u64;
    layers.push("serve.health_rtt_p50_ms", median(&health_ms), "ms");
    layers.push(
        "serve.overhead_p50_ms",
        median(&http_ms) - median(&inproc_ms),
        "ms",
    );
    layers.push("serve.conn_setup_p50_ms", median(&conn_ms), "ms");

    // The ladder: each rate for a tenth of the run. The 50 req/s step
    // is the gated workload's rate, so its shed share and generator
    // lateness are the ones reported.
    let step = time.as_secs_f64() / 10.0;
    let mut sustained = 0.0;
    let mut first = 0u64;
    for rate in LADDER_RATES {
        let total = (step * rate).ceil() as u64;
        let shed_before = shed_count(&server);
        let samples = open_loop(addr, inputs, first, rate, total);
        let round = open_round(first, &samples);
        first += total;
        layers.attempted += total;
        let stats = round.stats();
        let mut late: Vec<f64> = samples.iter().map(|s| ms(s.late)).collect();
        late.sort_by(f64::total_cmp);
        let late_p95 = percentile(&late, 0.95);
        layers.push(format!("serve.p95_ms.r{rate}"), stats.p95_ms, "ms");
        if round.failed == 0 && stats.p95_ms <= LIMIT_P95_MS && late_p95 < LIMIT_LATE_P95_MS {
            sustained = rate;
        }
        if rate == OPEN_RATE {
            layers.push(
                "serve.shed_share",
                (shed_count(&server) - shed_before) as f64 / total as f64,
                "ratio",
            );
            layers.push("loadgen.late_p95_ms", late_p95, "ms");
            if round.failed > 0 {
                layers
                    .failures
                    .push(format!("{} failures at {rate} req/s", round.failed));
            }
        }
    }
    layers.push("serve.max_rate_under_limit_rps", sustained, "1/s");
    if let Err(why) = stop_server(server) {
        layers.failures.push(why);
    }
}

fn shed_count(server: &feo_serve::ServerHandle) -> u64 {
    let a = server.admission_stats();
    a.shed_queue_full + a.shed_deadline + a.rejected_quota
}

/// Mean `explain` latency over the probe questions at head, ms.
fn read_at_head_ms(base: &EngineBase, probe: &[CycleEntry]) -> f64 {
    let mut passes = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = Instant::now();
        for entry in probe {
            let _ = std::hint::black_box(base.explain(&entry.question, &ExplainOptions::default()));
        }
        passes.push(ms(t0.elapsed()) / probe.len() as f64);
    }
    lowest(passes)
}

/// Commit, WAL and layer-stack costs: what `commit_mixed` is made of.
fn commit_stages(layers: &mut Layers, inputs: &Inputs, scratch: &Path) {
    let world = &inputs.world;
    let probe = &inputs.cycle[..PROBE_QUESTIONS.min(inputs.cycle.len())];
    let commit = |base: &mut EngineBase, n: u64| {
        let t0 = Instant::now();
        commit_fresh(base, n);
        us(t0.elapsed())
    };

    let mut memory = world.boot();
    let commit_us: Vec<f64> = (0..STACKED_LAYERS)
        .map(|n| commit(&mut memory, n))
        .collect();
    layers.push("core.commit_us", median(&commit_us), "us");

    // The same commits on a store-backed base, reads at 0 / 32 / 64
    // stacked layers, then the compaction that folds them.
    let mut stored = boot_persist_open(world, &scratch.join("commit"));
    let wal = stored.store().expect("store attached").wal_path();
    let wal_before = std::fs::metadata(&wal).map_or(0, |m| m.len());
    layers.push(
        "core.read_at_head_ms.l0",
        read_at_head_ms(&stored, probe),
        "ms",
    );
    let mut wal_us = Vec::with_capacity(STACKED_LAYERS as usize);
    for n in 0..STACKED_LAYERS {
        wal_us.push(commit(&mut stored, n));
        if n + 1 == STACKED_LAYERS / 2 {
            layers.push(
                "core.read_at_head_ms.l32",
                read_at_head_ms(&stored, probe),
                "ms",
            );
        }
    }
    layers.push(
        "core.read_at_head_ms.l64",
        read_at_head_ms(&stored, probe),
        "ms",
    );
    if stored.store().is_none() {
        layers
            .failures
            .push("store detached during commits".to_string());
    }
    let wal_after = std::fs::metadata(&wal).map_or(0, |m| m.len());
    layers.push("core.commit_wal_us", median(&wal_us), "us");
    layers.push(
        "rdf.disk.wal_bytes_per_commit",
        (wal_after - wal_before) as f64 / STACKED_LAYERS as f64,
        "B",
    );

    // `append_delta` alone, with the record the last commit produced,
    // on a store of its own so no live chain sees the extra records.
    let last = memory
        .ledger()
        .layers()
        .last()
        .expect("commits made layers");
    let record = WalRecord {
        label: "bench".to_string(),
        inferred: 0,
        terms: last.spill_terms().to_vec(),
        triples: last.spo_raw().to_vec(),
    };
    let mut side = world.boot();
    side.save_to(&scratch.join("wal-probe"))
        .expect("store saves");
    let store = side.store().expect("store attached");
    let mut append_us = Vec::with_capacity(STACKED_LAYERS as usize);
    for _ in 0..STACKED_LAYERS {
        let t0 = Instant::now();
        store.append_delta(&record).expect("WAL append");
        append_us.push(us(t0.elapsed()));
    }
    layers.push("rdf.disk.wal_append_us", median(&append_us), "us");

    let t0 = Instant::now();
    match stored.compact() {
        Ok(()) => layers.push("rdf.disk.compact_ms", ms(t0.elapsed()), "ms"),
        Err(e) => {
            layers.failures.push(format!("compact: {e}"));
            layers.push("rdf.disk.compact_ms", f64::NAN, "ms");
        }
    }
    layers.attempted += 3 * STACKED_LAYERS + 1;
}

/// The 2000-recipe scale point: the hot set leaves L2 here, so these
/// swing with the host and are recorded, never gated.
fn scale_stages(layers: &mut Layers, tracer: &mut Tracer, seed: u64) {
    let world = World::generate(SCALE_RECIPES);
    let mut graph = assemble(&world.kg, &world.user, &world.ctx);
    records_to_rdf(&mut graph);
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut graph);
    let t0 = Instant::now();
    let inference = reasoner
        .materialize(&mut graph, &MaterializeOptions::with_rules(&rules))
        .expect("unguarded closure cannot trip");
    layers.push("owl.materialize_ms.w2000", ms(t0.elapsed()), "ms");
    std::hint::black_box(inference);
    drop(graph);

    let base = world.boot();
    let probe: Vec<Question> = draw_questions(&world, seed)
        .into_iter()
        .take(PROBE_QUESTIONS)
        .collect();
    let cycle = cycle_entries(&base, probe);
    let mut failures = Vec::new();
    let (mean, _) = replay_passes(tracer, &base, &cycle, 2, &mut failures);
    layers.failures.extend(failures);
    let mut latencies = Vec::with_capacity(cycle.len());
    for entry in &cycle {
        let t0 = Instant::now();
        let _ = std::hint::black_box(base.explain(&entry.question, &ExplainOptions::default()));
        latencies.push(ms(t0.elapsed()));
    }
    layers.push("core.explain_p50_ms.w2000", median(&latencies), "ms");
    layers.push("sparql.exec_us.w2000", mean[EXEC], "us");
    layers.attempted += 5 * cycle.len() as u64;
}

/// Runs the workload briefly, then the layer suite.
pub fn traced_run(
    workload: &str,
    seed: u64,
    inputs: &Inputs,
    time: Duration,
    scratch: &Path,
) -> (Measured, Vec<Metric>) {
    let calibration_before = crate::host::calibration_ms();

    // The workload itself, untraced, for a fifth of the run: its CPU
    // cost per operation and its failures belong to this workload; the
    // suite below is the same for all five.
    let mut measured = crate::measure(workload, inputs, time / 5, scratch);
    let attempted: u64 = measured.rounds.iter().map(|r| r.attempted()).sum();

    // The closed-loop reference for `core.explain_gap_us`: the mean
    // latency plain `explain` rounds see in this process.
    let mean_latency_us = |m: &Measured| 1e6 / pooled(&m.rounds, m.pool, m.cycle).stats().ops_per_s;
    let closed_loop_us = if workload == "explain_inproc" {
        mean_latency_us(&measured)
    } else {
        mean_latency_us(&crate::measure(
            "explain_inproc",
            inputs,
            time / 10,
            scratch,
        ))
    };

    let mut tracer = Tracer::new();
    let mut layers = Layers {
        metrics: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
    };
    // Progress on standard error: a traced run is the long one.
    let mut stage_started = Instant::now();
    let mut done = |stage: &str| {
        eprintln!(
            "[trace] {stage}: {:.1} s",
            stage_started.elapsed().as_secs_f64()
        );
        stage_started = Instant::now();
    };
    boot_stages(&mut layers, &inputs.world);
    disk_stages(&mut layers, &inputs.world, scratch);
    done("boot and store stages");
    replay_stages(&mut layers, &mut tracer, inputs, closed_loop_us);
    done("question-cycle replay");
    query_stages(&mut layers, &mut tracer, inputs, scratch);
    serve_stages(&mut layers, &mut tracer, inputs);
    done("query-set and serve stages");
    live_server_stages(&mut layers, inputs, time);
    done("live server probes and rate ladder");
    commit_stages(&mut layers, inputs, scratch);
    done("commit stages");
    scale_stages(&mut layers, &mut tracer, seed);
    done("scale point");

    let calibration_after = crate::host::calibration_ms();
    layers.push(
        "host.calibration_ms",
        (calibration_before + calibration_after) / 2.0,
        "ms",
    );
    layers.push(
        "host.cpu_ms_per_op",
        measured.cpu_s * 1e3 / attempted.max(1) as f64,
        "ms",
    );

    let path = crate::out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = tracer.write(&path) {
        layers
            .failures
            .push(format!("writing {}: {e}", path.display()));
    }
    measured.untimed_failures.extend(layers.failures);
    measured.suite_attempted = layers.attempted;
    (measured, layers.metrics)
}
