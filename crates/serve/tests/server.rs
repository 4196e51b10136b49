//! End-to-end tests of the HTTP service: routes, status mapping,
//! degradation, quotas, disconnect cancellation, and graceful
//! shutdown — all over real sockets against a real engine.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use common::{explain_request, get, post, spawn, test_config, Client};
use feo_serve::{AdmissionConfig, ServeConfig};

const WHY_EAT: &str = r#"{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"}]}"#;

#[test]
fn health_ready_stats_and_unknown_routes() {
    let handle = spawn(test_config());
    let addr = handle.addr();

    let (status, _, body) = get(addr, "/health");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, _, body) = get(addr, "/ready");
    assert_eq!(status, 200, "{body}");

    let (status, _, body) = get(addr, "/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"admission\""), "{body}");
    assert!(body.contains("\"plan_cache\""), "{body}");

    let (status, _, _) = get(addr, "/no-such-route");
    assert_eq!(status, 404);

    // Wrong method on a POST route.
    let (status, _, _) = get(addr, "/explain");
    assert_eq!(status, 404);

    let outcome = handle.shutdown_and_join().expect("clean shutdown");
    assert!(outcome.clean);
}

#[test]
fn stats_reports_per_tenant_admission_counters() {
    let mut cfg = test_config();
    // Quotas on, tiny burst: the third request from one tenant sheds.
    cfg.admission = AdmissionConfig {
        max_inflight: 4,
        max_queue: 16,
        tenant_rate: 0.5,
        tenant_burst: 2.0,
    };
    let handle = spawn(cfg);
    let addr = handle.addr();

    let tenant = |name: &str, expect: u16| {
        let (status, _, body) =
            common::http(addr, "POST", "/explain", &[("x-feo-tenant", name)], WHY_EAT);
        assert_eq!(status, expect, "tenant {name}: {body}");
    };
    tenant("alice", 200);
    tenant("alice", 200);
    tenant("alice", 429); // burst of 2 spent
    tenant("bob", 200); // own bucket

    let (status, _, body) = get(addr, "/stats");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains(r#""alice":{"admitted":2,"shed":1}"#),
        "{body}"
    );
    assert!(body.contains(r#""bob":{"admitted":1,"shed":0}"#), "{body}");
    // Global counters agree with the per-tenant split.
    assert!(body.contains("\"admitted\":3"), "{body}");
    assert!(body.contains("\"rejected_quota\":1"), "{body}");
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn ready_reports_store_backing_mode() {
    // Memory-backed engine (the default fixture).
    let handle = spawn(test_config());
    let (status, _, body) = get(handle.addr(), "/ready");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"store\":\"memory\""), "{body}");
    handle.shutdown_and_join().expect("clean shutdown");

    // Disk-backed engine: save, reopen via mmap, serve.
    use feo_foodkg::{curated, Season, SystemContext, UserProfile};
    let dir = std::env::temp_dir().join(format!("feo-serve-ready-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let user = UserProfile::new("test-user");
    let ctx = SystemContext::new(Season::Autumn);
    let mut built =
        feo_core::EngineBase::new(curated(), user.clone(), ctx.clone()).expect("consistent");
    built.save_to(&dir).expect("save store");
    let reopened = feo_core::EngineBase::open(&dir, curated(), user, ctx).expect("reopen store");
    let handle = feo_serve::Server::spawn(std::sync::Arc::new(reopened), test_config())
        .expect("bind ephemeral port");
    let (status, _, body) = get(handle.addr(), "/ready");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"store\":\"disk\""), "{body}");
    // The disk-backed engine answers the same explanation route.
    let (status, _, body) = post(handle.addr(), "/explain", WHY_EAT);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("current season"), "{body}");
    handle.shutdown_and_join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_batch_complete_is_200() {
    let handle = spawn(test_config());
    let (status, _, body) = post(handle.addr(), "/explain", WHY_EAT);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"complete\":true"), "{body}");
    assert!(body.contains("current season"), "{body}");
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn budget_trip_degrades_to_206_with_report() {
    let handle = spawn(test_config());
    // max_rounds: 1 trips on the why-eat: its delta closure takes a
    // second round on the batch's shared guard (spent 2, limit 1), and
    // the report skips both questions. (The pregnancy what-if alone
    // completes within one round.) So the request degrades
    // deterministically.
    let body_doc = r#"{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"},{"type":"what-if","hypothesis":"pregnant"}],"budget":{"max_rounds":1}}"#;
    let (status, _, body) = post(handle.addr(), "/explain", body_doc);
    assert_eq!(status, 206, "{body}");
    assert!(body.contains("\"complete\":false"), "{body}");
    assert!(body.contains("\"degradation\""), "{body}");
    assert!(body.contains("\"resource\":\"rounds\""), "{body}");
    assert!(body.contains("\"skipped\""), "{body}");
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn client_errors_get_4xx_not_5xx() {
    let handle = spawn(test_config());
    let addr = handle.addr();

    let (status, _, body) = post(addr, "/explain", "{not json");
    assert_eq!(status, 400, "{body}");

    let (status, _, body) = post(addr, "/explain", r#"{"questions":[]}"#);
    assert_eq!(status, 400, "{body}");

    let (status, _, body) = post(
        addr,
        "/explain",
        r#"{"questions":[{"type":"warp-drive","food":"X"}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("warp-drive"), "{body}");

    let (status, _, body) = post(
        addr,
        "/explain",
        r#"{"questions":[{"type":"why-eat","food":"NoSuchFood"}]}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("unknown entity"), "{body}");

    // Bad SPARQL is the client's fault on /query.
    let (status, _, body) = post(addr, "/query", r#"{"sparql":"SELECT WHERE {"}"#);
    assert_eq!(status, 400, "{body}");

    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn query_serves_head_epochs_and_branches() {
    let handle = spawn(test_config());
    let addr = handle.addr();

    // Head query, W3C JSON shape.
    let (status, _, body) = post(
        addr,
        "/query",
        r#"{"sparql":"SELECT ?r WHERE { ?r a food:Recipe } LIMIT 1"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"head\":{\"vars\":[\"r\"]}"), "{body}");
    assert!(body.contains("\"bindings\""), "{body}");

    // ASK.
    let (status, _, body) = post(addr, "/query", r#"{"sparql":"ASK { ?s ?p ?o }"}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"boolean\":true"), "{body}");

    // Time travel to the base epoch.
    let (status, _, body) = post(addr, "/query", r#"{"sparql":"ASK { ?s ?p ?o }","as_of":0}"#);
    assert_eq!(status, 200, "{body}");

    // Past the head.
    let (status, _, body) = post(
        addr,
        "/query",
        r#"{"sparql":"ASK { ?s ?p ?o }","as_of":99}"#,
    );
    assert_eq!(status, 422, "{body}");

    // Unknown branch.
    let (status, _, body) = post(
        addr,
        "/query",
        r#"{"sparql":"ASK { ?s ?p ?o }","branch":"nope"}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("unknown branch"), "{body}");

    // Mutually exclusive selectors.
    let (status, _, _) = post(
        addr,
        "/query",
        r#"{"sparql":"ASK { ?s ?p ?o }","as_of":0,"branch":"b"}"#,
    );
    assert_eq!(status, 400);

    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn raw_sparql_body_works_without_json_envelope() {
    let handle = spawn(test_config());
    let (status, _, body) = common::http(
        handle.addr(),
        "POST",
        "/query",
        &[("Content-Type", "application/sparql-query")],
        "ASK { ?s ?p ?o }",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"boolean\":true"), "{body}");
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn tenant_quota_yields_429_with_retry_after() {
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_inflight: 4,
            max_queue: 16,
            tenant_rate: 0.01,
            tenant_burst: 1.0,
        },
        ..test_config()
    };
    let handle = spawn(cfg);
    let addr = handle.addr();
    let tenant = [("X-Feo-Tenant", "heavy-user")];

    let (status, _, body) = common::http(addr, "POST", "/explain", &tenant, WHY_EAT);
    assert_eq!(status, 200, "{body}");

    let (status, head, body) = common::http(addr, "POST", "/explain", &tenant, WHY_EAT);
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("over_quota"), "{body}");
    assert!(head.contains("Retry-After:"), "{head}");

    // A different tenant is unaffected.
    let other = [("X-Feo-Tenant", "light-user")];
    let (status, _, body) = common::http(addr, "POST", "/explain", &other, WHY_EAT);
    assert_eq!(status, 200, "{body}");

    assert_eq!(handle.admission_stats().rejected_quota, 1);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn overload_sheds_with_429_and_never_5xx() {
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_inflight: 1,
            max_queue: 1,
            ..AdmissionConfig::default()
        },
        default_deadline_ms: 400,
        queue_wait_cap_ms: 400,
        ..test_config()
    };
    let handle = spawn(cfg);
    let addr = handle.addr();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                let mut statuses = Vec::new();
                for _ in 0..4 {
                    let (status, _, _) = post(addr, "/explain", WHY_EAT);
                    statuses.push(status);
                }
                statuses
            })
        })
        .collect();
    let mut all = Vec::new();
    for worker in workers {
        all.extend(worker.join().expect("client thread"));
    }
    assert!(
        all.iter().all(|s| matches!(s, 200 | 206 | 429)),
        "unexpected statuses: {all:?}"
    );
    assert!(all.contains(&200), "nothing served under overload: {all:?}");
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn client_disconnect_cancels_inflight_work() {
    let cfg = ServeConfig {
        max_questions: 4096,
        ..test_config()
    };
    let handle = spawn(cfg.clone());
    let addr = handle.addr();

    // A deliberately long request: many questions, batch parallelism
    // off, generous deadline — it can only end early via cancellation.
    let mut questions = Vec::new();
    for _ in 0..cfg.max_questions / 2 {
        questions.push(r#"{"type":"why-eat","food":"CauliflowerPotatoCurry"}"#.to_string());
        questions.push(r#"{"type":"what-if","hypothesis":"pregnant"}"#.to_string());
    }
    let body = format!(
        r#"{{"questions":[{}],"budget":{{"deadline_ms":25000}},"parallelism":0}}"#,
        questions.join(",")
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(request.as_bytes()).expect("write");
    // Vanish the moment the request is admitted and working.
    let sent = Instant::now();
    while handle.admission_stats().inflight != 1 {
        assert!(
            sent.elapsed() < Duration::from_secs(5),
            "request never admitted: {:?}",
            handle.admission_stats()
        );
        thread::sleep(Duration::from_millis(1));
    }
    drop(stream);

    // The watcher must flip the cancel flag and the worker must
    // release its slot promptly — well before the 25s deadline.
    let started = Instant::now();
    let deadline = Duration::from_secs(5);
    loop {
        let stats = handle.admission_stats();
        if stats.cancelled_disconnects >= 1 && stats.inflight == 0 {
            break;
        }
        assert!(
            started.elapsed() < deadline,
            "cancellation not observed in {deadline:?}: {stats:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }

    // The shared engine is still coherent: new requests succeed.
    let (status, _, body) = post(addr, "/explain", WHY_EAT);
    assert_eq!(status, 200, "{body}");
    handle.shutdown_and_join().expect("clean shutdown");
}

/// The middle of `samples`.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn keep_alive_requests_are_not_stalled() {
    let handle = spawn(test_config());
    // The reply must not be split into a segment the client ACKs late
    // and a segment that waits for that ACK (≈ 40 ms per request).
    let mut client = Client::connect(handle.addr());
    let mut round_trips = Vec::new();
    for _ in 0..50 {
        let sent = Instant::now();
        client.send("GET /health HTTP/1.1\r\nHost: test\r\n\r\n");
        let (status, body) = client.read_response();
        round_trips.push(sent.elapsed());
        assert_eq!(status, 200, "{body}");
    }
    let median = median(round_trips);
    assert!(
        median < Duration::from_millis(10),
        "median keep-alive round trip {median:?}"
    );
    drop(client);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn pipelined_requests_are_answered_without_a_false_disconnect() {
    let handle = spawn(test_config());
    let mut client = Client::connect(handle.addr());
    let soup = r#"{"questions":[{"type":"why-eat","food":"ButternutSquashSoup"}]}"#;
    let pair = explain_request(WHY_EAT) + &explain_request(soup);
    // While the first request executes, the second sits unread in the
    // socket: bytes the disconnect watcher must not take for a hangup.
    // And neither reply may wait for the client to ACK anything: not
    // the first for its own head, not the second for the first.
    let mut round_trips = Vec::new();
    for _ in 0..9 {
        let sent = Instant::now();
        client.send(&pair);
        let (status, first) = client.read_response();
        assert_eq!(status, 200, "{first}");
        assert!(first.contains("Cauliflower Potato Curry"), "{first}");
        let (status, second) = client.read_response();
        round_trips.push(sent.elapsed());
        assert_eq!(status, 200, "{second}");
        assert!(second.contains("Butternut Squash Soup"), "{second}");
    }
    let median = median(round_trips);
    assert!(
        median < Duration::from_millis(10),
        "median round trip of a pipelined pair {median:?}"
    );
    assert_eq!(handle.admission_stats().cancelled_disconnects, 0);
    drop(client);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn fresh_connections_do_not_wait_for_a_poll_tick() {
    let handle = spawn(test_config());
    let addr = handle.addr();
    // `get` connects, sends `Connection: close` and reads to EOF.
    let mut connect_to_reply = Vec::new();
    for _ in 0..30 {
        let started = Instant::now();
        let (status, _, body) = get(addr, "/health");
        connect_to_reply.push(started.elapsed());
        assert_eq!(status, 200, "{body}");
    }
    let median = median(connect_to_reply);
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-reply {median:?}"
    );
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn shutdown_drains_inflight_requests() {
    let handle = spawn(test_config());
    let addr = handle.addr();

    // A request slow enough to still be in flight when shutdown hits.
    let inflight = thread::spawn(move || {
        let body = r#"{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"},{"type":"what-if","hypothesis":"pregnant"},{"type":"why-over","preferred":"CauliflowerPotatoCurry","alternative":"ButternutSquashSoup"}],"budget":{"deadline_ms":20000},"parallelism":0}"#;
        post(addr, "/explain", body)
    });
    thread::sleep(Duration::from_millis(80));
    let outcome = handle.shutdown_and_join().expect("drain");
    let (status, _, body) = inflight.join().expect("request thread");
    assert!(
        matches!(status, 200 | 206),
        "in-flight request lost: {status} {body}"
    );
    assert!(outcome.clean, "drain cancelled in-flight work: {outcome:?}");
    assert_eq!(outcome.force_cancelled, 0);

    // The listener is gone afterwards.
    assert!(TcpStream::connect(addr).is_err());
}
