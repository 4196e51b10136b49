//! Thread census of a running server. In a file of its own so that
//! no sibling test spawns threads in the process while it counts.
#![cfg(target_os = "linux")]

mod common;

use std::time::{Duration, Instant};

use common::{base_with_epoch, explain_request, test_config, Client};

/// `Threads:` of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_request_spawns_no_thread_and_shutdown_leaves_none_behind() {
    let base = base_with_epoch();
    let before = thread_count();
    let handle = feo_serve::Server::spawn(base, test_config()).expect("bind ephemeral port");

    let request = explain_request(
        r#"{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"}],"parallelism":0}"#,
    );
    let mut client = Client::connect(handle.addr());
    let mut most = 0;
    for _ in 0..200 {
        client.send(&request);
        let (status, body) = client.read_response();
        assert_eq!(status, 200, "{body}");
        most = most.max(thread_count());
    }
    // The accept loop, the disconnect watcher, this connection's thread.
    assert!(
        most <= before + 3,
        "{most} threads while serving one connection, {before} before the server"
    );

    drop(client);
    handle.shutdown_and_join().expect("clean shutdown");
    // A joined thread leaves the census a moment after `join` returns.
    let deadline = Instant::now() + Duration::from_secs(2);
    while thread_count() > before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(thread_count(), before, "threads left behind by the server");
}
