//! The one hash-join gate: a step the planner marks `Hash` runs as a
//! hash join only when at least 64 rows arrive, and as a nested join
//! below that.
//!
//! The operator counters are process-wide, so this file is a test
//! binary of its own with a single test: nothing else running in the
//! process can move them between the two readings.

use feo::rdf::Graph;
use feo::sparql::{join_counters, query, QueryOptions, QueryResult};

/// `n` subjects tagged `<tag{n}>`; 200 subjects linked into 50 targets,
/// so a join on `?s` against `<link>` has a 200-triple build scan.
fn gate_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..200 {
        g.insert_iris(
            &format!("http://e/s{i}"),
            "http://e/link",
            &format!("http://e/t{}", i % 50),
        );
    }
    for n in [8, 64] {
        for i in 0..n {
            g.insert_iris(
                &format!("http://e/s{i}"),
                &format!("http://e/tag{n}"),
                "http://e/x",
            );
        }
    }
    g
}

/// The tag scan binds `?s` to `n` rows, then the hash-marked link step
/// joins them. Returns the (nested, hash) operator counts it ran.
fn run_with_input(g: &Graph, n: usize) -> (u64, u64) {
    let q =
        format!("SELECT * WHERE {{ ?s <http://e/tag{n}> <http://e/x> . ?s <http://e/link> ?t }}");
    let explain = QueryOptions {
        explain: true,
        ..Default::default()
    };
    match query(g, &q, &explain).expect("explain evaluates") {
        QueryResult::Plan(plan) => assert!(plan.contains("join=hash"), "{plan}"),
        other => panic!("EXPLAIN returned {other:?}"),
    }
    let before = join_counters();
    let result = query(g, &q, &QueryOptions::default()).expect("query evaluates");
    let after = join_counters();
    assert_eq!(result.expect_solutions().local_rows().len(), n);
    (after.nested - before.nested, after.hash - before.hash)
}

#[test]
fn hash_marked_step_hashes_only_from_64_input_rows() {
    let g = gate_graph();
    assert_eq!(
        run_with_input(&g, 8),
        (2, 0),
        "8 rows into a hash-marked step run nested"
    );
    assert_eq!(
        run_with_input(&g, 64),
        (1, 1),
        "64 rows into a hash-marked step run hash"
    );
}
