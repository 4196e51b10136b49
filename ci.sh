#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repo root. Mirrors what reviewers run before merging.
set -euo pipefail
cd "$(dirname "$0")"

echo "== panic lint (library src ratchet)"
# Library code reachable from user input must return typed errors, not
# panic. This ratchet counts `.unwrap(` / `.expect("` / `panic!(` /
# `unreachable!(` sites per source file *before* its first
# `#[cfg(test)]` marker and rejects any count above the frozen baseline
# in ci/panic-baseline.txt. New sites must be converted to typed errors;
# if a site is a genuinely unreachable invariant, update the baseline in
# the same commit and justify it in review.
panic_lint_failed=0
while IFS= read -r f; do
    n=$(awk '/#\[cfg\(test\)\]/{exit}
             {c += gsub(/\.unwrap\(|\.expect\("|panic!\(|unreachable!\(/,"")}
             END{print c+0}' "$f")
    allowed=$(awk -v p="$f" '$2==p{print $1; exit}' ci/panic-baseline.txt)
    allowed=${allowed:-0}
    if [ "$n" -gt "$allowed" ]; then
        echo "panic-lint: $f has $n panic-prone sites (baseline allows $allowed)" >&2
        panic_lint_failed=1
    fi
done < <(find src crates/*/src -name '*.rs' | sort)
if [ "$panic_lint_failed" -ne 0 ]; then
    echo "panic-lint failed: convert new sites to typed errors (see ci/panic-baseline.txt)." >&2
    exit 1
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings)"
# Every intra-doc link must resolve: a link to a deleted or private item
# fails here rather than rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tier-1: release build + tests"
cargo build --release --offline
cargo test -q --offline

echo "== workspace tests"
cargo test -q --offline --workspace

echo "== examples (each runs to completion)"
# Clippy only compiles the examples; run each one, optimized, and fail
# on a non-zero exit (a panic, or an `expect` on an engine error).
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    if ! cargo run -q --offline --release --example "$name" >/dev/null; then
        echo "example $name exited non-zero" >&2
        exit 1
    fi
done

echo "== adversarial suite (bounded wall-clock)"
# Pathological inputs (malformed Turtle, ontology cycles, closure
# blowups) must degrade via the governor, never hang: the whole suite
# has to finish inside the timeout.
timeout 120 cargo test -q --offline --release --test adversarial

echo "== closure oracle and incremental closure (bounded wall-clock)"
# The full closure is the delta closure started from empty, so it is
# checked against a naive fixpoint reasoner that shares no code with
# the engine (closure and inconsistencies, on generated ontologies, the
# curated KG and seeded worlds), and the delta closure against a full
# re-materialization, optimized. A what-if world is closed only under
# the rules relevant to what CQ3 reads: on generated ontologies, deltas
# and read sets the relevant rules must give what every rule gives on
# the read set, and every what-if must answer as a world closed under
# every rule does. prp-spo2 is checked alone, from empty and by delta,
# and so is every rule of the program, one minimal ontology each. The
# closures of the curated world and the benchmark's 400- and
# 2000-recipe worlds, too large for the naive fixpoint, are pinned by
# digest.
timeout 240 cargo test -q --offline --release --test closure_oracle --test incremental_closure \
    --test what_if_worlds --test closure_digest
timeout 240 cargo test -q --offline --release -p feo-owl --test closure_oracle --test prp_spo2 \
    --test rules

echo "== evaluator oracle (bounded wall-clock)"
# Query answers are checked against a naive evaluator that shares no
# code with the engine (nested loops over a Vec of triples: no index,
# no statistics, no plan): the planner's test queries on seeded
# synthetic KGs, guarded or not; generated queries, ordered and sliced,
# on memory, mmap and overlay views under every join operator, plus
# conformance cases for the scoping rules and for ORDER BY; and the six
# explanation templates on the curated KG and the benchmark's world,
# with Table I's rows. Ordered results compare in order: the runs of
# equal ORDER BY keys in sequence, each run as a multiset. A result cell
# must share its dictionary's strings (memory, segment and overlay spill),
# and one pass of the benchmark's five query shapes on its reopened store
# must stay under 0.4x the allocations of owned cells and per-row Vecs
# (its own binary: the counting allocator sees every thread).
timeout 240 cargo test -q --offline --release \
    --test plan_equivalence --test evaluator_oracle --test template_oracle \
    --test shared_terms --test row_allocations

echo "== join equivalence (bounded wall-clock)"
# The two join operators, nested and hash, forced onto every step or
# chosen by the planner and its 64-row gate, must return byte-identical
# row-ordered tables on the memory and mmap backends, overlays included.
timeout 240 cargo test -q --offline --release --test join_equivalence

echo "== filter placement and correlated sub-patterns (bounded wall-clock)"
# A FILTER run where its variables are final must return the table (or
# the error) it returns at group end, on memory, mmap and overlay views;
# an EXISTS / OPTIONAL evaluated once per distinct key must agree row by
# row with the sub-pattern run as its own query; replayed OPTIONAL rows
# must be charged to the solution budget; and CQ3 must run its NOT
# EXISTS once per distinct ?property (its own binary: counter deltas).
timeout 180 cargo test -q --offline --release --test filter_placement --test exists_once_per_key

echo "== prepared templates (bounded wall-clock)"
# Explanations run templates parsed and planned once per base and bound
# to the question by a seed row: every template's table must equal its
# text form run through feo_sparql::query (curated KG on a memory and a
# store-opened base, the benchmark world at head and after 16 commits),
# explain must make no plan-cache lookup, and CQ1-CQ3 plans must be the
# same at every epoch of a 64-commit chain. The answers themselves are
# pinned too (the benchmark only compares a build with itself): a digest
# of 141 explanations and their bindings on the benchmark's world.
timeout 180 cargo test -q --offline --release --test prepared_templates --test answer_digest

echo "== batch parallelism (bounded wall-clock, FEO_THREADS=4)"
# Threads exist per question only: explain_batch at Fixed(2/4/8) must be
# slot-for-slot identical to Off, and cross-thread cancellation and
# budget trips must yield typed Exhausted partials — never a panic or a
# torn closure. Parallelism::Auto honours FEO_THREADS, so the serve
# suite (whose /explain sizes its batch from it) runs at 4 batch workers
# here whatever the host's core count, optimized: its cancellation tests
# wait on engine state, not on sleeps a fast build could outrun.
FEO_THREADS=4 timeout 240 cargo test -q --offline --release \
    --test parallel_determinism --test parallel_stress
FEO_THREADS=4 timeout 240 cargo test -q --offline --release -p feo-serve

echo "== epoch ledger (bounded wall-clock)"
# Time travel must be byte-identical (explain_as_of replays old answers
# exactly), branches must never perturb parent epochs, and the hash
# chain must verify.
timeout 240 cargo test -q --offline --release --test ledger

echo "== persistent store suite (bounded wall-clock)"
# The mmap-backed disk store must be a representation change only:
# differential equivalence against the memory backend,
# exhaustive corruption fault injection with typed errors,
# binary-format fuzzing, and a warm-restart round trip through the real
# binary (`--store` bootstrap → fresh-process reopen → `feo compact` →
# byte-identical answers throughout). The segment writer merges sorted
# runs: its files must be byte-identical to a naive collect-and-sort
# writer's on generated chains, and one compaction of the benchmark's
# 16-layer chain must stay under 0.1x the allocations and 0.25x the
# bytes of that writer (its own binary: the counting allocator sees
# every thread). A compaction adopts the segment it wrote instead of
# reopening it: the adopted segment must read exactly as a verified
# `Segment::open` of the same file, its carried base hash must be the
# content's, and a compacted engine's history must hash as a cold
# open's. Version-1 segment, WAL and MANIFEST files are refused with a
# typed error (there is no migration).
timeout 300 cargo test -q --offline --release --test store_equivalence --test compaction_allocations
timeout 180 cargo test -q --offline --release -p feo-rdf --test store_corruption --test segment_merge
timeout 180 cargo test -q --offline --release -p feo-rdf --test fuzz_store
timeout 300 cargo test -q --offline --release --test warm_restart

echo "== JSON wire format fuzzing (bounded wall-clock)"
# One module reads every request body and writes every response: text
# built from JSON tokens, cut escapes, lone surrogates, raw controls and
# nesting past the cap must parse or fail, never panic; every escaped
# string and every rendered explanation, outcome and table must read
# back. A reader that slows down with input size fails the timeout.
timeout 120 cargo test -q --offline --release -p feo-core --test fuzz_json

echo "== serve: HTTP service end-to-end (boot, degrade, shed, drain)"
# Boot the real binary on an ephemeral port, drive it with curl, then
# SIGTERM it and require a clean drain (exit 0). Tenant quota is set
# aggressively low so a same-tenant double-tap deterministically sheds;
# every other probe uses its own tenant header.
SERVE_LOG=$(mktemp)
SERVE_OUT=$(mktemp)
SERVE_HDR=$(mktemp)
./target/release/feo serve --port 0 --commit pregnant \
    --tenant-rate 0.01 --tenant-burst 1 >"$SERVE_LOG" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^feo-serve listening on //p' "$SERVE_LOG" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve: server never announced its address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
BASE="http://$ADDR"

curl -fsS "$BASE/health" | grep -q '"status":"ok"'
curl -fsS "$BASE/ready" >/dev/null

# Happy path: a complete batch answers 200 with complete:true.
code=$(curl -sS -o "$SERVE_OUT" -w '%{http_code}' -H 'X-Feo-Tenant: ci-happy' \
    -d '{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"}]}' \
    "$BASE/explain")
if [ "$code" != 200 ] || ! grep -q '"complete":true' "$SERVE_OUT"; then
    echo "serve: happy-path explain failed (HTTP $code)" >&2
    cat "$SERVE_OUT" >&2
    exit 1
fi

# Budget trip: max_rounds 1 trips on the why-eat, whose delta closure
# takes a second round on the batch's shared guard (the pregnancy
# what-if alone completes within one round), so the response must be a
# structured 206 naming the exhausted resource.
code=$(curl -sS -o "$SERVE_OUT" -w '%{http_code}' -H 'X-Feo-Tenant: ci-degraded' \
    -d '{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"},{"type":"what-if","hypothesis":"pregnant"}],"budget":{"max_rounds":1}}' \
    "$BASE/explain")
if [ "$code" != 206 ] || ! grep -q '"resource":"rounds"' "$SERVE_OUT"; then
    echo "serve: budget trip did not degrade to 206 (HTTP $code)" >&2
    cat "$SERVE_OUT" >&2
    exit 1
fi

# Quota: the second rapid request from one tenant sheds with 429 and a
# Retry-After hint — never a 5xx.
curl -fsS -H 'X-Feo-Tenant: ci-quota' \
    -d '{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"}]}' \
    "$BASE/explain" >/dev/null
code=$(curl -sS -o "$SERVE_OUT" -D "$SERVE_HDR" -w '%{http_code}' \
    -H 'X-Feo-Tenant: ci-quota' \
    -d '{"questions":[{"type":"why-eat","food":"CauliflowerPotatoCurry"}]}' \
    "$BASE/explain")
if [ "$code" != 429 ] || ! grep -qi '^Retry-After:' "$SERVE_HDR"; then
    echo "serve: tenant quota did not shed with 429 + Retry-After (HTTP $code)" >&2
    cat "$SERVE_HDR" "$SERVE_OUT" >&2
    exit 1
fi

# SPARQL over HTTP with time travel to the pre-commit epoch.
code=$(curl -sS -o "$SERVE_OUT" -w '%{http_code}' -H 'X-Feo-Tenant: ci-query' \
    -d '{"sparql":"ASK { ?s ?p ?o }","as_of":0}' "$BASE/query")
if [ "$code" != 200 ] || ! grep -q '"boolean":true' "$SERVE_OUT"; then
    echo "serve: as_of query failed (HTTP $code)" >&2
    cat "$SERVE_OUT" >&2
    exit 1
fi

# Graceful shutdown: SIGTERM drains and the process exits 0.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve: process did not exit cleanly after SIGTERM" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
rm -f "$SERVE_LOG" "$SERVE_OUT" "$SERVE_HDR"

echo "== benchmark: its own tests + two traced smoke runs"
# The benchmark judges every PR, so it is gated too: its unit and smoke
# tests, then traced runs that exit non-zero on a wrong answer, a
# refused or degraded request, or a missing layer metric. The counts on
# the explain_inproc result line are a function of seed 1 alone, so they
# are pinned: a closure that derives more, fewer or later, or a query
# set that returns other rows, fails here instead of only shifting a
# timing.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
TRACE_RESULT=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload explain_inproc --seed 1 --smoke --trace 1 | tail -n 1)
for pinned in owl.delta_inferred:2733 owl.delta_rounds:251 \
    sparql.result_rows:3895 sparql.join_nested:3203 sparql.join_hash:0 \
    sparql.qset_rows:3164 sparql.qset_join_nested:214 sparql.qset_join_hash:3; do
    if ! grep -qF "\"${pinned%%:*}\":{\"value\":${pinned##*:}," <<<"$TRACE_RESULT"; then
        echo "benchmark: ${pinned%%:*} is no longer ${pinned##*:}" >&2
        echo "$TRACE_RESULT" >&2
        exit 1
    fi
done

# The served path must not stall. A reply split over two writes waits
# out the client's delayed ACK (serve.health_rtt_p50_ms 44) and an
# accept loop that sleeps instead of waiting makes every new connection
# wait out the sleep (serve.conn_setup_p50_ms 10); without either both
# read under 0.1 ms, so a limit of 5 tests the mechanism, not the host.
HTTP_RESULT=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload explain_http --seed 1 --smoke --trace 1 | tail -n 1)
if ! grep -qF '"correct":true' <<<"$HTTP_RESULT" || ! grep -qF '"failed":0,' <<<"$HTTP_RESULT"; then
    echo "benchmark: the explain_http smoke run is not correct with 0 failed" >&2
    echo "$HTTP_RESULT" >&2
    exit 1
fi
for stall in serve.health_rtt_p50_ms serve.conn_setup_p50_ms; do
    value=$(grep -oE "\"$stall\":\{\"value\":[0-9.eE+-]+" <<<"$HTTP_RESULT" | sed 's/.*://')
    if [ -z "$value" ] || ! awk -v v="$value" 'BEGIN{exit !(v < 5)}'; then
        echo "benchmark: $stall is ${value:-missing}, not under 5 ms" >&2
        echo "$HTTP_RESULT" >&2
        exit 1
    fi
done

echo "CI green."
