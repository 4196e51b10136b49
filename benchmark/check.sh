#!/usr/bin/env bash
# Repeatability checks for the benchmark. Run from anywhere:
#
#   benchmark/check.sh stability [seed]   two full sets of runs (every workload
#                                         in a fresh process, order reversed for
#                                         the second set); prints, per workload
#                                         and end-to-end metric, how much worse
#                                         the second set is beside the metric's
#                                         bound; exits 1 when one exceeds it
#   benchmark/check.sh spread [runs]      `runs` seeds per workload (default 10);
#                                         prints each metric's interquartile
#                                         range as a share of its median beside
#                                         a third of the bound; exits 1 when a
#                                         spread exceeds the bound itself
#
# Bounds, workloads and the run length come from BENCHMARK.json. Results land
# in benchmark/out/check-*.jsonl, one result line per run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"

mode="${1:-}"
case "$mode" in
stability | spread) ;;
*)
    sed -n '2,17p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
    exit 2
    ;;
esac

mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/feo-benchmark"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
mapfile -t workloads < <(python3 -c 'import json,sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")

# run <result-file> <workload> <seed>: one fresh process, result line appended.
run() {
    local line
    line="$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)"
    printf '{"workload":"%s","seed":%s,"result":%s}\n' "$2" "$3" "$line" >>"$1"
}

if [ "$mode" = stability ]; then
    seed="${2:-1}"
    first="$out/check-stability-1.jsonl"
    second="$out/check-stability-2.jsonl"
    : >"$first"
    : >"$second"
    for w in "${workloads[@]}"; do run "$first" "$w" "$seed"; done
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do run "$second" "${workloads[i]}" "$seed"; done
    python3 - "$root/BENCHMARK.json" "$first" "$second" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
load = lambda p: {r["workload"]: r["result"] for r in map(json.loads, open(p))}
first, second = load(sys.argv[2]), load(sys.argv[3])
bad = 0
print(f'{"workload":<18} {"metric":<12} {"first":>12} {"second":>12} {"worse by":>9} {"bound":>6}')
for w in (x["name"] for x in spec["workloads"]):
    for m in spec["end_to_end"]:
        a = first[w]["metrics"][m["name"]]["value"]
        b = second[w]["metrics"][m["name"]]["value"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = ""
        if worse > m["bound"]:
            bad += 1
            flag = "  EXCEEDS"
        elif worse > m["bound"] / 2:
            flag = "  over half"
        print(f'{w:<18} {m["name"]:<12} {a:>12.5g} {b:>12.5g} {worse:>+9.1%} {m["bound"]:>6.0%}{flag}')
    for run in (first[w], second[w]):
        if not run["correct"] or run["failed"]:
            bad += 1
            print(f'{w}: {run["failed"]} failed operations')
sys.exit(1 if bad else 0)
EOF
else
    runs="${2:-10}"
    results="$out/check-spread.jsonl"
    : >"$results"
    for w in "${workloads[@]}"; do
        for ((seed = 1; seed <= runs; seed++)); do run "$results" "$w" "$seed"; done
    done
    python3 - "$root/BENCHMARK.json" "$results" <<'EOF'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
rows = [json.loads(line) for line in open(sys.argv[2])]
bad = 0
print(f'{"workload":<18} {"metric":<12} {"median":>12} {"iqr/median":>10} {"bound/3":>8}')
for w in (x["name"] for x in spec["workloads"]):
    mine = [r["result"] for r in rows if r["workload"] == w]
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in mine]
        q = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q[2] - q[0]) / median
        flag = ""
        # The set-up spread is reported but not held to the bound.
        if spread > m["bound"] and m["name"] != "setup_s":
            bad += 1
            flag = "  EXCEEDS BOUND"
        elif spread > m["bound"] / 3:
            flag = "  over a third"
        print(f'{w:<18} {m["name"]:<12} {median:>12.5g} {spread:>10.1%} {m["bound"] / 3:>8.1%}{flag}')
    failed = sum(r["failed"] for r in mine)
    if failed or not all(r["correct"] for r in mine):
        bad += 1
        print(f"{w}: {failed} failed operations")
sys.exit(1 if bad else 0)
EOF
fi
