#!/usr/bin/env bash
# bench.sh — the PR's benchmark snapshot, runnable locally and from
# scripts/check.sh.
#
#   scripts/bench.sh                 # run + write BENCH_PR12.json
#   BENCH_REPS=5 scripts/bench.sh    # more interleaved repetitions
#
# Runs the generated Query I, IV and VI topology benchmarks (plus the
# passes-off Query IV baseline and Query IV with marker-cut recovery
# on) with allocation accounting, keeps each benchmark's best ns/op
# over BENCH_REPS interleaved repetitions, and writes BENCH_PR12.json:
# ns/op, events/sec (the benches' tuples/s metric) and allocs/op per
# benchmark — all three from that one best run — plus the chain-fusion
# + combiner speedup on Query IV (passes on vs off) and the columnar
# hot path's allocation reduction on Query IV against the boxed
# baseline committed in BENCH_PR7.json.
#
# Since PR 12 every benchmark iteration starts with empty sync.Pools
# (benchQueryCfg in bench_test.go), which makes allocs/op repeat to
# ~1% (single samples stray a few percent on a busy box) but also
# ~2400 higher per op on Query IV than the snapshots
# through BENCH_PR10.json, which were taken with whatever the pools
# carried over. Compare allocs/op across that line only with both
# sides re-measured (EXPERIMENTS.md has the parent's numbers); the
# PR 7 baseline predates it, so query_iv_alloc_reduction now
# understates the reduction by a few percent.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_REPS="${BENCH_REPS:-3}"
OUT="${1:-BENCH_PR12.json}"

# The pre-columnar allocs/op on generated Query IV, read from the
# committed PR 7 snapshot so the reported reduction always divides the
# same baseline.
BASE_ALLOCS="$(awk -F'"allocs_per_op": ' '/"BenchmarkQueryIVGenerated":/ { sub(/[^0-9].*/, "", $2); print $2; exit }' BENCH_PR7.json)"

BENCHES=(
    BenchmarkQueryIGenerated
    BenchmarkQueryIVGenerated
    BenchmarkQueryIVGeneratedNoOpt
    BenchmarkQueryIVGeneratedRecovery
    BenchmarkQueryIVGeneratedDense
    BenchmarkQueryIVGeneratedDenseNoOpt
    BenchmarkQueryVIGenerated
)

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Interleave the benchmarks across repetitions so machine-load drift
# hits them all equally; the best (minimum-ns/op) line per benchmark
# is kept below.
for i in $(seq "$BENCH_REPS"); do
    for b in "${BENCHES[@]}"; do
        go test -run xxx -bench "${b}\$" -benchtime 3x -benchmem . | tee -a "$raw"
    done
done

awk -v out="$OUT" -v base_allocs="$BASE_ALLOCS" '
    /^Benchmark/ {
        # Benchmark lines carry unit-tagged fields; pick each metric by
        # scanning for its unit token so the column order does not matter.
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = eps = al = ""
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "tuples/s") eps = $i
            if ($(i+1) == "allocs/op") al = $i
        }
        if (ns == "") next
        if (!(name in best) || ns + 0 < best[name] + 0) {
            best[name] = ns; tps[name] = eps; allocs[name] = al
            if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        }
    }
    END {
        printf "{\n" > out
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "  \"%s\": {\"ns_per_op\": %.0f, \"events_per_sec\": %.0f, \"allocs_per_op\": %.0f},\n", \
                name, best[name], tps[name], allocs[name] >> out
        }
        # The recorded speedup is the dense pair: the optimization
        # passes measured at their operating point (see bench_test.go).
        on = best["BenchmarkQueryIVGeneratedDense"] + 0
        off = best["BenchmarkQueryIVGeneratedDenseNoOpt"] + 0
        if (on > 0 && off > 0) sp = off / on; else sp = 0
        printf "  \"query_iv_fusion_speedup\": %.3f,\n", sp >> out
        # Allocation reduction of the columnar hot path: the boxed
        # PR 7 allocs/op on generated Query IV over the current run.
        cur = allocs["BenchmarkQueryIVGenerated"] + 0
        if (cur > 0 && base_allocs + 0 > 0) ar = base_allocs / cur; else ar = 0
        printf "  \"query_iv_alloc_reduction\": %.2f\n}\n", ar >> out
        if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    }
' "$raw"

echo "== bench snapshot ($OUT) =="
cat "$OUT"
