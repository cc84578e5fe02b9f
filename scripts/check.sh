#!/usr/bin/env bash
# check.sh — the repo's CI gate, runnable locally from any cwd.
#
#   scripts/check.sh                # everything below, 5 s per fuzz target
#   FUZZTIME=30s scripts/check.sh   # longer fuzz smokes
#
# What each step guards is DESIGN.md §6's to explain. The performance
# gates are Go (internal/bench/gate.go); the yardstick a change is judged
# by is benchmark/ (BENCHMARK.json), which this script only keeps building.
set -euo pipefail
cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-5s}"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
[ -z "$unformatted" ] || { echo "gofmt needed on: $unformatted" >&2; exit 1; }

echo "== go vet, go build =="
go vet ./...
go build ./...

echo "== internal/storm and internal/core line-count ratchets =="
# Non-test lines of the runtime and of the template core are tracked
# metrics (ROADMAP aim 2): they may only go down. Lower a *_LINES_MAX
# with the PR that shrinks its package.
STORM_LINES_MAX=5107
CORE_LINES_MAX=2718
for ratchet in "internal/storm $STORM_LINES_MAX" "internal/core $CORE_LINES_MAX"; do
    set -- $ratchet
    lines="$(find "$1" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
    [ "$lines" -le "$2" ] || { echo "$1 has $lines non-test lines, more than $2" >&2; exit 1; }
done

echo "== go test -race (every suite; internal/lint's self-checks are the dttlint gate) =="
go test -race -count 1 ./...
# The one repetition that means something: two workers saturating each
# other at tiny inboxes must finish, and a credit bug is a rare interleaving.
# Three runs with a timeout each: one -race run takes up to a minute on a
# 2-vCPU box, and the deadlock this guards against hangs indefinitely.
for run in 1 2 3; do
    go test -race -run 'TestNetworkedSaturationNoDeadlock' -count 1 -timeout 150s ./internal/storm/
done

echo "== benchmark module (vet + tests) =="
# A module of its own, outside the root ./... — without this step a
# runtime refactor can break the yardstick unnoticed.
(cd benchmark && go vet ./... && go test ./...)

echo "== performance gates (transport, fusion dense guard, allocation) =="
go run ./cmd/dttbench -gate

echo "== fuzz smokes (${FUZZTIME} per target, targets discovered) =="
# A found counterexample lands in the package's testdata/fuzz and fails the run.
for pkg in $(go list ./...); do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
        go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
    done
done

echo "== ok =="
