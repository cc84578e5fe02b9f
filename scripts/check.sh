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

echo "== internal/storm line-count ratchet =="
# Non-test lines of the runtime are a tracked metric (ROADMAP aim 2):
# they may only go down. Lower STORM_LINES_MAX with the PR that shrinks them.
STORM_LINES_MAX=5166
lines="$(find internal/storm -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
[ "$lines" -le "$STORM_LINES_MAX" ] || { echo "internal/storm has $lines non-test lines, more than $STORM_LINES_MAX" >&2; exit 1; }

echo "== go test -race (every suite; internal/lint's self-checks are the dttlint gate) =="
go test -race -count 1 ./...
# The one repetition that means something: two workers saturating each
# other at tiny inboxes must finish, and a credit bug is a rare interleaving.
go test -race -run 'TestNetworkedSaturationNoDeadlock' -count 3 -timeout 120s ./internal/storm/

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
