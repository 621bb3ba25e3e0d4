#!/bin/sh
# One-shot local lint: everything the CI quick job gates on, in order,
# plus staticcheck when it is installed (CI pins 2025.1.1; install with
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
# — it needs a Go 1.23+ toolchain).
#
# Usage: ./lint.sh [package patterns]     (defaults to ./...)
set -eu

[ $# -eq 0 ] && set -- ./...

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
    echo "files need gofmt:" >&2
    echo "$out" >&2
    exit 1
fi

echo "== go vet"
go vet "$@"

echo "== graphlint"
go run ./cmd/graphlint -counts "$@"

# Ten seconds of fuzzing past the committed FuzzLiveView corpus: derived
# live views == Freeze, live edges == a fresh extraction.
echo "== fuzz live views"
go test -run '^$' -fuzz '^FuzzLiveView$' -fuzztime 10s ./internal/incremental

# Ten seconds past the committed FuzzCloseness corpus: the batched
# bit-parallel closeness == the relaxation reference on decoded graphs.
echo "== fuzz closeness"
go test -run '^$' -fuzz '^FuzzCloseness$' -fuzztime 10s ./internal/workload

# Ten seconds past the committed FuzzRowSet corpus: the value-hashed row
# table (distinct, join builds, tuple sets) == the AppendRowKey-keyed map
# reference on decoded relations.
echo "== fuzz row table"
go test -run '^$' -fuzz '^FuzzRowSet$' -fuzztime 10s ./internal/relstore

# The nested bench module is outside ./...; its one-second runs are
# oracle checks (extraction rows, on the default planner path through
# Engine.Extract and on the forced join pipeline; degrees and PageRank of
# all five representations; Reach closure == independent BFS, which covers the
# datalogeval caller of the conjunctive evaluator; served neighbors ==
# fresh Extract, which covers the incremental caller), not measurements.
echo "== bench module (vet, tests, oracle smoke)"
go vet -C bench ./...
go test -C bench ./...
go run -C bench . -workload extract-condensed -seconds 1
go run -C bench . -workload extract-expand -seconds 1
go run -C bench . -workload dedup-analytics -seconds 1
go run -C bench . -workload program-recursive -seconds 1
go run -C bench . -workload serve-mixed -seconds 1

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    staticcheck "$@"
else
    echo "== staticcheck: not installed, skipped (CI runs it)"
fi

echo "lint OK"
