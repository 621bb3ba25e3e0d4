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

# The relational suites with borrowed-row poisoning: every operator that
# reuses a scratch row overwrites the row it last handed out before the
# next one, so a keeper that forgot to copy fails.
echo "== borrowed-row poison mode"
go test -tags borrowpoison ./internal/relstore ./internal/conj ./internal/extract ./internal/datalogeval ./internal/incremental .

# Ten seconds per fuzz target; the list is in fuzz.sh, which CI runs too.
sh ./fuzz.sh

# One iteration each of the root module's graph-build benchmarks (co-actor
# extraction, the same-part extraction through the join pipeline, the four
# representation conversions, one sub-benchmark each) and of its
# per-representation PageRank, and of the live single-tuple update
# benchmark: they must compile and run; the numbers gate nothing.
echo "== graph-build benchmarks (smoke)"
go test -run '^$' -bench 'ExtractCoactors|ExtractSamePart|ConvertRepresentations|PageRank' -benchtime 1x .
go test -run '^$' -bench LiveSingleTupleUpdate -benchtime 1x ./internal/incremental

# The nested bench module is outside ./...; its one-second runs are
# oracle checks (extraction rows, on the default planner path through
# Engine.Extract and on the forced join pipeline; degrees and PageRank of
# all five representations; Reach closure == independent BFS, which covers the
# datalogeval caller of the conjunctive evaluator; served neighbors ==
# fresh Extract after read-only traffic and after mixed traffic, which
# covers the incremental caller), not measurements.
echo "== bench module (vet, tests, oracle smoke)"
go vet -C bench ./...
go test -C bench ./...
go run -C bench . -workload extract-condensed -seconds 1
go run -C bench . -workload extract-expand -seconds 1
go run -C bench . -workload dedup-analytics -seconds 1
go run -C bench . -workload program-recursive -seconds 1
go run -C bench . -workload serve-read -seconds 1
go run -C bench . -workload serve-mixed -seconds 1

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    staticcheck "$@"
else
    echo "== staticcheck: not installed, skipped (CI runs it)"
fi

echo "lint OK"
