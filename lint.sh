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

# Ten seconds of fuzzing past the committed FuzzLiveView corpus: derived
# live views == Freeze, live edges == a fresh extraction.
echo "== fuzz live views"
go test -run '^$' -fuzz '^FuzzLiveView$' -fuzztime 10s ./internal/incremental

# Ten seconds past the committed FuzzParse corpus: every error is a
# positioned SyntaxError, renderings re-parse stably, and Parse accepts
# exactly the programs ParseProgram accepts without derived predicates.
echo "== fuzz parser"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/datalog

# Ten seconds past the committed FuzzCloseness corpus: the batched
# bit-parallel closeness == the relaxation reference on decoded graphs.
echo "== fuzz closeness"
go test -run '^$' -fuzz '^FuzzCloseness$' -fuzztime 10s ./internal/workload

# Ten seconds past the committed FuzzRowSet corpus: the value-hashed row
# table (distinct, join builds, tuple sets) == the AppendRowKey-keyed map
# reference on decoded relations.
echo "== fuzz row table"
go test -run '^$' -fuzz '^FuzzRowSet$' -fuzztime 10s ./internal/relstore

# Ten seconds past the committed FuzzTable corpus: Table (sequence numbers,
# full-row locator) == the slice-table reference over decoded mutation
# sequences.
echo "== fuzz table"
go test -run '^$' -fuzz '^FuzzTable$' -fuzztime 10s ./internal/relstore

# Ten seconds past the committed FuzzLoadCSV corpus: LoadCSV never panics,
# a successful load upholds the type-inference contract, and reloading a
# rendered table is a fixpoint.
echo "== fuzz CSV load"
go test -run '^$' -fuzz '^FuzzLoadCSV$' -fuzztime 10s ./internal/relstore

# Ten seconds of FuzzDirectiveParse: graphlint's suppression-directive
# parser never panics, accepts only known analyzers with a justification,
# and re-parses a canonically rendered directive to itself.
echo "== fuzz lint directives"
go test -run '^$' -fuzz '^FuzzDirectiveParse$' -fuzztime 10s ./internal/analyzers

# Ten seconds of FuzzDedup2: on decoded single-layer symmetric graphs with
# tombstoned reals and direct edges, DEDUP-2 keeps the logical edges and the
# Appendix-B invariants and emits no tombstoned virtual slot.
echo "== fuzz DEDUP-2"
go test -run '^$' -fuzz '^FuzzDedup2$' -fuzztime 10s ./internal/dedup

# Ten seconds past the committed FuzzBitmap corpus: on decoded multi-layer
# asymmetric graphs, BITMAP-1 and BITMAP-2 keep the logical edges with no
# duplicate path and equal the EXP oracle, once per neighbor, across
# DeleteVertex/Compact steps.
echo "== fuzz BITMAP"
go test -run '^$' -fuzz '^FuzzBitmap$' -fuzztime 10s ./internal/dedup

# Ten seconds of FuzzLoad: on decoded multi-layer edge sequences with
# repeated pairs, Graph.Load equals adding the same edges one at a time, row
# for row, with every row at len == cap; after random RemoveVirtualNode
# steps, CompactVirtual drops exactly the dead slots and changes no
# neighbor list.
echo "== fuzz graph load"
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s ./internal/core

# One iteration each of the root module's graph-build benchmarks (co-actor
# extraction, the same-part extraction through the join pipeline, the four
# representation conversions, one sub-benchmark each) and of its
# per-representation PageRank: they must compile and run; the numbers gate
# nothing.
echo "== graph-build benchmarks (smoke)"
go test -run '^$' -bench 'ExtractCoactors|ExtractSamePart|ConvertRepresentations|PageRank' -benchtime 1x .

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
