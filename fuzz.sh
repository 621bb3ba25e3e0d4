#!/bin/sh
# Ten seconds of fuzzing per target, past each target's committed corpus
# or seed inputs (those already run in `go test ./...`). ./lint.sh and the
# CI quick job both run this one list: a new fuzz target goes here.
#
# Usage: ./fuzz.sh     (from the repository root)
set -eu

fuzz() { # package target
    echo "== fuzz $2"
    go test -run '^$' -fuzz "^$2\$" -fuzztime 10s "$1"
}

# Random mutation sequences on a two-layer co-occurrence schema: after
# every flush the derived analytics view equals a from-scratch Freeze and
# the live edges a fresh extraction.
fuzz ./internal/incremental FuzzLiveView

# Arbitrary source text: every error is a positioned SyntaxError, every
# parsed program renders to source that re-parses stably, and Parse
# succeeds exactly when ParseProgram does without derived predicates.
fuzz ./internal/datalog FuzzParse

# Random small directed graphs and source lists, repeated and unknown IDs
# included: batched bit-parallel closeness equals the relaxation reference.
fuzz ./internal/workload FuzzCloseness

# Arbitrary "name?query" spellings of a served analysis, parsed as a
# request's query string: ParseParams never panics, accepts only catalogued
# names, and every canonical form re-parses to itself with parameters that
# give the same Analyze result.
fuzz ./internal/workload FuzzAnalysisParams

# Random relations over mixed-type keys (Int 5 vs String "5", separators
# inside strings, int64 extremes), probed at other column positions:
# RowSet and the grouped join builds match the AppendRowKey-keyed map
# reference.
fuzz ./internal/relstore FuzzRowSet

# Random insert / delete / re-insert / DeleteWhere / CreateIndex sequences
# with duplicate rows, the same slice inserted twice and the sequence
# counter brought to its limit: Table matches the slice-table reference in
# rows, index buckets, NDistinct and the change stream.
fuzz ./internal/relstore FuzzTable

# Arbitrary CSV text: LoadCSV never panics, a successful load upholds the
# type-inference contract, and reloading a rendered table is a fixpoint.
fuzz ./internal/relstore FuzzLoadCSV

# Arbitrary comment text through graphlint's suppression-directive parser:
# no panic, an accepted directive names a known analyzer and carries a
# justification, and a canonical rendering re-parses to the same directive.
fuzz ./internal/analyzers FuzzDirectiveParse

# Random single-layer symmetric condensed graphs with repeated members,
# tombstoned reals and symmetric direct edges: DEDUP-2 keeps the logical
# edges and the Appendix-B invariants, and emits no dead virtual slot.
fuzz ./internal/dedup FuzzDedup2

# Random multi-layer, asymmetric condensed graphs with repeated edges,
# tombstoned reals and one-way direct edges: BITMAP-1 and BITMAP-2 keep the
# logical edges with no duplicate path, and equal the EXP oracle, once per
# neighbor and with no dead virtual slot, across DeleteVertex/Compact steps.
fuzz ./internal/dedup FuzzBitmap

# Random multi-layer edge sequences with repeated pairs: the count-then-fill
# Graph.Load equals adding the same edges one at a time, row for row, with
# zero arena slack; after random RemoveVirtualNode steps, the virtual-slot
# compaction drops exactly the dead slots and changes no neighbor list.
fuzz ./internal/core FuzzLoad

# Random AddMember / Connect* / Disconnect* / AddDirectEdgeIdx /
# RemoveVirtualNode / DeleteVertexID / Compact / SortAdjacency / Clone
# sequences: every adjacency row holds a map-of-multisets model's entries,
# and VerifyLayout holds after every step (rows inside their arena, no
# overlap, slack counted exactly and at most half the arena).
fuzz ./internal/core FuzzAdjacency

# Small bag tables with repeated rows and actors that are no vertex, over
# direct, two- and three-segment and default-planner plans: Extract's
# logical edges equal a map-based evaluation of the body, and RepEdges and
# SkippedRows count each segment's distinct rows once, streaming and under
# the materializing oracle.
fuzz ./internal/extract FuzzExtractRows
