package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages under the byte-identical-output
// contract: the data generators (same seed, same tables, at any worker
// count), the worker-pool substrate every chunk-ordered merge builds on,
// the chunk-merging consumers (workload snapshots, BSP supersteps,
// vertex-centric runs) and the serial builders whose output is pinned
// byte for byte (dedup conversions, incremental delta application).
var deterministicPkgs = map[string]bool{
	"graphgen/internal/datagen":       true,
	"graphgen/internal/parallel":      true,
	"graphgen/internal/workload":      true,
	"graphgen/internal/bsp":           true,
	"graphgen/internal/dedup":         true,
	"graphgen/internal/vertexcentric": true,
	"graphgen/internal/incremental":   true,
}

// DeterminismAnalyzer forbids the three nondeterminism sources that have
// no place in the deterministic packages:
//
//   - wall-clock reads (time.Now/Since/Until): output must be a pure
//     function of the seed and inputs;
//   - the global math/rand source (rand.Intn, rand.Shuffle, ...): all
//     randomness flows through explicitly seeded *rand.Rand values
//     (rand.New(rand.NewSource(seed))), or it differs between runs;
//   - appending to a slice that outlives the loop while ranging over a
//     map: Go randomizes map iteration order, so the append order — and
//     anything derived from it (weighted picks, virtual-node numbering,
//     emitted rows) — changes run to run. The accepted idiom is
//     collect-then-sort, which the analyzer recognizes: a sort call
//     (package sort, slices.Sort*, or a repo-local *Sort* helper) after
//     the loop in the same function exempts it.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "deterministic packages: no wall clocks, no global rand, no ordered appends from map iteration",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f == nil || f.Pkg() == nil {
				return true
			}
			sig, _ := f.Type().(*types.Signature)
			if sig == nil || sig.Recv() != nil {
				return true // methods on *rand.Rand etc. are seeded and fine
			}
			switch f.Pkg().Path() {
			case "time":
				switch f.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(), "time.%s in a deterministic package; output must be a pure function of seed and inputs", f.Name())
				}
			case "math/rand", "math/rand/v2":
				// Constructors are how the seeded path starts; every other
				// package-level function draws from the global source.
				if !strings.HasPrefix(f.Name(), "New") {
					pass.Reportf(call.Pos(), "global math/rand source (rand.%s) in a deterministic package; draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", f.Name())
				}
			}
			return true
		})
		funcUnits(file, func(_ string, body *ast.BlockStmt) {
			mapOrderUnit(pass, body)
		})
	}
	return nil
}

// mapOrderUnit flags ordered appends fed by map iteration within one
// function body.
func mapOrderUnit(pass *Pass, body *ast.BlockStmt) {
	// Sort calls, by position: a sort after the loop blesses the
	// collect-then-sort idiom.
	var sortPositions []int
	inspectUnit(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		// Package sort, slices.Sort*, and repo-local sort helpers
		// (mergeSortBy and friends) all count as blessing sorts.
		if f.Pkg().Path() == "sort" || (f.Pkg().Path() == "slices" && strings.HasPrefix(f.Name(), "Sort")) || strings.Contains(f.Name(), "Sort") {
			sortPositions = append(sortPositions, int(call.Pos()))
		}
		return true
	})
	sortedAfter := func(pos int) bool {
		for _, sp := range sortPositions {
			if sp > pos {
				return true
			}
		}
		return false
	}

	inspectUnit(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); !isMap {
			return true
		}
		inspectUnit(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			root := rootIdent(call.Args[0])
			if root == nil {
				return true
			}
			obj := pass.Info.Uses[root]
			if obj == nil {
				obj = pass.Info.Defs[root]
			}
			// Only slices that outlive the loop order-capture the map
			// iteration; a slice scoped inside the loop body restarts
			// every iteration.
			if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
				return true
			}
			if sortedAfter(int(rng.End())) {
				return true
			}
			pass.Reportf(call.Pos(), "append to %s while ranging over a map captures random iteration order; iterate sorted keys or sort the result before it is consumed", root.Name)
			return true
		})
		return true
	})
}
