package vertexcentric

import (
	"math"
	"testing"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
	"graphgen/internal/parallel"
)

func testGraph(t *testing.T, seed int64) *core.Graph {
	t.Helper()
	return datagen.Condensed(datagen.CondensedConfig{
		Seed: seed, RealNodes: 50, VirtualNodes: 25, MeanSize: 5, StdDev: 2,
	})
}

// multiChunkGraph is large enough that the worker pool splits a superstep
// into workers chunks, so Run's fan-out and per-chunk aggregates run (and
// -race sees them).
func multiChunkGraph(t *testing.T, seed int64, workers int) *core.Graph {
	t.Helper()
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: seed, RealNodes: 2000, VirtualNodes: 900, MeanSize: 4, StdDev: 2,
	})
	if n := len(parallel.Chunks(g.NumRealNodes(), workers, 0)); n != workers {
		t.Fatalf("%d vertices split into %d chunks, want %d", g.NumRealNodes(), n, workers)
	}
	return g
}

func TestDegreeProgramMatchesSequential(t *testing.T) {
	g := testGraph(t, 3)
	want := algo.Degrees(g)
	res := Run(g, DegreeProgram(), Options{Workers: 3})
	g.ForEachReal(func(r int32) bool {
		if int(res.Values[r]) != want[r] {
			t.Fatalf("degree(%d) = %v, want %d", g.RealID(r), res.Values[r], want[r])
		}
		return true
	})
	if res.Supersteps < 1 {
		t.Fatalf("supersteps = %d", res.Supersteps)
	}
}

func TestPageRankProgramMatchesSequential(t *testing.T) {
	g := testGraph(t, 5)
	const iters = 8
	want := algo.PageRank(g, iters, 0.85)
	res := Run(g, PageRankProgram(g, iters, 0.85), Options{Workers: 4})
	g.ForEachReal(func(r int32) bool {
		if math.Abs(res.Values[r]-want[r]) > 1e-9 {
			t.Fatalf("pagerank(%d) = %g, want %g", g.RealID(r), res.Values[r], want[r])
		}
		return true
	})
}

func TestPageRankDeterministicAcrossWorkerCounts(t *testing.T) {
	g := multiChunkGraph(t, 7, 8)
	a := Run(g, PageRankProgram(g, 6, 0.85), Options{Workers: 1})
	b := Run(g, PageRankProgram(g, 6, 0.85), Options{Workers: 8})
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("worker count changed results at %d: %g vs %g", i, a.Values[i], b.Values[i])
		}
	}
}

func TestComponentProgramMatchesSequential(t *testing.T) {
	g := multiChunkGraph(t, 9, 4)
	_, want := algo.ConnectedComponents(g)
	res := Run(g, ComponentProgram(), Options{Workers: 4})
	distinct := make(map[float64]struct{})
	g.ForEachReal(func(r int32) bool {
		distinct[res.Values[r]] = struct{}{}
		return true
	})
	if len(distinct) != want {
		t.Fatalf("components = %d, want %d", len(distinct), want)
	}
}

func TestComponentProgramOnDedupedRepresentations(t *testing.T) {
	g := testGraph(t, 11)
	_, want := algo.ConnectedComponents(g)
	d1, _, err := dedup.Dedup1GreedyRealFirst(g, dedup.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(d1, ComponentProgram(), Options{Workers: 2})
	distinct := make(map[float64]struct{})
	d1.ForEachReal(func(r int32) bool {
		distinct[res.Values[r]] = struct{}{}
		return true
	})
	if len(distinct) != want {
		t.Fatalf("DEDUP-1 components = %d, want %d", len(distinct), want)
	}
}

func TestMaxSuperstepsBound(t *testing.T) {
	g := testGraph(t, 13)
	// A program that never halts must stop at the bound.
	res := Run(g, ExecutorFunc(func(ctx *Context) {
		ctx.SetValue(ctx.Value() + 1)
	}), Options{Workers: 2, MaxSupersteps: 5})
	if res.Supersteps != 5 {
		t.Fatalf("supersteps = %d, want 5", res.Supersteps)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := core.New(core.CDUP)
	res := Run(g, DegreeProgram(), Options{})
	if res.Supersteps != 0 {
		t.Fatalf("supersteps on empty graph = %d, want 0", res.Supersteps)
	}
}
