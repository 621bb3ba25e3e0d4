package algo

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
)

// pageRankCallbacks is the PageRank kernel before pullRows: out-degrees
// from Degrees, then one ForInNeighbors callback per logical edge per
// iteration, dividing at every edge. PageRank must return its bits.
func pageRankCallbacks(g Graph, iters int, damping float64) []float64 {
	n := g.NumRealNodes()
	slots := int32(g.NumRealSlots())
	rank := make([]float64, slots)
	next := make([]float64, slots)
	if n == 0 {
		return rank
	}
	outDeg := Degrees(g)
	for r := range slots {
		if g.Alive(r) {
			rank[r] = 1.0 / float64(n)
		}
	}
	base := (1 - damping) / float64(n)
	sum := 0.0
	pull := func(s int32) bool {
		if outDeg[s] > 0 {
			sum += rank[s] / float64(outDeg[s])
		}
		return true
	}
	for it := 0; it < iters; it++ {
		for r := range slots {
			if g.Alive(r) {
				sum = 0
				g.ForInNeighbors(r, pull)
				next[r] = base + damping*sum
			}
		}
		rank, next = next, rank
	}
	return rank
}

// coGroup is one co-occurrence group: members real nodes all attached to
// a single virtual node, so the logical graph is a clique of members·
// (members−1) edges (members² with SelfLoops) stored as 2·members.
func coGroup(members int) *core.Graph {
	g := core.New(core.CDUP)
	v := g.AddVirtualNode(1)
	for i := 0; i < members; i++ {
		g.AddMember(v, g.AddRealNode(int64(1000+i)))
	}
	return g
}

// dangling builds a small C-DUP graph with a sink (in-edges, no out-edges)
// and an isolated vertex next to an ordinary group.
func dangling() *core.Graph {
	g := core.New(core.CDUP)
	for i := 0; i < 6; i++ {
		g.AddRealNode(int64(10 + i))
	}
	v := g.AddVirtualNode(1)
	for r := int32(0); r < 3; r++ {
		g.AddMember(v, r)
	}
	w := g.AddVirtualNode(1)
	g.ConnectRealToVirt(1, w)
	g.ConnectRealToVirt(2, w)
	g.ConnectVirtToReal(w, 4) // 4 is a sink; 5 has no edges at all
	g.AddDirectEdgeIdx(3, 0)
	return g
}

// pageRankGraphs is equivGraphs plus the dangling graph and the group,
// each on both SelfLoops settings, with their EXP and BITMAP conversions.
func pageRankGraphs(t *testing.T) map[string]*core.Graph {
	t.Helper()
	out := equivGraphs(t)
	for _, loops := range []bool{false, true} {
		for name, g := range map[string]*core.Graph{"dangling": dangling(), "group": coGroup(200)} {
			g.SelfLoops = loops
			prefix := fmt.Sprintf("%s selfloops %v ", name, loops)
			out[prefix+"C-DUP"] = g
			exp, err := g.Expand(0)
			if err != nil {
				t.Fatal(err)
			}
			out[prefix+"EXP"] = exp
			b, _, err := dedup.Bitmap2(g)
			if err != nil {
				t.Fatal(err)
			}
			out[prefix+"BITMAP"] = b
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPageRankMatchesCallbackKernel holds PageRank to the callback
// kernel's bits on every representation, single- and multi-layer, with
// tombstones, both SelfLoops settings, dangling vertices and the empty
// graph, and on the frozen view of each. It also checks that pullRows took
// the branch its rule names — the view's own rows, a flat copy when 4 B
// per logical edge is no more than MemBytes, callbacks otherwise — and
// that the suite reaches both sides of that rule.
func TestPageRankMatchesCallbackKernel(t *testing.T) {
	branches := map[string]int{}
	for name, g := range pageRankGraphs(t) {
		f := g.Freeze()
		for _, in := range []struct {
			view string
			g    Graph
		}{{"graph", g}, {"view", f}} {
			want := pageRankCallbacks(in.g, 10, 0.85)
			if got := PageRank(in.g, 10, 0.85); !sameBits(got, want) {
				t.Errorf("%s %s: ranks differ from the callback kernel\n got %v\nwant %v", name, in.view, got, want)
			}
		}

		deg, rows := pullRows(g)
		if !slices.Equal(deg, int32s(Degrees(g))) {
			t.Errorf("%s: pullRows out-degrees %v, Degrees %v", name, deg, Degrees(g))
		}
		flat := 4*g.LogicalEdges() <= g.MemBytes()
		switch rows.(type) {
		case *inAdjacency:
			branches["copy"]++
			if !flat {
				t.Errorf("%s: copied %d edges into rows, more than MemBytes %d allows", name, g.LogicalEdges(), g.MemBytes())
			}
		case nil:
			branches["callbacks"]++
			if flat {
				t.Errorf("%s: %d edges fit MemBytes %d but PageRank pulls by callback", name, g.LogicalEdges(), g.MemBytes())
			}
		default:
			t.Errorf("%s: unexpected rows %T", name, rows)
		}
		if _, rows := pullRows(f); rows != inRows(f) {
			t.Errorf("%s: a view's PageRank must read its own rows, got %T", name, rows)
		}
	}
	if branches["copy"] == 0 || branches["callbacks"] == 0 {
		t.Errorf("guard branches taken %v, want both", branches)
	}
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

var rankSink []float64

// TestPageRankAllocsDoNotGrowWithVertices checks that PageRank on a
// core.Graph allocates per call, not per vertex or per row, on both sides
// of the memory guard: a condensed graph copied into rows, its EXP
// conversion, and a group the guard refuses.
func TestPageRankAllocsDoNotGrowWithVertices(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const slack = 2 // a pooled traversal scratch the GC may have dropped
	graphs := func(n int) map[string]*core.Graph {
		g := datagen.Condensed(datagen.CondensedConfig{Seed: 4, RealNodes: n, VirtualNodes: n / 2, MeanSize: 5, StdDev: 2})
		exp, err := g.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*core.Graph{"C-DUP": g, "EXP": exp, "group": coGroup(n / 10)}
	}
	small, large := graphs(1_000), graphs(10_000)
	for name := range small {
		allocs := func(g *core.Graph) float64 {
			return testing.AllocsPerRun(5, func() { rankSink = PageRank(g, 10, 0.85) })
		}
		a, b := allocs(small[name]), allocs(large[name])
		t.Logf("%s: %.0f allocations at 1 k vertices, %.0f at 10 k", name, a, b)
		if b > a+slack {
			t.Errorf("%s: %.0f allocations at 10 k vertices, %.0f at 1 k: PageRank allocates per vertex", name, b, a)
		}
	}
}
