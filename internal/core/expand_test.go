package core

import (
	"math/rand"
	"slices"
	"testing"
)

// expandByAppend is Expand before count-then-fill: every logical edge
// appended to both of its rows as ForNeighbors yields it. Expand must
// produce the same rows, array for array.
func expandByAppend(g *Graph) *Graph {
	ng := New(EXP)
	ng.SelfLoops = g.SelfLoops
	ng.Symmetric = g.Symmetric
	remap := make([]int32, len(g.realID))
	g.ForEachReal(func(r int32) bool {
		remap[r] = ng.AddRealNode(g.realID[r])
		return true
	})
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(t int32) bool {
			ng.AddDirectEdgeIdx(remap[r], remap[t])
			return true
		})
		return true
	})
	return ng
}

// TestExpandRowsExact checks, on random single- and multi-layer graphs in
// every condensed mode, that Expand's rows equal the edge-by-edge build's
// and that its arenas are packed: every row at its length, no slack.
func TestExpandRowsExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src := randomCondensed(seed, seed%2 == 1)
		for _, mode := range []Mode{CDUP, DEDUP1, BITMAP} {
			g := src.Clone()
			g.SetMode(mode)
			if mode == DEDUP1 && g.VerifyNoDuplicates() != nil {
				continue // DEDUP-1 traversal needs the unique-path invariant
			}
			got, err := g.Expand(0)
			if err != nil {
				t.Fatal(err)
			}
			want := expandByAppend(g)
			if !slices.Equal(got.realID, want.realID) {
				t.Fatalf("seed %d %v: vertex IDs differ", seed, mode)
			}
			for r := range int32(len(got.realID)) {
				for _, rows := range [][2][]int32{{got.OutDirect(r), want.OutDirect(r)}, {got.InDirect(r), want.InDirect(r)}} {
					if !slices.Equal(rows[0], rows[1]) {
						t.Fatalf("seed %d %v slot %d: row %v, edge-by-edge build %v", seed, mode, r, rows[0], rows[1])
					}
				}
			}
			if err := packed(got); err != nil {
				t.Errorf("seed %d %v: %v", seed, mode, err)
			}
		}
	}
}

var graphSink *Graph

// TestExpandAllocatesPerGraph bounds Expand's allocations by one constant
// at 1 k and 10 k vertices, on groups of co-occurring vertices where each
// row holds several edges: an allocation per row, or appending edge by
// edge, makes the count grow with the vertices.
func TestExpandAllocatesPerGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// Per-graph arrays, the slab's chunks, property columns and the ID
	// map's tables.
	const bound = 64
	for _, n := range []int{1_000, 10_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := New(CDUP)
		for i := 0; i < n; i++ {
			g.AddRealNode(int64(i)*31 + 7)
		}
		for i := 0; i < n/2; i++ {
			v := g.AddVirtualNode(1)
			for k := 0; k < 4; k++ {
				g.AddMember(v, int32(rng.Intn(n)))
			}
		}
		for r := 0; r < n; r += 9 {
			_ = g.DeleteVertexID(g.realID[r])
		}
		live := g.NumRealNodes()
		allocs := testing.AllocsPerRun(3, func() {
			exp, err := g.Expand(0)
			if err != nil {
				t.Fatal(err)
			}
			graphSink = exp
		})
		t.Logf("n=%d: %.0f allocations for %d live vertices", n, allocs, live)
		if allocs > bound {
			t.Errorf("n=%d: %.0f allocations, want at most %d", n, allocs, bound)
		}
	}
}
