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
// and that each row's capacity is its length.
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
			for r := range got.realID {
				for _, rows := range [][2][]int32{{got.outReal[r], want.outReal[r]}, {got.inReal[r], want.inReal[r]}} {
					if !slices.Equal(rows[0], rows[1]) {
						t.Fatalf("seed %d %v slot %d: row %v, edge-by-edge build %v", seed, mode, r, rows[0], rows[1])
					}
					if len(rows[0]) != cap(rows[0]) {
						t.Errorf("seed %d %v slot %d: row len %d cap %d", seed, mode, r, len(rows[0]), cap(rows[0]))
					}
				}
			}
		}
	}
}

var graphSink *Graph

// TestExpandAllocatesTwoPerVertex bounds Expand's allocations by two per
// live vertex (its exact out-row and in-row) plus a constant, on groups of
// co-occurring vertices where each row holds several edges: appending edge
// by edge regrows every row a few times.
func TestExpandAllocatesTwoPerVertex(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const bound = 64 // per-graph arrays, property columns, the ID map's tables
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
		if allocs > float64(2*live+bound) {
			t.Errorf("n=%d: %.0f allocations, want at most 2 per live vertex (%d) + %d", n, allocs, 2*live, bound)
		}
	}
}
