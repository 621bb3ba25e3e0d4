package dedup

import (
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
)

// decodeSymmetric builds a single-layer symmetric C-DUP graph from fuzz
// bytes: up to 24 real nodes and 12 virtual nodes whose member lists may
// repeat a member, then tombstoned reals (their memberships and direct
// edges stay behind in the input), then symmetric direct edges, self
// edges included. Missing bytes read as zero.
func decodeSymmetric(data []byte) *core.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := core.New(core.CDUP)
	g.Symmetric = true
	nReal := 1 + next()%24
	for i := 0; i < nReal; i++ {
		g.AddRealNode(int64(100 + i))
	}
	for v, nVirt := 0, next()%13; v < nVirt; v++ {
		vn := g.AddVirtualNode(1)
		for k, size := 0, next()%9; k < size; k++ {
			g.AddMember(vn, int32(next()%nReal))
		}
	}
	for k, dead := 0, next()%4; k < dead; k++ {
		g.DeleteVertexID(int64(100 + next()%nReal))
	}
	for k, nDirect := 0, next()%8; k < nDirect; k++ {
		u, w := int32(next()%nReal), int32(next()%nReal)
		g.AddDirectEdgeIdx(u, w)
		if u != w {
			g.AddDirectEdgeIdx(w, u)
		}
	}
	return g
}

// FuzzDedup2 checks the DEDUP-2 builder on decoded graphs: the output has
// the input's logical edges, keeps the Appendix-B invariants (which include
// duplicate freedom), and holds no tombstoned virtual slot.
func FuzzDedup2(f *testing.F) {
	f.Add([]byte{6, 3, 4, 0, 1, 2, 3, 4, 2, 3, 4, 5, 3, 0, 4, 5, 0, 0})
	f.Add([]byte{9, 5, 3, 0, 1, 2, 3, 1, 2, 3, 3, 2, 3, 4, 2, 4, 5, 4, 0, 4, 5, 6, 1, 7, 2, 0, 3, 3, 8, 1, 1})
	f.Add([]byte{12, 4, 8, 0, 1, 2, 3, 4, 5, 6, 7, 6, 2, 3, 4, 8, 9, 10, 5, 0, 0, 5, 9, 11, 4, 11, 10, 1, 6, 0, 5, 0, 9, 2, 3})
	f.Add([]byte{4, 2, 3, 1, 1, 2, 2, 2, 3, 0, 3, 0, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeSymmetric(data)
		out, _, err := Dedup2Greedy(in, Options{Seed: int64(len(data))})
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, "DEDUP-2", in, out)
		if err := out.VerifyDedup2Invariants(); err != nil {
			t.Fatal(err)
		}
		if out.NumVirtualSlots() != out.NumVirtualNodes() {
			t.Fatalf("%d virtual slots for %d live nodes", out.NumVirtualSlots(), out.NumVirtualNodes())
		}
	})
}

// TestDedup2Allocations bounds the allocations of one DEDUP-2 conversion of
// a fixed 1 500-node condensed graph. The builder keeps its virtual nodes
// in chunks and their members in one arena, and emits the output graph in
// one allocation for all rows; what is left is mostly the per-node
// undirected lists, the per-real membership lists and the output's ID map.
// About 4 700 on amd64; the builder that grew the output graph one node at
// a time made about 39 400.
func TestDedup2Allocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const bound = 5500
	g := datagen.Condensed(datagen.CondensedConfig{Seed: 19, RealNodes: 1500, VirtualNodes: 300, MeanSize: 14, StdDev: 6})
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := Dedup2Greedy(g, Options{Seed: 3}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per conversion", allocs)
	if allocs > bound {
		t.Errorf("%.0f allocations per conversion, want at most %d", allocs, bound)
	}
}
