package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLoadDedup2MatchesNodeByNodeBuild checks LoadDedup2 against the same
// structure added one node and one edge at a time through AddVirtualNode,
// AddMember, ConnectVirtUndirected and AddDirectEdgeIdx: every row equal,
// every row of the loaded graph at len == cap, no tombstoned slot, and an
// append to one row leaves its neighbours in the shared array alone.
func TestLoadDedup2MatchesNodeByNodeBuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nReal, nVirt := 1+rng.Intn(20), rng.Intn(12)
		members := make([][]int32, nVirt)
		undir := make([][]int32, nVirt)
		for v := range members {
			for _, r := range rng.Perm(nReal)[:rng.Intn(nReal+1)] {
				members[v] = append(members[v], int32(r))
			}
		}
		for k := rng.Intn(2*nVirt + 1); k > 0; k-- {
			v, w := int32(rng.Intn(nVirt)), int32(rng.Intn(nVirt))
			if v != w && !slices.Contains(undir[v], w) {
				undir[v] = append(undir[v], w)
				undir[w] = append(undir[w], v)
			}
		}
		direct := make([][]int32, nReal)
		var pairs [][2]int32
		for k := rng.Intn(8); k > 0; k-- {
			x, y := int32(rng.Intn(nReal)), int32(rng.Intn(nReal))
			direct[x] = append(direct[x], y)
			direct[y] = append(direct[y], x)
			pairs = append(pairs, [2]int32{x, y})
		}

		reals := func() *Graph {
			g := New(DEDUP2)
			for i := 0; i < nReal; i++ {
				g.AddRealNode(int64(10 + i))
			}
			return g
		}
		want := reals()
		for _, ms := range members {
			v := want.AddVirtualNode(1)
			for _, r := range ms {
				want.AddMember(v, r)
			}
		}
		for v, ns := range undir {
			for _, w := range ns {
				if int32(v) < w {
					want.ConnectVirtUndirected(int32(v), w)
				}
			}
		}
		for _, p := range pairs {
			want.AddDirectEdgeIdx(p[0], p[1])
			want.AddDirectEdgeIdx(p[1], p[0])
		}
		// ConnectVirtUndirected appends in pair order, which need not be
		// the order undir lists; give LoadDedup2 the order it produced.
		got := reals()
		got.LoadDedup2(nVirt, func(v int32) ([]int32, []int32) { return members[v], want.vUndir[v] }, direct)

		if got.NumVirtualSlots() != nVirt || got.NumVirtualNodes() != nVirt || got.MaxLayer() != want.MaxLayer() {
			t.Fatalf("seed %d: %d slots, %d live, max layer %d; want %d, %d, %d", seed,
				got.NumVirtualSlots(), got.NumVirtualNodes(), got.MaxLayer(), nVirt, nVirt, want.MaxLayer())
		}
		var rows [][2][]int32
		for r := 0; r < nReal; r++ {
			rows = append(rows, [2][]int32{got.outVirt[r], want.outVirt[r]}, [2][]int32{got.inVirt[r], want.inVirt[r]},
				[2][]int32{got.outReal[r], want.outReal[r]}, [2][]int32{got.inReal[r], want.inReal[r]})
		}
		for v := 0; v < nVirt; v++ {
			rows = append(rows, [2][]int32{got.vIn[v], want.vIn[v]}, [2][]int32{got.vOut[v], want.vOut[v]},
				[2][]int32{got.vUndir[v], want.vUndir[v]}, [2][]int32{got.vInVirt[v], want.vInVirt[v]},
				[2][]int32{got.vOutVirt[v], want.vOutVirt[v]})
		}
		for i, row := range rows {
			if !slices.Equal(row[0], row[1]) {
				t.Fatalf("seed %d row %d: %v, node-by-node build %v", seed, i, row[0], row[1])
			}
			if len(row[0]) != cap(row[0]) {
				t.Fatalf("seed %d row %d: len %d cap %d", seed, i, len(row[0]), cap(row[0]))
			}
		}
		if got.RepEdges() != want.RepEdges() || got.MemBytes() != want.MemBytes() {
			t.Fatalf("seed %d: RepEdges %d MemBytes %d, want %d and %d", seed, got.RepEdges(), got.MemBytes(), want.RepEdges(), want.MemBytes())
		}
		// Appending to every row must not write into the next one.
		before := slices.Clone(got.vOut)
		for v := range before {
			before[v] = slices.Clone(before[v])
		}
		for r := 0; r < nReal; r++ {
			got.AddDirectEdgeIdx(int32(r), int32(r))
			got.outVirt[r] = append(got.outVirt[r], -1)
		}
		for v := range before {
			got.vIn[v] = append(got.vIn[v], -1)
			if !slices.Equal(got.vOut[v], before[v]) {
				t.Fatalf("seed %d: appending to other rows changed virtual node %d's members", seed, v)
			}
		}
	}
}
