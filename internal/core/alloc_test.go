package core

import (
	"maps"
	"testing"
)

var mapSink map[int64]int32

// TestBuildAllocatesPerGraphNotPerVertex bounds the allocations of a
// presized bulk load — Grow(n), then n × (AddRealNode + SetProperty) — and
// of a Clone of the n-node graph (no edges) by one constant across a 1 k →
// 100 k sweep. A per-vertex map, or node arrays grown one append at a time
// without the Grow, make the count grow with n. The ID map is a Go map,
// which allocates a table per ~1 k entries however it is sized, so the
// allocations of filling and cloning a lone map of the same IDs are
// subtracted first.
func TestBuildAllocatesPerGraphNotPerVertex(t *testing.T) {
	const bound = 24
	for _, n := range []int{1_000, 10_000, 100_000} {
		id := func(i int) int64 { return int64(i)*7919 + 1 }
		build := func() *Graph {
			g := New(CDUP)
			g.Grow(n)
			for i := 0; i < n; i++ {
				r := g.AddRealNode(id(i))
				g.SetProperty(r, "Name", "x")
			}
			return g
		}
		idMap := testing.AllocsPerRun(3, func() {
			m := make(map[int64]int32, n)
			for i := 0; i < n; i++ {
				m[id(i)] = int32(i)
			}
			mapSink = m
		})
		load := testing.AllocsPerRun(3, func() { build() }) - idMap
		g := build()
		idClone := testing.AllocsPerRun(3, func() { mapSink = maps.Clone(g.realIdx) })
		clone := testing.AllocsPerRun(3, func() { g.Clone() }) - idClone
		t.Logf("n=%d: load %.0f allocs, clone %.0f allocs beyond the ID map's %.0f and %.0f", n, load, clone, idMap, idClone)
		if load > bound || clone > bound {
			t.Errorf("n=%d: load %.0f, clone %.0f allocations beyond the ID map, want at most %d each", n, load, clone, bound)
		}
	}
}
