package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// shuffledIDs builds a random C-DUP graph whose external IDs are not in
// slot order, so Freeze has to sort, with properties on some vertices and
// a few tombstones.
func shuffledIDs(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(CDUP)
	n := 3 + rng.Intn(30)
	for _, i := range rng.Perm(n) {
		r := g.AddRealNode(int64(1000 - 7*i))
		if rng.Intn(2) == 0 {
			g.SetProperty(r, "Name", fmt.Sprintf("v%d", i))
		}
	}
	for k := 0; k < 1+rng.Intn(8); k++ {
		v := g.AddVirtualNode(1)
		for j := 0; j < 1+rng.Intn(5); j++ {
			g.AddMember(v, int32(rng.Intn(n)))
		}
	}
	for k := 0; k < rng.Intn(n); k++ {
		g.AddDirectEdgeIdx(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	for k := 0; k < rng.Intn(3); k++ {
		_ = g.DeleteVertexID(g.realID[rng.Intn(n)])
	}
	return g
}

// checkFrozen compares a view with the graph it froze: vertex set and
// order, out-adjacency in ForNeighbors emission order, in-adjacency as a
// set in ascending order, edge count, lookups, properties and First.
func checkFrozen(t *testing.T, name string, g *Graph) {
	t.Helper()
	f := g.Freeze()
	var live []int64
	g.ForEachReal(func(r int32) bool { live = append(live, g.realID[r]); return true })
	first, hasFirst := g.Vertices().Next()
	slices.Sort(live)
	if !slices.Equal(f.IDs(), live) || f.NumRealNodes() != len(live) || f.NumRealSlots() != len(live) {
		t.Fatalf("%s: view IDs %v, live IDs %v", name, f.IDs(), live)
	}
	if got, ok := f.First(); ok != hasFirst || got != first {
		t.Fatalf("%s: First = %d,%v, graph iterates %d,%v first", name, got, ok, first, hasFirst)
	}
	if f.NumEdges() != g.LogicalEdges() {
		t.Fatalf("%s: view has %d edges, graph %d logical edges", name, f.NumEdges(), g.LogicalEdges())
	}
	ids := func(h func(int32) int64, idx []int32) []int64 {
		out := make([]int64, len(idx))
		for i, x := range idx {
			out[i] = h(x)
		}
		return out
	}
	for d, id := range f.IDs() {
		r, _ := g.RealIndex(id)
		if got, ok := f.RealIndex(id); !ok || got != int32(d) || !f.Alive(got) {
			t.Fatalf("%s: RealIndex(%d) = %d,%v, want %d", name, id, got, ok, d)
		}
		var out, in []int32
		f.ForNeighbors(int32(d), func(t int32) bool { out = append(out, t); return true })
		f.ForInNeighbors(int32(d), func(s int32) bool { in = append(in, s); return true })
		if !slices.Equal(f.OutRow(int32(d)), out) || !slices.Equal(f.InRow(int32(d)), in) {
			t.Fatalf("%s: rows of %d differ from the callbacks: out %v/%v in %v/%v", name, id, f.OutRow(int32(d)), out, f.InRow(int32(d)), in)
		}
		if got, want := ids(f.RealID, out), ids(g.RealID, collectOut(g, r)); !slices.Equal(got, want) {
			t.Fatalf("%s: out-neighbors of %d = %v, graph %v", name, id, got, want)
		}
		want := ids(g.RealID, collectIn(g, r))
		slices.Sort(want)
		if got := ids(f.RealID, in); !slices.IsSorted(in) || !slices.Equal(got, want) {
			t.Fatalf("%s: in-neighbors of %d = %v, graph %v", name, id, got, want)
		}
		for _, key := range []string{"Name", "missing"} {
			gv, gok := g.Property(r, key)
			if fv, fok := f.PropertyOf(id, key); fv != gv || fok != gok {
				t.Fatalf("%s: property %s of %d = %q,%v, graph %q,%v", name, key, id, fv, fok, gv, gok)
			}
		}
	}
	if _, ok := f.RealIndex(-1); ok || f.Alive(-1) || f.Alive(int32(len(live))) {
		t.Fatalf("%s: view answers for a vertex it does not have", name)
	}
}

func TestFreezeMatchesGraph(t *testing.T) {
	checkFrozen(t, "empty", New(CDUP))
	allDead := New(EXP)
	allDead.AddRealNode(5)
	_ = allDead.DeleteVertexID(5)
	checkFrozen(t, "all deleted", allDead)
	for seed := int64(0); seed < 150; seed++ {
		multi := seed%2 == 1
		g := randomCondensed(seed, multi)
		name := fmt.Sprintf("seed %d multi %v selfloops %v", seed, multi, g.SelfLoops)
		checkFrozen(t, name, g)
		g.SelfLoops = !g.SelfLoops
		checkFrozen(t, name+" flipped", g)
		exp, err := g.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		checkFrozen(t, name+" EXP", exp)
		checkFrozen(t, fmt.Sprintf("shuffled IDs seed %d", seed), shuffledIDs(seed))
	}
}

// TestFrozenEarlyStop: a callback returning false ends the iteration in
// both directions.
func TestFrozenEarlyStop(t *testing.T) {
	g := New(EXP)
	for id := int64(1); id <= 4; id++ {
		g.AddRealNode(id)
	}
	for w := int32(1); w < 4; w++ {
		g.AddDirectEdgeIdx(0, w)
		g.AddDirectEdgeIdx(w, 0)
	}
	f := g.Freeze()
	for _, each := range []func(int32, func(int32) bool){f.ForNeighbors, f.ForInNeighbors} {
		calls := 0
		each(0, func(int32) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("iteration continued after the callback stopped it: %d calls", calls)
		}
	}
}

// TestFrozenRowsAreCapped: appending to a row a view handed out copies it
// instead of overwriting the next row.
func TestFrozenRowsAreCapped(t *testing.T) {
	g := New(EXP)
	for id := int64(1); id <= 3; id++ {
		g.AddRealNode(id)
	}
	g.AddDirectEdgeIdx(0, 1)
	g.AddDirectEdgeIdx(1, 2)
	g.AddDirectEdgeIdx(2, 0)
	f := g.Freeze()
	for _, row := range []func(int32) []int32{f.OutRow, f.InRow} {
		before := slices.Clone(row(1))
		_ = append(row(0), 99)
		if got := row(1); !slices.Equal(got, before) {
			t.Fatalf("append to row 0 changed row 1: %v, was %v", got, before)
		}
	}
}

// TestFrozenOutlivesMutation: a view is a copy of the adjacency, so edge
// surgery on the source graph after Freeze does not reach it.
func TestFrozenOutlivesMutation(t *testing.T) {
	g := buildOverlap(CDUP)
	f := g.Freeze()
	before := f.NumEdges()
	if err := g.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if f.NumEdges() != before || g.LogicalEdges() == before {
		t.Fatalf("view edges %d (was %d), graph now %d", f.NumEdges(), before, g.LogicalEdges())
	}
}

// TestFreezeFromMatchesFreeze: after random edge surgery on a condensed
// graph, a view derived from the previous one with the rows whose emission
// changed (plus some unchanged ones, which the contract allows) is
// identical to a fresh Freeze, and the previous view is left as it was.
func TestFreezeFromMatchesFreeze(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomCondensed(seed, seed%2 == 1)
		if seed%3 == 0 {
			g = shuffledIDs(seed)
		}
		var live []int32
		g.ForEachReal(func(r int32) bool { live = append(live, r); return true })
		if len(live) == 0 {
			continue
		}
		pick := func() int32 { return live[rng.Intn(len(live))] }
		prev, prevWant := g.Freeze(), g.Freeze()
		for round := 0; round < 6; round++ {
			before := make([][]int32, g.NumRealSlots())
			for _, r := range live {
				before[r] = collectOut(g, r)
			}
			for k := 0; k < rng.Intn(4); k++ {
				u, w := pick(), pick()
				switch op := rng.Intn(4); {
				case op == 0:
					g.AddDirectEdgeIdx(u, w)
				case op == 1 && len(g.outReal[u]) > 0:
					g.RemoveDirectEdgeIdx(u, g.outReal[u][rng.Intn(len(g.outReal[u]))])
				case g.NumVirtualSlots() == 0:
				case op == 2:
					v := int32(rng.Intn(g.NumVirtualSlots()))
					if g.VirtAlive(v) {
						g.ConnectRealToVirt(u, v)
						g.ConnectVirtToReal(v, w)
					}
				default:
					v := int32(rng.Intn(g.NumVirtualSlots()))
					if ts := g.VirtTargets(v); len(ts) > 0 {
						g.DisconnectVirtToReal(v, ts[rng.Intn(len(ts))])
					}
				}
			}
			var dirty []int32
			for _, r := range live {
				if !slices.Equal(before[r], collectOut(g, r)) || rng.Intn(8) == 0 {
					dirty = append(dirty, r, r)
				}
			}
			rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
			got, want := g.FreezeFrom(prev, dirty), g.Freeze()
			if d := got.Diff(want); d != "" {
				t.Fatalf("seed %d round %d: derived view differs from Freeze in %s", seed, round, d)
			}
			if d := prev.Diff(prevWant); d != "" {
				t.Fatalf("seed %d round %d: deriving changed the previous view's %s", seed, round, d)
			}
			prev, prevWant = got, want
		}
	}
}
