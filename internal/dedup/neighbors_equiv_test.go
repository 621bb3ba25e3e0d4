package dedup

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graphgen/internal/core"
)

// This file is the converted-representation twin of core's
// neighbors_equiv_test.go: every representation a conversion produces must
// iterate exactly the logical neighbors a hash-set walk over the C-DUP input
// finds — the same set as EXP — in both directions, under early stop, nested
// iteration, interleaving and concurrent readers, and without allocating.

// refNeighborIDs is the oracle: the logical out- (or in-) neighbors of r in
// the condensed graph g, found by a hash-set walk over its raw adjacency and
// returned as sorted external IDs.
func refNeighborIDs(g *core.Graph, r int32, in bool) []int64 {
	if !g.Alive(r) {
		return nil
	}
	direct, first := g.OutDirect(r), g.OutVirtuals(r)
	vReal, vVirt := g.VirtTargets, g.VirtOutVirt
	if in {
		direct, first = g.InDirect(r), g.InVirtuals(r)
		vReal, vVirt = g.VirtSources, g.VirtInVirt
	}
	seen := make(map[int32]struct{})
	for _, t := range direct {
		seen[t] = struct{}{}
	}
	seenVirt := make(map[int32]struct{})
	stack := append([]int32(nil), first...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, dup := seenVirt[v]; dup {
			continue
		}
		seenVirt[v] = struct{}{}
		for _, t := range vReal(v) {
			seen[t] = struct{}{}
		}
		stack = append(stack, vVirt(v)...)
	}
	ids := []int64{}
	for t := range seen {
		if !g.Alive(t) || (t == r && !g.SelfLoops) {
			continue
		}
		ids = append(ids, g.RealID(t))
	}
	slices.Sort(ids)
	return ids
}

// iterIDs runs one traversal and returns the external IDs in emission
// order; a neighbor emitted twice therefore shows up twice.
func iterIDs(g *core.Graph, r int32, in bool) []int64 {
	ids := []int64{}
	fn := func(t int32) bool { ids = append(ids, g.RealID(t)); return true }
	if in {
		g.ForInNeighbors(r, fn)
	} else {
		g.ForNeighbors(r, fn)
	}
	return ids
}

func sortedIDs(ids []int64) []int64 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// withDirectsAndTombstones decorates a symmetric C-DUP graph with symmetric
// direct edges — fresh ones and ones that repeat a virtual path — and then
// tombstones a few real nodes.
func withDirectsAndTombstones(g *core.Graph, seed int64) *core.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumRealSlots()
	for k := 0; k < n/3; k++ {
		u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			if vs := g.OutVirtuals(u); len(vs) > 0 {
				ms := g.VirtTargets(vs[rng.Intn(len(vs))])
				w = ms[rng.Intn(len(ms))]
			}
		}
		if u == w || slices.Contains(g.OutDirect(u), w) {
			continue
		}
		g.AddDirectEdgeIdx(u, w)
		g.AddDirectEdgeIdx(w, u)
	}
	g.SortAdjacency()
	for k := 0; k < n/8; k++ {
		_ = g.DeleteVertexID(g.RealID(int32(rng.Intn(n)))) // deleting twice just reports an error
	}
	return g
}

type namedRep struct {
	name string
	g    *core.Graph
}

// allRepresentations converts in with every algorithm that accepts it and
// adds the input itself and its EXP materialization: all five
// representations, several of them more than once.
func allRepresentations(t *testing.T, in *core.Graph, seed int64, workers int) []namedRep {
	t.Helper()
	reps := []namedRep{{"C-DUP", in}}
	exp, err := in.Expand(0)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	reps = append(reps, namedRep{"EXP", exp})
	for _, c := range allConverters() {
		out, _, err := c.fn(in, Options{Seed: seed, Workers: workers})
		if err == ErrUnsupported {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reps = append(reps, namedRep{c.name, out})
	}
	return reps
}

// checkRepresentation compares every traversal entry point of rep with the
// oracle computed on the C-DUP input in, vertex by vertex.
func checkRepresentation(t *testing.T, name string, in *core.Graph, rep *core.Graph) {
	t.Helper()
	if rep.NumRealNodes() != in.NumRealNodes() {
		t.Fatalf("%s: %d vertices, input has %d", name, rep.NumRealNodes(), in.NumRealNodes())
	}
	in.ForEachReal(func(r int32) bool {
		id := in.RealID(r)
		rr, ok := rep.RealIndex(id)
		if !ok {
			t.Fatalf("%s: vertex %d missing", name, id)
		}
		for _, dir := range []bool{false, true} {
			want := refNeighborIDs(in, r, dir)
			got := iterIDs(rep, rr, dir)
			if !slices.Equal(sortedIDs(got), want) {
				t.Fatalf("%s: vertex %d in=%v: iterated %v, reference %v", name, id, dir, sortedIDs(got), want)
			}
			// Early stop at every position yields a prefix, and leaves
			// nothing behind that the next full walk would trip over.
			for stopAt := 1; stopAt <= len(got); stopAt++ {
				var prefix []int64
				fn := func(x int32) bool { prefix = append(prefix, rep.RealID(x)); return len(prefix) < stopAt }
				if dir {
					rep.ForInNeighbors(rr, fn)
				} else {
					rep.ForNeighbors(rr, fn)
				}
				if !slices.Equal(prefix, got[:stopAt]) {
					t.Fatalf("%s: vertex %d in=%v stop after %d: %v, want prefix %v", name, id, dir, stopAt, prefix, got[:stopAt])
				}
			}
		}
		out := refNeighborIDs(in, r, false)
		in.ForEachReal(func(w int32) bool {
			rw, _ := rep.RealIndex(in.RealID(w))
			_, want := slices.BinarySearch(out, in.RealID(w))
			if got := rep.HasEdgeIdx(rr, rw); got != want {
				t.Fatalf("%s: HasEdgeIdx(%d, %d) = %v, reference %v", name, id, in.RealID(w), got, want)
			}
			return true
		})
		return true
	})
}

func TestRepresentationsMatchHashSetReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		single := withDirectsAndTombstones(randomSymmetric(seed, 30+int(seed), 14, 7), seed)
		reps := allRepresentations(t, single, seed, 1+int(seed%4))
		if len(reps) != 2+len(allConverters()) {
			t.Fatalf("single-layer input converted to %d representations, want every one", len(reps))
		}
		for _, rep := range reps {
			checkRepresentation(t, fmt.Sprintf("single seed %d %s", seed, rep.name), single, rep.g)
		}
		// Multi-layer input, with and without self loops: only the BITMAP
		// conversions (and EXP) take it.
		multi := randomMultiLayer(seed, 24, 12, 7)
		multi.SelfLoops = seed%2 == 0
		for k := int64(0); k < 3; k++ {
			_ = multi.DeleteVertexID((seed*7 + k*5) % 24)
		}
		reps = allRepresentations(t, multi, seed, 1+int(seed%4))
		if len(reps) != 4 {
			t.Fatalf("multi-layer input converted to %d representations, want C-DUP, EXP and two BITMAPs", len(reps))
		}
		for _, rep := range reps {
			checkRepresentation(t, fmt.Sprintf("multi seed %d %s", seed, rep.name), multi, rep.g)
		}
	}
}

// TestRepresentationsNestedAndInterleaved walks all representations of one
// graph in lockstep on one goroutine — graphs of different sizes sharing one
// pooled scratch — and starts further walks on other representations from
// inside fn.
func TestRepresentationsNestedAndInterleaved(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		in := withDirectsAndTombstones(randomSymmetric(seed, 40, 18, 8), seed)
		reps := allRepresentations(t, in, seed, 2)
		small := randomMultiLayer(seed, 9, 4, 3)
		in.ForEachReal(func(r int32) bool {
			id := in.RealID(r)
			want := refNeighborIDs(in, r, false)
			for i, rep := range reps {
				rr, _ := rep.g.RealIndex(id)
				next := reps[(i+1)%len(reps)].g
				var got []int64
				rep.g.ForNeighbors(rr, func(x int32) bool {
					xid := rep.g.RealID(x)
					got = append(got, xid)
					nx, _ := next.RealIndex(xid)
					xr, _ := in.RealIndex(xid)
					if inner := sortedIDs(iterIDs(next, nx, true)); !slices.Equal(inner, refNeighborIDs(in, xr, true)) {
						t.Fatalf("seed %d: nested ForInNeighbors(%d) on %s inside %s = %v", seed, xid, reps[(i+1)%len(reps)].name, rep.name, inner)
					}
					s := x % int32(small.NumRealSlots())
					if inner := sortedIDs(iterIDs(small, s, false)); !slices.Equal(inner, refNeighborIDs(small, s, false)) {
						t.Fatalf("seed %d: nested walk on the small graph inside %s = %v", seed, rep.name, inner)
					}
					return true
				})
				if !slices.Equal(sortedIDs(got), want) {
					t.Fatalf("seed %d %s: vertex %d with nested walks: %v, reference %v", seed, rep.name, id, sortedIDs(got), want)
				}
			}
			return true
		})
	}
}

// TestRepresentationsConcurrentReaders shares every representation among
// several readers; run with -race.
func TestRepresentationsConcurrentReaders(t *testing.T) {
	in := withDirectsAndTombstones(randomSymmetric(5, 60, 24, 8), 5)
	reps := allRepresentations(t, in, 5, 2)
	type want struct{ out, in []int64 }
	wants := make(map[int64]want)
	in.ForEachReal(func(r int32) bool {
		wants[in.RealID(r)] = want{refNeighborIDs(in, r, false), refNeighborIDs(in, r, true)}
		return true
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				rep := reps[(w+round)%len(reps)]
				rep.g.ForEachReal(func(r int32) bool {
					id := rep.g.RealID(r)
					if got := sortedIDs(iterIDs(rep.g, r, false)); !slices.Equal(got, wants[id].out) {
						t.Errorf("reader %d %s: out-neighbors of %d = %v, reference %v", w, rep.name, id, got, wants[id].out)
						return false
					}
					if got := sortedIDs(iterIDs(rep.g, r, true)); !slices.Equal(got, wants[id].in) {
						t.Errorf("reader %d %s: in-neighbors of %d = %v, reference %v", w, rep.name, id, got, wants[id].in)
						return false
					}
					return true
				})
			}
		}(w)
	}
	wg.Wait()
}

// TestWarmTraversalDoesNotAllocate is the allocation guard: once the pooled
// scratch has grown to the graph, a neighbor call on the representations
// that traverse virtual nodes allocates nothing.
func TestWarmTraversalDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	single := randomSymmetric(3, 200, 60, 12)
	multi := randomMultiLayer(3, 120, 50, 20)
	type tc struct {
		name string
		g    *core.Graph
	}
	cases := []tc{{"C-DUP", single}, {"C-DUP multi-layer", multi}}
	for _, in := range []*core.Graph{single, multi} {
		bmp, _, err := Bitmap2(in, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("BITMAP (%d layers)", in.MaxLayer()), bmp})
	}
	d1, _, err := Dedup1GreedyVirtualFirst(single, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := Dedup2Greedy(single, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"DEDUP-1", d1}, tc{"DEDUP-2", d2})
	for _, c := range cases {
		n := int32(c.g.NumRealSlots())
		edges := 0
		count := func(int32) bool { edges++; return true }
		sweep := func() {
			for r := int32(0); r < n; r++ {
				c.g.ForNeighbors(r, count)
				c.g.ForInNeighbors(r, count)
				c.g.HasEdgeIdx(r, (r+1)%n)
			}
		}
		sweep() // warm: grows the scratch to this graph
		if edges == 0 {
			t.Fatalf("%s: sweep saw no edges", c.name)
		}
		if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
			t.Errorf("%s: a warm sweep of ForNeighbors, ForInNeighbors and HasEdgeIdx over %d vertices allocates %v times", c.name, n, allocs)
		}
	}
}
