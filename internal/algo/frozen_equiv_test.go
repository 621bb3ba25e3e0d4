package algo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
)

// This file checks that every algorithm gives the same answer, compared by
// external ID, on a graph and on the frozen view of it (core.Frozen), for
// all five representations, single- and multi-layer graphs, tombstoned
// vertices, both SelfLoops settings and the empty graph.

// multiLayer builds a random asymmetric C-DUP graph with two or three
// layers of virtual nodes and several paths between the same real pair.
func multiLayer(seed int64) *core.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := core.New(core.CDUP)
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		g.AddRealNode(int64(500 - 3*i))
	}
	real := func() int32 { return int32(rng.Intn(n)) }
	layers := 2 + rng.Intn(2)
	byLayer := make([][]int32, layers)
	for l := layers - 1; l >= 0; l-- {
		for i := 0; i < 2+rng.Intn(5); i++ {
			v := g.AddVirtualNode(int32(l + 1))
			byLayer[l] = append(byLayer[l], v)
			if l == 0 {
				for k := 0; k < 1+rng.Intn(4); k++ {
					g.ConnectRealToVirt(real(), v)
				}
			}
			if l == layers-1 || rng.Intn(2) == 0 {
				for k := 0; k < 1+rng.Intn(5); k++ {
					g.ConnectVirtToReal(v, real())
				}
			}
			for d := l + 1; d < layers; d++ {
				for k := 0; k < 1+rng.Intn(2); k++ {
					g.ConnectVirtToVirt(v, byLayer[d][rng.Intn(len(byLayer[d]))])
				}
			}
		}
	}
	for k := 0; k < rng.Intn(n); k++ {
		g.AddDirectEdgeIdx(real(), real())
	}
	return g
}

// equivGraphs returns named graphs covering every representation, each
// converted from a C-DUP source with either SelfLoops setting (set before
// conversion: BITMAP's masks are built for it; DEDUP-1 and DEDUP-2 accept
// only loop-free sources), and each also with tombstones.
func equivGraphs(t *testing.T) map[string]*core.Graph {
	t.Helper()
	out := map[string]*core.Graph{"empty": core.New(core.CDUP)}
	add := func(name string, g *core.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
		// Tombstones: every seventh slot deleted, not compacted.
		tomb := g.Clone()
		for i := 0; i < tomb.NumRealSlots(); i += 7 {
			if err := tomb.DeleteVertexID(tomb.RealID(int32(i))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		out[name+" tombstones"] = tomb
	}
	for _, loops := range []bool{false, true} {
		for _, seed := range []int64{3, 8} {
			g := datagen.Condensed(datagen.CondensedConfig{Seed: seed, RealNodes: 60, VirtualNodes: 30, MeanSize: 5, StdDev: 2})
			g.SelfLoops = loops
			prefix := fmt.Sprintf("single-layer %d selfloops %v ", seed, loops)
			add(prefix+"C-DUP", g, nil)
			exp, err := g.Expand(0)
			add(prefix+"EXP", exp, err)
			b, _, err := dedup.Bitmap2(g, dedup.Options{Seed: seed})
			add(prefix+"BITMAP", b, err)
			if loops {
				continue // DEDUP-1 and DEDUP-2 reject self loops by contract
			}
			d1, _, err := dedup.Dedup1GreedyVirtualFirst(g, dedup.Options{Seed: seed})
			add(prefix+"DEDUP-1", d1, err)
			d2, _, err := dedup.Dedup2Greedy(g, dedup.Options{Seed: seed})
			add(prefix+"DEDUP-2", d2, err)
		}
		for _, seed := range []int64{5, 6} {
			g := multiLayer(seed)
			g.SelfLoops = loops
			prefix := fmt.Sprintf("multi-layer %d selfloops %v ", seed, loops)
			add(prefix+"C-DUP", g, nil)
			exp, err := g.Expand(0)
			add(prefix+"EXP", exp, err)
			b, _, err := dedup.Bitmap2(g, dedup.Options{Seed: seed})
			add(prefix+"BITMAP", b, err)
		}
	}
	return out
}

// perID re-keys a dense-indexed result by external ID, live vertices only.
func perID[T any](g Graph, id func(int32) int64, vals []T) map[int64]T {
	out := make(map[int64]T)
	for r := range int32(g.NumRealSlots()) {
		if g.Alive(r) {
			out[id(r)] = vals[r]
		}
	}
	return out
}

// partition canonicalizes component labels into sorted member groups.
func partition(g Graph, id func(int32) int64, labels []int32) [][]int64 {
	groups := make(map[int32][]int64)
	for r := range int32(len(labels)) {
		if g.Alive(r) {
			groups[labels[r]] = append(groups[labels[r]], id(r))
		}
	}
	var out [][]int64
	for _, members := range groups {
		slices.Sort(members)
		out = append(out, members)
	}
	slices.SortFunc(out, func(a, b []int64) int { return int(a[0] - b[0]) })
	return out
}

func TestAlgorithmsAgreeOnFrozenView(t *testing.T) {
	for name, g := range equivGraphs(t) {
		f := g.Freeze()
		gid, fid := g.RealID, f.RealID

		if a, b := perID(g, gid, Degrees(g)), perID(f, fid, Degrees(f)); !equalMaps(a, b) {
			t.Errorf("%s: degrees differ\ngraph %v\n view %v", name, a, b)
		}

		sources := []int64{-1}
		if ids := f.IDs(); len(ids) > 0 {
			sources = append(sources, ids[0], ids[len(ids)/2], ids[len(ids)-1])
		}
		for _, src := range sources {
			a, b := BFS(g, src), BFS(f, src)
			if a.Visited != b.Visited || a.MaxDepth != b.MaxDepth ||
				!equalMaps(perID(g, gid, a.Dist), perID(f, fid, b.Dist)) {
				t.Errorf("%s: BFS from %d differs: graph %d/%d view %d/%d", name, src, a.Visited, a.MaxDepth, b.Visited, b.MaxDepth)
			}
		}

		for _, set := range seedSets(g, f) {
			da, db := make([]int32, g.NumRealSlots()), make([]int32, f.NumRealSlots())
			ra, ma, sa := BFSFrom(g, set.graph, da)
			rb, mb, sb := BFSFrom(f, set.view, db)
			if ra != rb || ma != mb || sa != sb || !equalMaps(perID(g, gid, da), perID(f, fid, db)) {
				t.Errorf("%s: BFSFrom %s differs: graph %d/%d/%d view %d/%d/%d", name, set.name, ra, ma, sa, rb, mb, sb)
			}
		}

		la, na := ConnectedComponents(g)
		lb, nb := ConnectedComponents(f)
		if pa, pb := partition(g, gid, la), partition(f, fid, lb); na != nb || fmt.Sprint(pa) != fmt.Sprint(pb) {
			t.Errorf("%s: components differ: graph %d %v, view %d %v", name, na, pa, nb, pb)
		}

		pa, pb := perID(g, gid, PageRank(g, 20, 0.85)), perID(f, fid, PageRank(f, 20, 0.85))
		for id, x := range pa {
			if y, ok := pb[id]; !ok || math.Abs(x-y) > 1e-12 {
				t.Errorf("%s: PageRank of %d: graph %v, view %v", name, id, x, y)
			}
		}
		if len(pa) != len(pb) {
			t.Errorf("%s: PageRank covers %d vertices on the graph, %d on the view", name, len(pa), len(pb))
		}

		if a, b := CountTriangles(g), CountTriangles(f); a != b {
			t.Errorf("%s: triangles: graph %d, view %d", name, a, b)
		}
		if a, b := perID(g, gid, KCore(g)), perID(f, fid, KCore(f)); !equalMaps(a, b) {
			t.Errorf("%s: k-core numbers differ", name)
		}
	}
}

// seedSet is one BFSFrom seed list, as dense indexes of the graph and of
// its view.
type seedSet struct {
	name        string
	graph, view []int32
}

// seedSets returns multi-source seed lists: several live seeds, repeated
// ones, dead ones (-1, one past the last slot and, on a tombstoned graph, a
// deleted slot, which the view does not have) alone and mixed with live
// ones, and none.
func seedSets(g *core.Graph, f *core.Frozen) []seedSet {
	dead := seedSet{"dead", []int32{-1, int32(g.NumRealSlots())}, []int32{-1, int32(f.NumRealSlots())}}
	for r := range int32(g.NumRealSlots()) {
		if !g.Alive(r) {
			dead.graph = append(dead.graph, r)
			dead.view = append(dead.view, int32(f.NumRealSlots()))
			break
		}
	}
	byID := func(name string, ids ...int64) seedSet {
		set := seedSet{name: name}
		for _, id := range ids {
			a, _ := g.RealIndex(id)
			b, _ := f.RealIndex(id)
			set.graph, set.view = append(set.graph, a), append(set.view, b)
		}
		return set
	}
	join := func(name string, a, b seedSet) seedSet {
		return seedSet{name, append(slices.Clone(a.graph), b.graph...), append(slices.Clone(a.view), b.view...)}
	}
	sets := []seedSet{dead, {name: "none"}}
	if ids := f.IDs(); len(ids) > 0 {
		first, mid, last := ids[0], ids[len(ids)/2], ids[len(ids)-1]
		several := byID("several", first, mid, last, ids[len(ids)/3])
		sets = append(sets, several,
			byID("repeated", mid, first, mid, mid, first),
			join("dead and live", dead, several))
	}
	return sets
}

func equalMaps[T comparable](a, b map[int64]T) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
