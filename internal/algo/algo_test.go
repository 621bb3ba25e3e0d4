package algo

import (
	"math"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
)

// allReps builds every representation of the same random condensed graph.
// External IDs are shared, so per-ID results must agree exactly.
func allReps(t *testing.T, seed int64) map[string]*core.Graph {
	t.Helper()
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: seed, RealNodes: 60, VirtualNodes: 30, MeanSize: 5, StdDev: 2,
	})
	reps := map[string]*core.Graph{"C-DUP": g}
	exp, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	reps["EXP"] = exp
	if b1, _, err := dedup.Bitmap1(g); err == nil {
		reps["BITMAP-1"] = b1
	} else {
		t.Fatal(err)
	}
	if b2, _, err := dedup.Bitmap2(g); err == nil {
		reps["BITMAP-2"] = b2
	} else {
		t.Fatal(err)
	}
	if d1, _, err := dedup.Dedup1GreedyVirtualFirst(g, dedup.Options{Seed: seed}); err == nil {
		reps["DEDUP-1"] = d1
	} else {
		t.Fatal(err)
	}
	if d2, _, err := dedup.Dedup2Greedy(g, dedup.Options{Seed: seed}); err == nil {
		reps["DEDUP-2"] = d2
	} else {
		t.Fatal(err)
	}
	return reps
}

// byID converts a dense-indexed float result to an ID-keyed map.
func byID(g *core.Graph, vals []float64) map[int64]float64 {
	out := make(map[int64]float64)
	g.ForEachReal(func(r int32) bool {
		out[g.RealID(r)] = vals[r]
		return true
	})
	return out
}

func TestDegreesAgreeAcrossRepresentations(t *testing.T) {
	reps := allReps(t, 7)
	ref := reps["EXP"]
	want := make(map[int64]int)
	refDeg := Degrees(ref)
	ref.ForEachReal(func(r int32) bool {
		want[ref.RealID(r)] = refDeg[r]
		return true
	})
	for name, g := range reps {
		deg := Degrees(g)
		g.ForEachReal(func(r int32) bool {
			if deg[r] != want[g.RealID(r)] {
				t.Fatalf("%s: degree(%d) = %d, want %d", name, g.RealID(r), deg[r], want[g.RealID(r)])
			}
			return true
		})
	}
}

func TestBFSAgreesAcrossRepresentations(t *testing.T) {
	reps := allReps(t, 11)
	ref := BFS(reps["EXP"], 1)
	for name, g := range reps {
		res := BFS(g, 1)
		if res.Visited != ref.Visited || res.MaxDepth != ref.MaxDepth {
			t.Fatalf("%s: BFS visited=%d depth=%d, want %d/%d",
				name, res.Visited, res.MaxDepth, ref.Visited, ref.MaxDepth)
		}
	}
	// Per-node distances must agree too.
	expDist := byDist(reps["EXP"], BFS(reps["EXP"], 1))
	for name, g := range reps {
		d := byDist(g, BFS(g, 1))
		for id, want := range expDist {
			if d[id] != want {
				t.Fatalf("%s: dist(%d) = %d, want %d", name, id, d[id], want)
			}
		}
	}
}

func byDist(g *core.Graph, r BFSResult) map[int64]int32 {
	out := make(map[int64]int32)
	g.ForEachReal(func(i int32) bool {
		out[g.RealID(i)] = r.Dist[i]
		return true
	})
	return out
}

func TestBFSMissingSource(t *testing.T) {
	g := core.New(core.CDUP)
	g.AddRealNode(1)
	res := BFS(g, 99)
	if res.Visited != 0 {
		t.Fatalf("visited = %d, want 0", res.Visited)
	}
}

func TestPageRankAgreesAcrossRepresentations(t *testing.T) {
	reps := allReps(t, 13)
	ref := byID(reps["EXP"], PageRank(reps["EXP"], 10, 0.85))
	for name, g := range reps {
		pr := byID(g, PageRank(g, 10, 0.85))
		for id, want := range ref {
			if math.Abs(pr[id]-want) > 1e-9 {
				t.Fatalf("%s: pagerank(%d) = %g, want %g", name, id, pr[id], want)
			}
		}
	}
}

func TestPageRankMassBounded(t *testing.T) {
	reps := allReps(t, 17)
	pr := PageRank(reps["C-DUP"], 20, 0.85)
	sum := 0.0
	for i, x := range pr {
		if x < 0 {
			t.Fatalf("negative rank at %d: %g", i, x)
		}
		sum += x
	}
	// Dangling mass is dropped, so total rank lies in ((1-d), 1].
	if sum <= 0.15-1e-9 || sum > 1+1e-9 {
		t.Fatalf("rank mass = %g, want in (0.15, 1]", sum)
	}
}

func TestConnectedComponentsAgree(t *testing.T) {
	reps := allReps(t, 19)
	_, want := ConnectedComponents(reps["EXP"])
	for name, g := range reps {
		_, got := ConnectedComponents(g)
		if got != want {
			t.Fatalf("%s: components = %d, want %d", name, got, want)
		}
	}
}

func TestConnectedComponentsIsolated(t *testing.T) {
	g := core.New(core.CDUP)
	for i := int64(1); i <= 5; i++ {
		g.AddRealNode(i)
	}
	v := g.AddVirtualNode(1)
	g.AddMember(v, 0)
	g.AddMember(v, 1)
	labels, count := ConnectedComponents(g)
	if count != 4 { // {1,2} plus three singletons
		t.Fatalf("components = %d, want 4", count)
	}
	if labels[0] != labels[1] {
		t.Fatal("members of the same virtual node must share a component")
	}
}

func TestTrianglesAgree(t *testing.T) {
	reps := allReps(t, 23)
	want := CountTriangles(reps["EXP"])
	if want == 0 {
		t.Skip("generator produced no triangles at this seed")
	}
	for name, g := range reps {
		if got := CountTriangles(g); got != want {
			t.Fatalf("%s: triangles = %d, want %d", name, got, want)
		}
	}
}

func TestTrianglesKnownClique(t *testing.T) {
	// A 4-clique via one virtual node has C(4,3) = 4 triangles.
	g := core.New(core.CDUP)
	g.Symmetric = true
	for i := int64(1); i <= 4; i++ {
		g.AddRealNode(i)
	}
	v := g.AddVirtualNode(1)
	for r := int32(0); r < 4; r++ {
		g.AddMember(v, r)
	}
	if got := CountTriangles(g); got != 4 {
		t.Fatalf("triangles = %d, want 4", got)
	}
}
