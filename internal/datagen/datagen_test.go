package datagen

import (
	"math/rand"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
)

func TestCondensedShape(t *testing.T) {
	g := Condensed(CondensedConfig{Seed: 1, RealNodes: 100, VirtualNodes: 40, MeanSize: 6, StdDev: 2})
	if g.NumRealNodes() != 100 {
		t.Fatalf("real nodes = %d", g.NumRealNodes())
	}
	if g.NumVirtualNodes() == 0 || g.NumVirtualNodes() > 40 {
		t.Fatalf("virtual nodes = %d, want in (0, 40]", g.NumVirtualNodes())
	}
	if !g.Symmetric || g.Mode() != core.CDUP {
		t.Fatal("generator must emit symmetric C-DUP graphs")
	}
	avg := g.AvgVirtualSize()
	if avg < 3 || avg > 12 {
		t.Fatalf("avg virtual size = %.1f, want near 6", avg)
	}
	if err := g.VerifyDAG(); err != nil {
		t.Fatal(err)
	}
}

func TestCondensedDeterministic(t *testing.T) {
	a := Condensed(CondensedConfig{Seed: 9, RealNodes: 50, VirtualNodes: 20, MeanSize: 5, StdDev: 2})
	b := Condensed(CondensedConfig{Seed: 9, RealNodes: 50, VirtualNodes: 20, MeanSize: 5, StdDev: 2})
	if a.RepEdges() != b.RepEdges() || a.NumVirtualNodes() != b.NumVirtualNodes() {
		t.Fatal("same seed produced different graphs")
	}
	c := Condensed(CondensedConfig{Seed: 10, RealNodes: 50, VirtualNodes: 20, MeanSize: 5, StdDev: 2})
	if a.RepEdges() == c.RepEdges() && a.LogicalEdges() == c.LogicalEdges() {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestCondensedHasDuplication(t *testing.T) {
	// Preferential attachment should produce overlapping virtual nodes,
	// i.e. actual duplication for the dedup algorithms to remove.
	g := Condensed(CondensedConfig{Seed: 2, RealNodes: 80, VirtualNodes: 60, MeanSize: 6, StdDev: 2})
	_, dups := g.DuplicationStats()
	if dups == 0 {
		t.Fatal("generated graph has no duplication; dedup benchmarks would be vacuous")
	}
}

func TestDBLPLikeExtraction(t *testing.T) {
	db := DBLPLike(3, 200, 150)
	prog, err := datalog.Parse(QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.DefaultOptions()
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumRealNodes() != 200 {
		t.Fatalf("real nodes = %d", res.Graph.NumRealNodes())
	}
	if res.Graph.LogicalEdges() == 0 {
		t.Fatal("no co-author edges extracted")
	}
}

func TestIMDBLikeExtraction(t *testing.T) {
	db := IMDBLike(4, 150, 30)
	prog, _ := datalog.Parse(QueryCoactors)
	opts := extract.DefaultOptions()
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Casts average ~10 members: the self-join must be flagged as
	// large-output and condensed.
	if res.Stats.LargeOutputJoins != 1 {
		t.Fatalf("large joins = %d, want 1", res.Stats.LargeOutputJoins)
	}
	if res.Graph.NumVirtualNodes() == 0 {
		t.Fatal("expected virtual nodes for movie casts")
	}
}

func TestTPCHLikeExtraction(t *testing.T) {
	db := TPCHLike(5, 50, 200, 10, 3)
	prog, _ := datalog.Parse(QuerySamePart)
	opts := extract.DefaultOptions()
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The part self-join must be condensed; the key-FK joins handed to
	// the database.
	if res.Stats.LargeOutputJoins < 1 {
		t.Fatalf("stats = %+v: same-part join should be large-output", res.Stats)
	}
	if res.Stats.DatabaseJoins < 2 {
		t.Fatalf("stats = %+v: key-FK joins should go to the database", res.Stats)
	}
}

func TestUnivLikeBipartite(t *testing.T) {
	db := UnivLike(6, 100, 10, 20, 3)
	prog, _ := datalog.Parse(QueryInstructorStudent)
	opts := extract.DefaultOptions()
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumRealNodes() != 110 {
		t.Fatalf("real nodes = %d, want 110", res.Graph.NumRealNodes())
	}
	if res.Graph.Symmetric {
		t.Fatal("bipartite extraction must be directed")
	}
}

func TestLayeredSelectivities(t *testing.T) {
	db := Layered(LayeredSpec{Seed: 7, Rows: 2000, Entities: 300, Sel1: 0.05, Sel2: 0.1})
	a, err := db.Table("A")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := a.NDistinct("j1")
	sel := float64(d) / float64(a.NumRows())
	if sel < 0.03 || sel > 0.07 {
		t.Fatalf("A.j1 selectivity = %.3f, want ~0.05", sel)
	}
	prog, _ := datalog.Parse(LayeredQuery)
	opts := extract.DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.MaxLayer() != 3 {
		t.Fatalf("MaxLayer = %d, want 3", res.Graph.MaxLayer())
	}
	if !res.Graph.Symmetric {
		t.Fatal("layered chain is palindromic; graph should be symmetric")
	}
}

func TestSingleDataset(t *testing.T) {
	db := Single(SingleSpec{Seed: 8, Rows: 1000, Entities: 400, Selectivity: 0.05})
	r, _ := db.Table("R")
	if r.NumRows() == 0 {
		t.Fatal("empty table")
	}
	prog, _ := datalog.Parse(SingleQuery)
	opts := extract.DefaultOptions()
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.MaxLayer() > 1 {
		t.Fatalf("single dataset produced %d layers", res.Graph.MaxLayer())
	}
	if res.Graph.NumVirtualNodes() == 0 {
		t.Fatal("expected a condensed single-layer graph")
	}
}

func TestBSPDatasets(t *testing.T) {
	specs := BSPDatasets()
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, s := range specs {
		g := Condensed(CondensedConfig{
			Seed: s.Seed, RealNodes: s.RealNodes, VirtualNodes: s.VirtualNodes,
			MeanSize: s.MeanSize, StdDev: s.StdDev,
		})
		if g.NumRealNodes() != s.RealNodes {
			t.Fatalf("%s: real nodes = %d", s.Name, g.NumRealNodes())
		}
		if g.LogicalEdges() == 0 {
			t.Fatalf("%s: no edges", s.Name)
		}
	}
}

// TestPickWeightedMatchesScan: the blocked scan picks the same index as a
// one-element-at-a-time scan of the same draw, on weight vectors whose
// lengths are and are not multiples of four.
func TestPickWeightedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 23; n++ {
		weights := make([]int, n)
		total := n
		for i := range weights {
			weights[i] = rng.Intn(5)
			total += weights[i]
		}
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 20*total; k++ {
			want := 0
			for x := b.Intn(total); ; want++ {
				if x -= weights[want] + 1; x < 0 {
					break
				}
			}
			if got := pickWeighted(a, weights, total); got != want {
				t.Fatalf("weights %v: pick %d is %d, a plain scan picks %d", weights, k, got, want)
			}
		}
	}
}
