package graphgen

// Ablation benchmarks for four design choices of the condensed
// representation (paper Sections 4.2 and 5):
//
//   - Step-6 preprocessing (inline tiny virtual nodes) on vs off;
//   - the C-DUP on-the-fly hash set vs DEDUP-1's hashset-free traversal on
//     a graph with NO duplication — isolating the pure hashset cost;
//   - BITMAP mask consultation vs C-DUP hash set on a duplicated graph;
//   - multi-layer traversal vs the flattened single-layer equivalent.

import (
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/dedup"
	"graphgen/internal/extract"
)

// BenchmarkAblation_Preprocessing compares extraction with and without the
// Step-6 pass (Section 4.2): the pass costs time but shrinks the graph.
func BenchmarkAblation_Preprocessing(b *testing.B) {
	db := datagen.DBLPLike(5, 1200, 1000)
	prog, err := datalog.Parse(datagen.QueryCoauthors)
	if err != nil {
		b.Fatal(err)
	}
	for _, skip := range []bool{false, true} {
		name := "WithPreprocess"
		if skip {
			name = "WithoutPreprocess"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var virtuals int
			for i := 0; i < b.N; i++ {
				opts := extract.DefaultOptions()
				opts.ForceCondensed = true
				opts.SkipPreprocess = skip
				res, err := extract.Extract(db, prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				virtuals = res.Graph.NumVirtualNodes()
			}
			b.ReportMetric(float64(virtuals), "virtnodes")
		})
	}
}

// noDupGraph builds a condensed graph with DISJOINT virtual nodes: zero
// duplication, so C-DUP's hash set is pure overhead.
func noDupGraph() *core.Graph {
	g := core.New(core.CDUP)
	g.Symmetric = true
	const nVirt, size = 300, 8
	for i := int64(1); i <= nVirt*size; i++ {
		g.AddRealNode(i)
	}
	for v := 0; v < nVirt; v++ {
		vn := g.AddVirtualNode(1)
		for m := 0; m < size; m++ {
			g.AddMember(vn, int32(v*size+m))
		}
	}
	g.SortAdjacency()
	return g
}

// BenchmarkAblation_HashSetOverhead isolates the on-the-fly deduplication
// cost: the same duplication-free graph traversed in C-DUP mode (hash set)
// vs DEDUP-1 mode (plain traversal).
func BenchmarkAblation_HashSetOverhead(b *testing.B) {
	g := noDupGraph()
	for _, mode := range []core.Mode{core.CDUP, core.DEDUP1} {
		work := g.Clone()
		work.SetMode(mode)
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work.ForEachReal(func(r int32) bool {
					work.ForNeighbors(r, func(int32) bool { return true })
					return true
				})
			}
		})
	}
}

// BenchmarkAblation_BitmapVsHashSet compares the two duplicate-suppression
// mechanisms on a genuinely duplicated graph.
func BenchmarkAblation_BitmapVsHashSet(b *testing.B) {
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: 9, RealNodes: 800, VirtualNodes: 600, MeanSize: 7, StdDev: 2,
	})
	bm, _, err := dedup.Bitmap2(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *core.Graph
	}{{"C-DUP/hashset", g}, {"BITMAP/masks", bm}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.g.ForEachReal(func(r int32) bool {
					tc.g.ForNeighbors(r, func(int32) bool { return true })
					return true
				})
			}
		})
	}
}

// BenchmarkAblation_FlattenLayers compares traversing a 3-layer condensed
// graph against its flattened single-layer equivalent (Section 5.2.2's
// suggested conversion).
func BenchmarkAblation_FlattenLayers(b *testing.B) {
	db := datagen.Layered(datagen.LayeredSpec{Seed: 6, Rows: 4000, Entities: 600, Sel1: 0.05, Sel2: 0.1})
	prog, err := datalog.Parse(datagen.LayeredQuery)
	if err != nil {
		b.Fatal(err)
	}
	opts := extract.DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	multi := res.Graph
	flat := multi.Clone()
	if err := flat.FlattenToSingleLayer(0); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *core.Graph
	}{{"MultiLayer", multi}, {"Flattened", flat}} {
		b.Run(tc.name, func(b *testing.B) {
			ids := make([]int64, 0, 64)
			tc.g.ForEachReal(func(r int32) bool {
				ids = append(ids, tc.g.RealID(r))
				return len(ids) < 64
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				r, _ := tc.g.RealIndex(id)
				tc.g.ForNeighbors(r, func(int32) bool { return true })
			}
			b.ReportMetric(float64(tc.g.RepEdges()), "edges")
		})
	}
}
