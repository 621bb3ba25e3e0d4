package graphgen

import (
	"sync"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
)

// The neighbor-sweep benchmark owns the getNeighbors layer (Section 4.3):
// one full pass of ForNeighbors or ForInNeighbors over every vertex of the
// same logical graph in each representation — the loop every analytic in
// internal/algo is built on. The graph is the committed benchmark's
// dedup-analytics dataset (IMDB-like co-actors: 16 000 vertices, about
// 250 000 logical edges behind about 50 000 stored ones), extracted and
// converted once, outside the timer.
var (
	sweepOnce sync.Once
	sweepReps map[Representation]*core.Graph
	sweepErr  error
)

func neighborSweepReps(b *testing.B) map[Representation]*core.Graph {
	b.Helper()
	sweepOnce.Do(func() {
		cdup, err := NewEngine(datagen.IMDBLike(1, 16000, 2600)).Extract(datagen.QueryCoactors)
		if err != nil {
			sweepErr = err
			return
		}
		sweepReps = map[Representation]*core.Graph{CDUP: cdup.c}
		for _, rep := range []Representation{BITMAP, DEDUP1, DEDUP2, EXP} {
			g, err := cdup.As(rep)
			if err != nil {
				sweepErr = err
				return
			}
			sweepReps[rep] = g.c
		}
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepReps
}

// BenchmarkNeighborSweep reports ns/edge (time per logical neighbor
// yielded) next to ns/op and allocs/op for one sweep.
func BenchmarkNeighborSweep(b *testing.B) {
	reps := neighborSweepReps(b)
	for _, rep := range []Representation{CDUP, BITMAP, DEDUP1, DEDUP2, EXP} {
		g := reps[rep]
		for _, dir := range []string{"out", "in"} {
			iterate := g.ForNeighbors
			if dir == "in" {
				iterate = g.ForInNeighbors
			}
			b.Run(rep.String()+"/"+dir, func(b *testing.B) {
				b.ReportAllocs()
				n := int32(g.NumRealSlots())
				edges := 0
				count := func(int32) bool { edges++; return true }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for r := int32(0); r < n; r++ {
						iterate(r, count)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
			})
		}
	}
}
