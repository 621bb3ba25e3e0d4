package workload

import (
	"fmt"
	"testing"

	"graphgen"
	"graphgen/internal/algo"
	"graphgen/internal/datagen"
)

// BenchmarkCloseness times Closeness on one worker:
//   - snb/samples=N: the SNB SF 1 knows view (10 000 persons), N pivots from
//     SampleSources, as the served closeness analysis picks them;
//   - path/seeds=N: a 100 000-vertex directed path, N seeds evenly spaced
//     from its head, so the traversal has 100 000 levels of one to N
//     vertices each. path/BFSFrom is one algo.BFSFrom from the head on the
//     same view, the cost one single-seed batch is held to. A batch that
//     swept all n vertices at every level would take seconds here.
func BenchmarkCloseness(b *testing.B) {
	b.Run("snb", func(b *testing.B) {
		engine := graphgen.NewEngine(datagen.SNB(datagen.SNBConfig{Seed: 2, ScaleFactor: 1}))
		knows, err := engine.Extract(datagen.QueryKnows)
		if err != nil {
			b.Fatal(err)
		}
		snap := Snap(knows)
		for _, k := range []int{8, 64} {
			pivots := snap.SampleSources(k)
			b.Run(fmt.Sprintf("samples=%d", k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					snap.Closeness(pivots, 1)
				}
			})
		}
	})
	b.Run("path", func(b *testing.B) {
		snap := Snap(pathGraph(b, 100_000))
		for _, k := range []int{1, 64} {
			seeds := snap.SampleSources(k)
			b.Run(fmt.Sprintf("seeds=%d", k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					snap.Closeness(seeds, 1)
				}
			})
		}
		b.Run("BFSFrom", func(b *testing.B) {
			dist := make([]int32, snap.NumVertices())
			for i := 0; i < b.N; i++ {
				algo.BFSFrom(snap.f, []int32{0}, dist)
			}
		})
	})
}
