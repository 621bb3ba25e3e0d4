package graphgen

import (
	"testing"

	"graphgen/internal/datagen"
)

// The graph-build benchmarks own the condensed build and the
// representation conversions, on the committed benchmark's inputs (seed
// 2): BenchmarkExtractCoactors is one extract-condensed op, query text to
// C-DUP graph over 32 000 IMDB-like actors; BenchmarkExtractSamePart is
// one extract-expand op, the TPC-H same-part query with every join forced
// into the relational pipeline; BenchmarkConvertRepresentations is
// dedup-analytics' four conversions of one 16 000-actor C-DUP graph,
// one sub-benchmark each, without its analytics. B/op and allocs/op are
// exact; they are what per-vertex garbage in the build, or per-row garbage
// in the joins, shows up in.

// BenchmarkExtractCoactors extracts the co-actor graph; the first
// extraction, which also builds the join indexes, runs before the timer.
func BenchmarkExtractCoactors(b *testing.B) {
	engine := NewEngine(datagen.IMDBLike(2, 32000, 5200))
	if _, err := engine.Extract(datagen.QueryCoactors); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Extract(datagen.QueryCoactors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractSamePart extracts the same-part graph with every join
// in the relational pipeline; the first extraction, which also builds the
// join indexes, runs before the timer.
func BenchmarkExtractSamePart(b *testing.B) {
	engine := NewEngine(datagen.TPCHLike(2, 150, 1000, 25, 3))
	if _, err := engine.Extract(datagen.QuerySamePart, WithForceExpand()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Extract(datagen.QuerySamePart, WithForceExpand()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertRepresentations converts one C-DUP co-actor graph to
// DEDUP-1, DEDUP-2, BITMAP and EXP, one sub-benchmark per target, so each
// conversion's time and allocations print on their own line.
func BenchmarkConvertRepresentations(b *testing.B) {
	cdup, err := NewEngine(datagen.IMDBLike(2, 16000, 2600)).Extract(datagen.QueryCoactors)
	if err != nil {
		b.Fatal(err)
	}
	for _, rep := range []Representation{DEDUP1, DEDUP2, BITMAP, EXP} {
		b.Run(rep.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cdup.As(rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageRank runs dedup-analytics' PageRank (10 iterations, damping
// 0.85) on each representation of the 16 000-actor co-actor graph, one
// sub-benchmark per representation; the conversions run before the timer.
func BenchmarkPageRank(b *testing.B) {
	cdup, err := NewEngine(datagen.IMDBLike(2, 16000, 2600)).Extract(datagen.QueryCoactors)
	if err != nil {
		b.Fatal(err)
	}
	for _, rep := range []Representation{CDUP, DEDUP1, DEDUP2, BITMAP, EXP} {
		g, err := cdup.As(rep)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rep.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.PageRank(10, 0.85)
			}
		})
	}
}
