package graphgen

import (
	"runtime"
	"testing"

	"graphgen/internal/datagen"
)

// TestMemBytesMatchesHeap builds each of the five representations of the
// IMDBLike(2, 16000, 2600) co-actor graph and holds its MemBytes within
// 10 % of the live heap the build added: the heap after a forced
// collection, with the build's result held, less the heap before it. The
// first extraction, which also builds the join indexes, runs before any
// measurement and stays held, and each conversion is measured with its
// C-DUP source already held.
func TestMemBytesMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five representations of a 16 000-actor graph")
	}
	engine := NewEngine(datagen.IMDBLike(2, 16000, 2600))
	warm, err := engine.Extract(datagen.QueryCoactors)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		// Two collections: the first moves pooled traversal scratch to
		// the victim cache, the second frees it.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(g *Graph, delta int64) {
		t.Helper()
		mem := g.MemBytes()
		t.Logf("%-7s MemBytes %9d, heap delta %9d (%+.1f %%)", g.Representation(), mem, delta, 100*float64(mem-delta)/float64(delta))
		if 10*abs64(mem-delta) > delta {
			t.Errorf("%s: MemBytes %d is more than 10 %% off the heap delta %d", g.Representation(), mem, delta)
		}
	}
	before := heap()
	cdup, err := engine.Extract(datagen.QueryCoactors)
	if err != nil {
		t.Fatal(err)
	}
	check(cdup, heap()-before)
	for _, rep := range []Representation{DEDUP1, DEDUP2, BITMAP, EXP} {
		before := heap()
		g, err := cdup.As(rep)
		if err != nil {
			t.Fatal(err)
		}
		check(g, heap()-before)
		runtime.KeepAlive(g)
	}
	runtime.KeepAlive(cdup)
	runtime.KeepAlive(warm)
	runtime.KeepAlive(engine) // its tables, or the first delta goes negative
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
