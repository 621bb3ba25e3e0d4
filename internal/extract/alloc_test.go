package extract

import (
	"runtime"
	"testing"

	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
)

// TestExtractCoactorsAllocations bounds the allocations and the bytes of
// one co-actor extraction on IMDBLike(2, 32000, 5200), the benchmark's
// condensed workload. The node load streams into presized arrays, each
// adjacency kind is one arena with a 12-byte record per row, and each
// segment drops its repeated rows as int32 slot pairs in one flat set, so
// about 800 allocations and 7 MB remain, most of the bytes the graph
// itself. With a 24-byte slice header per row it took 9.06 MB.
// Wiring the graph one append at a time took about 100 000 allocations,
// and a relational DISTINCT over each segment's Value rows 20.7 MB. It
// also checks that Step 6 leaves no dead virtual slot behind: 191 of the
// 5 200 virtual nodes are expanded.
func TestExtractCoactorsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := datagen.IMDBLike(2, 32000, 5200)
	prog, err := datalog.Parse(datagen.QueryCoactors)
	if err != nil {
		t.Fatal(err)
	}
	// The first extraction creates the join indexes.
	res, err := Extract(db, prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.NumVirtualSlots() != g.NumVirtualNodes() || g.NumVirtualNodes() != 5009 || res.Stats.PreprocessExpanded != 191 {
		t.Fatalf("%d virtual slots, %d live, %d expanded by Step 6; want 5009, 5009, 191",
			g.NumVirtualSlots(), g.NumVirtualNodes(), res.Stats.PreprocessExpanded)
	}
	const bound, byteBound = 5000, 8 << 20
	run := func() {
		if _, err := Extract(db, prog, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, run)
	t.Logf("%.0f allocations per co-actor extraction", allocs)
	if allocs > bound {
		t.Errorf("%.0f allocations per co-actor extraction, want at most %d", allocs, bound)
	}
	const runs = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per co-actor extraction", bytes)
	if bytes > byteBound {
		t.Errorf("%d bytes per co-actor extraction, want at most %d (8 MiB)", bytes, byteBound)
	}
}
