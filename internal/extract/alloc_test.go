package extract

import (
	"testing"

	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
)

// TestExtractCoactorsAllocations bounds the allocations of one co-actor
// extraction on IMDBLike(2, 32000, 5200), the benchmark's condensed
// workload: the node load streams into presized arrays and every edge
// row is cut from one array per adjacency kind, so a few thousand
// allocations remain, most of them the segments' distinct. Wiring the
// graph one append at a time took about 100 000. It also checks that
// Step 6 leaves no dead virtual slot behind: 191 of the 5 200 virtual
// nodes are expanded.
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
	const bound = 5000
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Extract(db, prog, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per co-actor extraction", allocs)
	if allocs > bound {
		t.Errorf("%.0f allocations per co-actor extraction, want at most %d", allocs, bound)
	}
}
