package relstore

import (
	"fmt"
	"testing"
)

// TestPipelineAllocsFollowSlabChunks drives a scan → table join → early
// distinct pipeline, the shape of one extract-expand join stage, over 10 k
// and 100 k probe rows, where every probe row joins and three in four
// joined rows are duplicates. The join and the scans write into reused
// rows, so the pipeline's allocations follow the slab chunks its distinct
// copies survivors into — about one per slabChunkRows rows — plus a
// constant (the operators, the 64-row build, the doubling first chunks and
// tables), and not the rows: about 120 at 10 k rows and 330 at 100 k,
// where one allocation per joined row would be 100 000.
func TestPipelineAllocsFollowSlabChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const keys = 64
	db := NewDB()
	build, err := db.Create("B", Column{"k", Int})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		if err := build.Insert(IntVal(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{10_000, 100_000} {
		probe, err := db.Create(fmt.Sprintf("T%d", n), Column{"k", Int}, Column{"v", Int})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := probe.Insert(IntVal(int64(i%keys)), IntVal(int64(i%(n/4)))); err != nil {
				t.Fatal(err)
			}
		}
		run := func() int {
			scan, err := NewScan(build, nil, []int{0}, []string{"k"}, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			join, err := NewTableJoin(scan, probe, nil, []int{0, 1}, []string{"k", "v"}, []string{"k"}, []string{"v"}, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := Collect(NewDistinct(join, ExecOpts{}))
			if err != nil {
				t.Fatal(err)
			}
			return len(rel.Rows)
		}
		if got := run(); got != n/4 {
			t.Fatalf("%d probe rows: %d distinct rows, want %d", n, got, n/4)
		}
		// Collect's own copies and row headers are the test's, not the
		// pipeline's: count them once and take them off.
		collected := testing.AllocsPerRun(3, func() {
			if _, err := Collect(IterRows([]string{"v"}, make([][]Value, n/4))); err != nil {
				t.Fatal(err)
			}
		})
		allocs := testing.AllocsPerRun(3, func() { run() }) - collected
		if limit := float64(n/slabChunkRows + 128); allocs > limit {
			t.Errorf("%d probe rows: %.0f allocations per run, want at most %.0f (rows/%d + 128)", n, allocs, limit, slabChunkRows)
		}
	}
}

// TestPoisonOverwritesHandedOutRows: under the borrowpoison build tag each
// scratch-row operator overwrites the row it handed out once it is asked
// for the next one, and in a normal build it leaves the row alone.
func TestPoisonOverwritesHandedOutRows(t *testing.T) {
	rows := [][]Value{{IntVal(1), IntVal(2)}}
	one := func() RowIter { return IterRows([]string{"k", "v"}, rows) }
	stages := map[string]func() (RowIter, error){
		"select": func() (RowIter, error) {
			return NewSelect(rows, nil, nil, []int{1, 0}, []string{"v", "k"}, ExecOpts{}), nil
		},
		"project":  func() (RowIter, error) { return NewProject(one(), []string{"v"}, false, ExecOpts{}) },
		"join":     func() (RowIter, error) { return NewJoin(one(), one(), []string{"k"}, nil, ExecOpts{}) },
		"cross":    func() (RowIter, error) { return NewCross(one(), IterRows([]string{"w"}, rows), ExecOpts{}), nil },
		"distinct": func() (RowIter, error) { return NewDistinct(one(), ExecOpts{}), nil },
	}
	for name, mk := range stages {
		it, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		row, ok, err := it.Next()
		if !ok || err != nil {
			t.Fatalf("%s: first Next: ok=%t err=%v", name, ok, err)
		}
		if _, ok, err := it.Next(); ok || err != nil {
			t.Fatalf("%s: second Next: ok=%t err=%v", name, ok, err)
		}
		if got := row[0].Equal(poisoned); got != borrowPoison {
			t.Errorf("%s: handed-out row poisoned after the next Next = %t, poison mode %t", name, got, borrowPoison)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !rows[0][0].Equal(IntVal(1)) || !rows[0][1].Equal(IntVal(2)) {
		t.Fatalf("an operator wrote its input row: %v", rows[0])
	}
}
