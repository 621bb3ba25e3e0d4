package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"graphgen/internal/obs"
)

// --- helpers ---

// collect drains the pipeline a constructor returned: the New* + Collect
// composition in one expression, collect(NewScan(...)).
func collect(it RowIter, err error) (*Rel, error) {
	if err != nil {
		return nil, err
	}
	return Collect(it)
}

// rowsEqual compares two relations row for row — order included, since
// every operator contract fixes its output order.
func rowsEqual(t *testing.T, got, want *Rel, label string) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: cols %v vs %v", label, got.Cols, want.Cols)
	}
	for i, c := range got.Cols {
		if want.Cols[i] != c {
			t.Fatalf("%s: cols %v vs %v", label, got.Cols, want.Cols)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if !got.Rows[i][j].Equal(want.Rows[i][j]) {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// randTable fills a table with random small-domain rows so joins hit and
// predicates select nontrivially.
func randTable(t *testing.T, db *DB, rng *rand.Rand, name string, cols []Column, n int) *Table {
	t.Helper()
	tbl, err := db.Create(name, cols...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := make([]Value, len(cols))
		for j, c := range cols {
			if c.Type == Int {
				row[j] = IntVal(int64(rng.Intn(8)))
			} else {
				row[j] = StrVal(fmt.Sprintf("s%d", rng.Intn(5)))
			}
		}
		if err := tbl.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// --- streaming == materializing equivalence ---

// TestStreamingMaterializingEquivalence builds randomized
// scan→join→project plans and runs each twice: as one fused streaming
// pipeline, and with Materialize interposed after every operator (the
// materializing oracle, which reproduces the old operator-at-a-time
// execution). The collected outputs must match row for row, in both
// index modes.
func TestStreamingMaterializingEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := NewDB()
		left := randTable(t, db, rng, "L",
			[]Column{{"a", Int}, {"b", Int}, {"s", String}}, 20+rng.Intn(60))
		right := randTable(t, db, rng, "R",
			[]Column{{"b", Int}, {"c", Int}}, 20+rng.Intn(60))
		if rng.Intn(2) == 0 {
			if _, err := right.CreateIndex("b"); err != nil {
				t.Fatal(err)
			}
		}
		var preds []Pred
		if rng.Intn(2) == 0 {
			preds = []Pred{{Col: 1, Value: IntVal(int64(rng.Intn(8)))}}
		}
		useIndex := []IndexMode{IndexAuto, IndexOff}[rng.Intn(2)]
		distinct := rng.Intn(2) == 0

		build := func(stage func(RowIter) (RowIter, error)) (*Rel, error) {
			opts := ExecOpts{UseIndex: useIndex}
			cur, err := NewScan(left, preds, []int{0, 1, 2}, []string{"a", "b", "s"}, opts)
			if err != nil {
				return nil, err
			}
			if cur, err = stage(cur); err != nil {
				return nil, err
			}
			if cur, err = NewTableJoin(cur, right, nil, []int{0, 1}, []string{"b", "c"}, []string{"b"}, nil, opts); err != nil {
				return nil, err
			}
			if cur, err = stage(cur); err != nil {
				return nil, err
			}
			if cur, err = NewProject(cur, []string{"a", "c"}, distinct, opts); err != nil {
				return nil, err
			}
			if cur, err = stage(cur); err != nil {
				return nil, err
			}
			return Collect(cur)
		}
		streamed, err := build(func(it RowIter) (RowIter, error) { return it, nil })
		if err != nil {
			t.Fatalf("trial %d: streaming: %v", trial, err)
		}
		materialized, err := build(func(it RowIter) (RowIter, error) { return Materialize(it, nil) })
		if err != nil {
			t.Fatalf("trial %d: materializing: %v", trial, err)
		}
		rowsEqual(t, streamed, materialized,
			fmt.Sprintf("trial %d (index=%d distinct=%t)", trial, useIndex, distinct))
	}
}

// --- mid-stream error propagation ---

// failIter yields good rows, then fails. It records whether Close ran.
type failIter struct {
	cols   []string
	rows   [][]Value
	pos    int
	err    error
	closed int
}

func (f *failIter) Cols() []string { return f.cols }

func (f *failIter) Next() (Row, bool, error) {
	if f.pos >= len(f.rows) {
		return nil, false, f.err
	}
	f.pos++
	return f.rows[f.pos-1], true, nil
}

func (f *failIter) Close() error {
	f.closed++
	return nil
}

var errMidStream = errors.New("mid-stream failure")

// TestErrorPropagation drives a failing source through every operator
// shape and asserts Collect surfaces the error, the source is closed
// exactly once (the constructor owns its inputs).
func TestErrorPropagation(t *testing.T) {
	goodRows := func(n int) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{IntVal(int64(i % 4)), IntVal(int64(i))}
		}
		return rows
	}
	probe := &Rel{Cols: []string{"k", "v"}, Rows: goodRows(8)}

	shapes := []struct {
		name  string
		build func(src *failIter) (RowIter, error)
	}{
		{"filter", func(src *failIter) (RowIter, error) {
			return NewFilter(src, ExecOpts{}, func(Row) bool { return true }), nil
		}},
		{"project", func(src *failIter) (RowIter, error) {
			return NewProject(src, []string{"k"}, false, ExecOpts{})
		}},
		{"distinct", func(src *failIter) (RowIter, error) {
			return NewProject(src, []string{"k"}, true, ExecOpts{})
		}},
		{"join build side", func(src *failIter) (RowIter, error) {
			return NewJoin(src, IterRel(probe), []string{"k"}, nil, ExecOpts{})
		}},
		{"join probe side", func(src *failIter) (RowIter, error) {
			return NewJoin(IterRel(probe), src, []string{"k"}, nil, ExecOpts{})
		}},
		{"cross", func(src *failIter) (RowIter, error) {
			return NewCross(IterRel(probe), src, ExecOpts{}), nil
		}},
		{"collect direct", func(src *failIter) (RowIter, error) { return src, nil }},
	}
	for _, nRows := range []int{0, 3, 2500} {
		for _, shape := range shapes {
			src := &failIter{cols: []string{"k", "v"}, rows: goodRows(nRows), err: errMidStream}
			it, err := shape.build(src)
			if err != nil {
				t.Fatalf("%s/%d: constructor: %v", shape.name, nRows, err)
			}
			if _, err := Collect(it); !errors.Is(err, errMidStream) {
				t.Fatalf("%s/%d: Collect error = %v, want errMidStream", shape.name, nRows, err)
			}
			if src.closed != 1 {
				t.Fatalf("%s/%d: source closed %d times, want exactly once", shape.name, nRows, src.closed)
			}
		}
	}
}

// TestConstructorErrorClosesInputs: a constructor that rejects its
// arguments must close the iterators it was handed — the caller has no
// handle left to do it.
func TestConstructorErrorClosesInputs(t *testing.T) {
	mk := func() *failIter { return &failIter{cols: []string{"k"}, rows: nil, err: nil} }

	a, b := mk(), mk()
	if _, err := NewJoin(a, b, []string{"missing"}, nil, ExecOpts{}); err == nil {
		t.Fatal("join with missing column succeeded")
	}
	if a.closed != 1 || b.closed != 1 {
		t.Fatalf("join error left inputs open: a=%d b=%d", a.closed, b.closed)
	}

	c := mk()
	if _, err := NewProject(c, []string{"missing"}, false, ExecOpts{}); err == nil {
		t.Fatal("project with missing column succeeded")
	}
	if c.closed != 1 {
		t.Fatalf("project error left input open: %d", c.closed)
	}
}

// --- tracker accounting ---

// TestTrackerReleasesOnClose: Materialize charges the tracker for the
// staged rows and Close refunds them — afterwards a small acquisition
// must not push the peak past the staged high-water mark.
func TestTrackerReleasesOnClose(t *testing.T) {
	tr := NewTracker()
	rel := &Rel{Cols: []string{"x"}, Rows: make([][]Value, 10)}
	for i := range rel.Rows {
		rel.Rows[i] = []Value{IntVal(int64(i))}
	}
	it, err := Materialize(IterRel(rel), tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Peak() != 10 {
		t.Fatalf("peak after materialize = %d, want 10", tr.Peak())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Acquire(5)
	if tr.Peak() != 10 {
		t.Fatalf("peak after close+reacquire = %d, want 10 (close did not release)", tr.Peak())
	}
	tr.Release(5)
}

// TestTrackerCountsJoinBuildSide: a streaming join's held state is its
// build side, and it is refunded when the join closes.
func TestTrackerCountsJoinBuildSide(t *testing.T) {
	tr := NewTracker()
	build := &Rel{Cols: []string{"k"}, Rows: [][]Value{{IntVal(1)}, {IntVal(2)}, {IntVal(3)}}}
	probe := &Rel{Cols: []string{"k"}, Rows: [][]Value{{IntVal(1)}, {IntVal(2)}}}
	it, err := NewJoin(IterRel(build), IterRel(probe), []string{"k"}, nil, ExecOpts{Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("join rows = %d, want 2", len(out.Rows))
	}
	if tr.Peak() != 3 {
		t.Fatalf("peak = %d, want 3 (the build side)", tr.Peak())
	}
	tr.Acquire(1)
	if tr.Peak() != 3 {
		t.Fatalf("peak after close+reacquire = %d: build side not released", tr.Peak())
	}
}

// TestNilTrackerIsSafe: every operator takes a nil Tracker.
func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.Acquire(5)
	tr.Release(5)
	if tr.Peak() != 0 {
		t.Fatal("nil tracker peak")
	}
}

// --- one source row at a time ---

// keyedTable returns an n-row table (k, v) with k = i mod keys and v = i,
// indexed on k.
func keyedTable(t *testing.T, n, keys int) *Table {
	t.Helper()
	tbl, err := NewDB().Create("T", Column{"k", Int}, Column{"v", Int})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(IntVal(int64(i%keys)), IntVal(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sourceRowsRead follows a stage down its probe side to the row source at
// the bottom (a row slice, an index bucket or a gathered bucket list) and
// returns how many rows that source has handed out.
func sourceRowsRead(t *testing.T, it RowIter) int {
	t.Helper()
	for {
		switch s := it.(type) {
		case *expandIter:
			it = s.src
		case *buildProbeIter:
			it = s.inner
		case *tableJoinIter:
			it = s.inner
		case *sliceIter:
			return s.pos
		case *bucketIter:
			return s.pos
		case *entrySliceIter:
			return s.pos
		default:
			t.Fatalf("no row source under %T", it)
			return 0
		}
	}
}

// TestStagesReadOneSourceRow pulls the first output row from every stage
// that streams a source through a per-row kernel and checks that it read
// one probe-side source row to produce it: a stage holds a row in flight,
// never a window of them.
func TestStagesReadOneSourceRow(t *testing.T) {
	const n = 5000
	tbl := keyedTable(t, n, 1) // every row has k = 0
	k0 := []Pred{{Col: 0, Value: IntVal(0)}}
	rows := func() RowIter { return IterRows([]string{"k", "v"}, tbl.Rows) }
	one := func() RowIter { return IterRows([]string{"k"}, [][]Value{{IntVal(0)}}) }
	tableJoin := func(mode IndexMode) (RowIter, error) {
		return NewTableJoin(one(), tbl, nil, []int{0, 1}, []string{"k", "v"}, []string{"k"}, nil, ExecOpts{UseIndex: mode})
	}
	stages := []struct {
		name  string
		build func() (RowIter, error)
	}{
		{"scan, table walk", func() (RowIter, error) {
			return NewScan(tbl, k0, []int{1}, []string{"v"}, ExecOpts{UseIndex: IndexOff})
		}},
		{"scan, index bucket", func() (RowIter, error) {
			return NewScan(tbl, k0, []int{1}, []string{"v"}, ExecOpts{UseIndex: IndexForce})
		}},
		{"select", func() (RowIter, error) {
			return NewSelect(tbl.Rows, k0, nil, []int{1}, []string{"v"}, ExecOpts{}), nil
		}},
		{"filter", func() (RowIter, error) {
			return NewFilter(rows(), ExecOpts{}, func(Row) bool { return true }), nil
		}},
		{"project", func() (RowIter, error) { return NewProject(rows(), []string{"v"}, false, ExecOpts{}) }},
		{"join probe", func() (RowIter, error) { return NewJoin(one(), rows(), []string{"k"}, nil, ExecOpts{}) }},
		{"table join, scan path", func() (RowIter, error) { return tableJoin(IndexOff) }},
		{"table join, index path", func() (RowIter, error) { return tableJoin(IndexForce) }},
	}
	for _, s := range stages {
		it, err := s.build()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("%s: first Next: ok=%t err=%v", s.name, ok, err)
		}
		if read := sourceRowsRead(t, it); read != 1 {
			t.Errorf("%s: read %d of %d source rows for its first output row, want 1", s.name, read, n)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanAccessPathIgnoresGOMAXPROCS: IndexAuto chooses between the index
// and the table walk from the data alone. A predicate column with three
// distinct keys takes the index at one processor and at eight.
func TestScanAccessPathIgnoresGOMAXPROCS(t *testing.T) {
	tbl := keyedTable(t, 300, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var strategies []string
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		tr := obs.NewTrace()
		rel, err := collect(NewScan(tbl, []Pred{{Col: 0, Value: IntVal(1)}}, []int{1}, []string{"v"}, ExecOpts{Trace: tr}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Rows) != 100 {
			t.Fatalf("GOMAXPROCS %d: %d rows, want 100", procs, len(rel.Rows))
		}
		root := tr.Finish()
		if len(root.Children) != 1 || root.Children[0].Op != "scan" {
			t.Fatalf("GOMAXPROCS %d: want one scan span, got %+v", procs, root.Children)
		}
		strategies = append(strategies, root.Children[0].Strategy)
	}
	if strategies[0] != "index" || strategies[1] != "index" {
		t.Fatalf("strategy at GOMAXPROCS 1, 8 = %q, want index at both", strategies)
	}
}
