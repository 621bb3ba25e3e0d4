package relstore

import (
	"fmt"
	"math/rand"
	"testing"

	"graphgen/internal/obs"
)

// relsEqual asserts two relations are identical: same columns in the same
// order and the same rows in the same order.
func relsEqual(t *testing.T, got, want *Rel, context string) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: cols %v, want %v", context, got.Cols, want.Cols)
	}
	for i := range want.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: cols %v, want %v", context, got.Cols, want.Cols)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", context, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !RowsEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d is %v, want %v", context, i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestCreateIndexAndLookup(t *testing.T) {
	_, _, ap := makeAuthors(t)
	ix, err := ap.CreateIndex("pid")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ap.CreateIndex("pid")
	if err != nil || again != ix {
		t.Fatalf("CreateIndex is not idempotent: %v %v", again, err)
	}
	if ap.Index("pid") != ix {
		t.Fatal("Index(pid) did not return the created index")
	}
	if ap.Index("nope") != nil {
		t.Fatal("Index on unknown column should be nil")
	}
	if _, err := ap.CreateIndex("nope"); err == nil {
		t.Fatal("CreateIndex on unknown column should error")
	}
	rows := ix.Lookup(IntVal(10))
	if len(rows) != 3 {
		t.Fatalf("Lookup(10) returned %d rows, want 3", len(rows))
	}
	// Table order: aids 1, 2, 3 inserted in that order for pid 10.
	for i, want := range []int64{1, 2, 3} {
		if rows[i][0].I != want {
			t.Fatalf("Lookup(10)[%d] aid = %d, want %d", i, rows[i][0].I, want)
		}
	}
	if ix.NKeys() != 3 {
		t.Fatalf("NKeys = %d, want 3 (pids 10, 20, 30)", ix.NKeys())
	}
	if ix.Column() != "pid" || ix.Len() != ap.NumRows() {
		t.Fatalf("Column=%q Len=%d, want pid/%d", ix.Column(), ix.Len(), ap.NumRows())
	}
	if got := ix.Lookup(IntVal(99)); got != nil {
		t.Fatalf("Lookup(99) = %v, want nil", got)
	}
	cols := ap.IndexedColumns()
	if len(cols) != 1 || cols[0] != "pid" {
		t.Fatalf("IndexedColumns = %v, want [pid]", cols)
	}
}

// checkIndexAgainstScan verifies, for every live value of the indexed
// column plus a few absent ones, that the index lookup returns exactly the
// rows a fresh scan of the table finds, in table order — and that the
// maintained distinct-key count matches the catalog recomputed from
// scratch.
func checkIndexAgainstScan(t *testing.T, tbl *Table, ix *Index, col int, probes []Value, context string) {
	t.Helper()
	for _, v := range probes {
		var want [][]Value
		for _, row := range tbl.Rows {
			if row[col].Equal(v) {
				want = append(want, row)
			}
		}
		got := ix.Lookup(v)
		if len(got) != len(want) {
			t.Fatalf("%s: Lookup(%v) returned %d rows, scan finds %d", context, v, len(got), len(want))
		}
		for i := range want {
			if !RowsEqual(got[i], want[i]) {
				t.Fatalf("%s: Lookup(%v)[%d] = %v, scan order has %v", context, v, i, got[i], want[i])
			}
		}
	}
	distinct := make(map[string]struct{})
	for _, row := range tbl.Rows {
		distinct[hashKey(row[col])] = struct{}{}
	}
	if ix.NKeys() != len(distinct) {
		t.Fatalf("%s: NKeys = %d, scan counts %d", context, ix.NKeys(), len(distinct))
	}
}

// TestIndexMaintenanceRandomized drives random insert / Delete /
// DeleteWhere interleavings — with a tiny value domain so duplicate rows
// and multi-row buckets are common — and asserts after every operation
// that index lookups agree with a fresh scan.
func TestIndexMaintenanceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := NewTable("m", Column{"k", Int}, Column{"s", String})
	ixK, err := tbl.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	ixS, err := tbl.CreateIndex("s")
	if err != nil {
		t.Fatal(err)
	}
	kDomain := []int64{1, 2, 3, 4, 5}
	sDomain := []string{"x", "y", "z"}
	probesK := make([]Value, 0, len(kDomain)+1)
	for _, k := range kDomain {
		probesK = append(probesK, IntVal(k))
	}
	probesK = append(probesK, IntVal(99))
	probesS := make([]Value, 0, len(sDomain)+1)
	for _, s := range sDomain {
		probesS = append(probesS, StrVal(s))
	}
	probesS = append(probesS, StrVal("absent"))
	for op := 0; op < 600; op++ {
		switch {
		case tbl.NumRows() == 0 || rng.Intn(3) != 0:
			if err := tbl.Insert(IntVal(kDomain[rng.Intn(len(kDomain))]), StrVal(sDomain[rng.Intn(len(sDomain))])); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(10) == 0:
			k := kDomain[rng.Intn(len(kDomain))]
			tbl.DeleteWhere(func(row []Value) bool { return row[0].I == k })
		default:
			victim := append([]Value(nil), tbl.Rows[rng.Intn(tbl.NumRows())]...)
			if ok, err := tbl.Delete(victim...); err != nil || !ok {
				t.Fatalf("delete %v: ok=%v err=%v", victim, ok, err)
			}
		}
		ctx := fmt.Sprintf("after op %d (%d rows)", op, tbl.NumRows())
		checkIndexAgainstScan(t, tbl, ixK, 0, probesK, ctx)
		checkIndexAgainstScan(t, tbl, ixS, 1, probesS, ctx)
		// NDistinct must keep agreeing with the maintained bucket counts.
		for c, ix := range map[string]*Index{"k": ixK, "s": ixS} {
			d, err := tbl.NDistinct(c)
			if err != nil {
				t.Fatal(err)
			}
			if d != ix.NKeys() {
				t.Fatalf("%s: NDistinct(%s) = %d, index has %d keys", ctx, c, d, ix.NKeys())
			}
		}
	}
}

// TestIndexScanEquivalence asserts NewScan under IndexForce and IndexAuto
// returns row-for-row what IndexOff returns, on randomized tables, for single
// and multi-predicate scans.
func TestIndexScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl := NewTable("e", Column{"a", Int}, Column{"b", Int}, Column{"c", String})
	for i := 0; i < 500; i++ {
		tbl.Insert(IntVal(int64(rng.Intn(20))), IntVal(int64(rng.Intn(8))), StrVal(fmt.Sprintf("s%d", rng.Intn(5))))
	}
	if _, err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 2}
	names := []string{"A", "C"}
	for trial := 0; trial < 30; trial++ {
		preds := []Pred{{Col: 0, Value: IntVal(int64(rng.Intn(22)))}}
		if rng.Intn(2) == 0 {
			preds = append(preds, Pred{Col: 1, Value: IntVal(int64(rng.Intn(8)))})
		}
		want, err := collect(NewScan(tbl, preds, cols, names, ExecOpts{UseIndex: IndexOff}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := collect(NewScan(tbl, preds, cols, names, ExecOpts{UseIndex: IndexForce}))
		if err != nil {
			t.Fatal(err)
		}
		relsEqual(t, got, want, fmt.Sprintf("IndexForce trial %d", trial))
		auto, err := collect(NewScan(tbl, preds, cols, names, ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		relsEqual(t, auto, want, fmt.Sprintf("IndexAuto trial %d", trial))
	}
}

func TestIndexScanErrors(t *testing.T) {
	_, _, ap := makeAuthors(t)
	if _, err := collect(NewScan(ap, []Pred{{Col: 1, Value: IntVal(10)}}, []int{0}, []string{"A"}, ExecOpts{UseIndex: IndexForce})); err == nil {
		t.Fatal("IndexForce scan without an index should error")
	}
	if _, err := ap.CreateIndex("pid"); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(NewScan(ap, []Pred{{Col: 7, Value: IntVal(10)}}, []int{0}, []string{"A"}, ExecOpts{UseIndex: IndexForce})); err == nil {
		t.Fatal("IndexForce scan with out-of-range predicate column should error")
	}
	if _, err := collect(NewScan(ap, nil, []int{0}, []string{"A"}, ExecOpts{UseIndex: IndexForce})); err == nil {
		t.Fatal("IndexForce scan without predicates should error")
	}
}

// TestIndexedJoinEquivalence asserts NewTableJoin under IndexForce returns
// — schema and row order — exactly what the scan-then-NewJoin pipeline
// returns, across
// randomized inputs including duplicate join values on both sides and
// selection predicates on the table side.
func TestIndexedJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := NewTable("r", Column{"k", Int}, Column{"v", Int}, Column{"tag", String})
	for i := 0; i < 400; i++ {
		tbl.Insert(IntVal(int64(rng.Intn(30))), IntVal(int64(rng.Intn(6))), StrVal(fmt.Sprintf("t%d", rng.Intn(3))))
	}
	if _, err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 1}
	names := []string{"K", "V"}
	for trial := 0; trial < 20; trial++ {
		cur := &Rel{Cols: []string{"X", "K"}}
		for i := 0; i < rng.Intn(40); i++ {
			cur.Rows = append(cur.Rows, []Value{IntVal(int64(i)), IntVal(int64(rng.Intn(35)))})
		}
		var preds []Pred
		if rng.Intn(2) == 0 {
			preds = []Pred{{Col: 1, Value: IntVal(int64(rng.Intn(6)))}}
		}
		scanned, err := collect(NewScan(tbl, preds, cols, names, ExecOpts{UseIndex: IndexOff}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := collect(NewJoin(IterRel(cur), IterRel(scanned), []string{"K"}, nil, ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := collect(NewTableJoin(IterRel(cur), tbl, preds, cols, names, []string{"K"}, nil, ExecOpts{UseIndex: IndexForce}))
		if err != nil {
			t.Fatal(err)
		}
		relsEqual(t, got, want, fmt.Sprintf("indexed table join trial %d", trial))
	}
	// Mutate the table (shifting row order) and re-check: the index must
	// still reproduce the scan order.
	for i := 0; i < 100; i++ {
		if rng.Intn(2) == 0 && tbl.NumRows() > 0 {
			victim := append([]Value(nil), tbl.Rows[rng.Intn(tbl.NumRows())]...)
			tbl.Delete(victim...)
		} else {
			tbl.Insert(IntVal(int64(rng.Intn(30))), IntVal(int64(rng.Intn(6))), StrVal("new"))
		}
	}
	cur := &Rel{Cols: []string{"X", "K"}}
	for i := 0; i < 25; i++ {
		cur.Rows = append(cur.Rows, []Value{IntVal(int64(i)), IntVal(int64(rng.Intn(35)))})
	}
	scanned, err := collect(NewScan(tbl, nil, cols, names, ExecOpts{UseIndex: IndexOff}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := collect(NewJoin(IterRel(cur), IterRel(scanned), []string{"K"}, nil, ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(NewTableJoin(IterRel(cur), tbl, nil, cols, names, []string{"K"}, nil, ExecOpts{UseIndex: IndexForce}))
	if err != nil {
		t.Fatal(err)
	}
	relsEqual(t, got, want, "indexed table join after mutations")
}

// TestCompositeKeyJoinProbesIndex pins that a table join on several shared
// columns still narrows to index buckets: it probes the indexed shared
// column with the most distinct keys (whatever its position in the key),
// checks the rest of the key on the bucket rows, and returns the scan
// path's rows in the scan path's order. A small build side must pick the
// index on its own (IndexAuto), which is what keeps a live single-tuple
// delta over a multi-attribute join from scanning the table.
func TestCompositeKeyJoinProbesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cols := []int{2, 1, 0}
	names := []string{"T", "V", "K"}
	for _, indexed := range [][]string{{"k"}, {"k", "v"}, {"v"}} {
		tbl := NewTable("r", Column{"k", Int}, Column{"v", Int}, Column{"tag", String})
		for i := 0; i < 400; i++ {
			tbl.Insert(IntVal(int64(rng.Intn(30))), IntVal(int64(rng.Intn(6))), StrVal(fmt.Sprintf("t%d", rng.Intn(3))))
		}
		for _, c := range indexed {
			if _, err := tbl.CreateIndex(c); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 20; trial++ {
			cur := &Rel{Cols: []string{"X", "V", "K"}}
			for i := 0; i < 1+rng.Intn(3); i++ {
				cur.Rows = append(cur.Rows, []Value{IntVal(int64(i)), IntVal(int64(rng.Intn(7))), IntVal(int64(rng.Intn(32)))})
			}
			shared := [][]string{{"K", "V"}, {"V", "K"}}[trial%2]
			var preds []Pred
			if rng.Intn(2) == 0 {
				preds = []Pred{{Col: 2, Value: StrVal("t1")}}
			}
			keep := [][]string{nil, {"X", "T"}}[rng.Intn(2)]
			want, err := collect(NewTableJoin(IterRel(cur), tbl, preds, cols, names, shared, keep, ExecOpts{UseIndex: IndexOff}))
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []IndexMode{IndexAuto, IndexForce} {
				tr := obs.NewTrace()
				got, err := collect(NewTableJoin(IterRel(cur), tbl, preds, cols, names, shared, keep, ExecOpts{UseIndex: mode, Trace: tr}))
				if err != nil {
					t.Fatal(err)
				}
				relsEqual(t, got, want, fmt.Sprintf("indexes %v shared %v trial %d mode %d", indexed, shared, trial, mode))
				// v alone has 6 keys, too few for IndexAuto to prefer it.
				wantStrategy := "index"
				if mode == IndexAuto && len(indexed) == 1 && indexed[0] == "v" && 2*len(cur.Rows) > 6 {
					wantStrategy = "scan"
				}
				tr.Finish().Walk(func(s *obs.Span) {
					if s.Op == "table_join" && s.Strategy != wantStrategy {
						t.Fatalf("indexes %v shared %v trial %d mode %d: strategy %q, want %q", indexed, shared, trial, mode, s.Strategy, wantStrategy)
					}
				})
			}
		}
	}
}

func TestIndexedJoinErrors(t *testing.T) {
	_, _, ap := makeAuthors(t)
	cur := &Rel{Cols: []string{"P"}, Rows: [][]Value{{IntVal(10)}}}
	if _, err := collect(NewTableJoin(IterRel(cur), ap, nil, []int{0, 1}, []string{"A", "P"}, []string{"P"}, nil, ExecOpts{UseIndex: IndexForce})); err == nil {
		t.Fatal("IndexForce table join without an index should error")
	}
	if _, err := ap.CreateIndex("pid"); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(NewTableJoin(IterRel(cur), ap, nil, []int{0, 1}, []string{"A", "P"}, []string{"Q"}, nil, ExecOpts{UseIndex: IndexForce})); err == nil {
		t.Fatal("table join with join column missing from cur should error")
	}
	if _, err := collect(NewTableJoin(IterRel(cur), ap, nil, []int{0, 1}, []string{"A", "B"}, []string{"P"}, nil, ExecOpts{UseIndex: IndexForce})); err == nil {
		t.Fatal("table join with join column missing from projection should error")
	}
}

// TestScanPredOutOfRange is the regression test for the
// predicate-validation fix: an out-of-range predicate column must be an
// error like every other malformed-input path, not an index-out-of-range
// panic.
func TestScanPredOutOfRange(t *testing.T) {
	_, _, ap := makeAuthors(t)
	for _, col := range []int{-1, 2, 99} {
		if _, err := collect(NewScan(ap, []Pred{{Col: col, Value: IntVal(1)}}, []int{0}, []string{"A"}, ExecOpts{UseIndex: IndexOff})); err == nil {
			t.Fatalf("predicate column %d: want error, got none", col)
		}
	}
	// In-range predicates still work.
	rel, err := collect(NewScan(ap, []Pred{{Col: 1, Value: IntVal(10)}}, []int{0}, []string{"A"}, ExecOpts{UseIndex: IndexOff}))
	if err != nil || len(rel.Rows) != 3 {
		t.Fatalf("valid scan: rows=%v err=%v", rel, err)
	}
}

// TestHashJoinBuildSideSwap is the regression test for the build-side
// swap bug: the output schema (a's columns, then b's minus the join
// column) and the row order must be identical whichever side is smaller.
func TestHashJoinBuildSideSwap(t *testing.T) {
	small := &Rel{Cols: []string{"x", "p"}, Rows: [][]Value{
		{IntVal(1), IntVal(10)},
		{IntVal(2), IntVal(20)},
	}}
	big := &Rel{Cols: []string{"p", "y"}, Rows: [][]Value{
		{IntVal(10), IntVal(100)},
		{IntVal(20), IntVal(200)},
		{IntVal(10), IntVal(101)},
		{IntVal(30), IntVal(300)},
	}}
	wantCols := []string{"x", "p", "y"}
	wantRows := [][]Value{
		{IntVal(1), IntVal(10), IntVal(100)},
		{IntVal(2), IntVal(20), IntVal(200)},
		{IntVal(1), IntVal(10), IntVal(101)},
	}
	// len(b) > len(a): the pre-fix fast path (build on a).
	got, err := collect(NewJoin(IterRel(small), IterRel(big), []string{"p"}, nil, ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	relsEqual(t, got, &Rel{Cols: wantCols, Rows: wantRows}, "a smaller")

	// len(b) < len(a): the buggy path used to return b's columns first.
	wantCols2 := []string{"p", "y", "x"}
	wantRows2 := [][]Value{
		{IntVal(10), IntVal(100), IntVal(1)},
		{IntVal(10), IntVal(101), IntVal(1)},
		{IntVal(20), IntVal(200), IntVal(2)},
	}
	got2, err := collect(NewJoin(IterRel(big), IterRel(small), []string{"p"}, nil, ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	relsEqual(t, got2, &Rel{Cols: wantCols2, Rows: wantRows2}, "b smaller")
}

// TestHashJoinOrderIndependentOfCardinality grows one side past the other
// and asserts the already-present rows keep their schema and relative
// order — i.e. the internal build-side choice never leaks into the
// contract.
func TestHashJoinOrderIndependentOfCardinality(t *testing.T) {
	a := &Rel{Cols: []string{"x", "p"}}
	b := &Rel{Cols: []string{"p", "y"}}
	for i := 0; i < 3; i++ {
		a.Rows = append(a.Rows, []Value{IntVal(int64(i)), IntVal(int64(i % 2))})
		b.Rows = append(b.Rows, []Value{IntVal(int64(i % 2)), IntVal(int64(100 + i))})
	}
	before, err := collect(NewJoin(IterRel(a), IterRel(b), []string{"p"}, nil, ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	// Make a much larger than b: flips the build side, must not flip the
	// result prefix (the extra rows join nothing).
	for i := 0; i < 50; i++ {
		a.Rows = append(a.Rows, []Value{IntVal(int64(1000 + i)), IntVal(9999)})
	}
	after, err := collect(NewJoin(IterRel(a), IterRel(b), []string{"p"}, nil, ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	relsEqual(t, after, before, "larger a")
}

// TestJoinEmptyShared is the regression test for the silent
// cross-product degeneration: an empty shared list must be an explicit
// error, and NewCross is the spelled-out replacement.
func TestJoinEmptyShared(t *testing.T) {
	a := &Rel{Cols: []string{"x"}, Rows: [][]Value{{IntVal(1)}, {IntVal(2)}}}
	b := &Rel{Cols: []string{"y"}, Rows: [][]Value{{IntVal(10)}, {IntVal(20)}, {IntVal(30)}}}
	if _, err := collect(NewJoin(IterRel(a), IterRel(b), nil, nil, ExecOpts{})); err == nil {
		t.Fatal("NewJoin with nil shared list should error")
	}
	if _, err := collect(NewJoin(IterRel(a), IterRel(b), []string{}, nil, ExecOpts{})); err == nil {
		t.Fatal("NewJoin with empty shared list should error")
	}
	cross, err := collect(NewCross(IterRel(a), IterRel(b), ExecOpts{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &Rel{Cols: []string{"x", "y"}, Rows: [][]Value{
		{IntVal(1), IntVal(10)}, {IntVal(2), IntVal(10)},
		{IntVal(1), IntVal(20)}, {IntVal(2), IntVal(20)},
		{IntVal(1), IntVal(30)}, {IntVal(2), IntVal(30)},
	}}
	relsEqual(t, cross, want, "NewCross")
}
