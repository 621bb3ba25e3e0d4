package relstore

import (
	"math/rand"
	"testing"
)

// pairTable returns a table of n distinct rows (k, k/8), indexed on b.
func pairTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable("t", Column{Name: "a", Type: Int}, Column{Name: "b", Type: Int})
	for k := 0; k < n; k++ {
		if err := tbl.Insert(IntVal(int64(k)), IntVal(int64(k/8))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestDeleteComparesConstantRows is the work bound of a single-tuple
// delete: across a 1 k → 10 k → 100 k row sweep, the rows a Delete
// compares stay at a small constant on average, whatever the table size.
func TestDeleteComparesConstantRows(t *testing.T) {
	const ops, bound = 2000, 4.0
	for _, n := range []int{1_000, 10_000, 100_000} {
		tbl := pairTable(t, n)
		rng := rand.New(rand.NewSource(int64(n)))
		if _, err := tbl.Delete(IntVal(0), IntVal(0)); err != nil {
			t.Fatal(err)
		}
		tbl.loc.compared = 0
		most := 0
		for i := 0; i < ops; i++ {
			victim := tbl.Rows[rng.Intn(len(tbl.Rows))]
			before := tbl.loc.compared
			if ok, err := tbl.Delete(victim...); !ok || err != nil {
				t.Fatalf("rows=%d: delete %v: %v, %v", n, victim, ok, err)
			}
			most = max(most, tbl.loc.compared-before)
			if err := tbl.Insert(victim...); err != nil {
				t.Fatal(err)
			}
		}
		mean := float64(tbl.loc.compared) / ops
		t.Logf("rows=%d: %.2f rows compared per delete, at most %d", n, mean, most)
		if mean > bound {
			t.Errorf("rows=%d: %.2f rows compared per delete, want at most %.0f", n, mean, bound)
		}
	}
}

// locatorBytes is what a table that has seen a delete pays per row for
// finding rows: the locator's slots and the sequence numbers.
func locatorBytes(tbl *Table) int { return 4*len(tbl.loc.slots) + 4*len(tbl.seqs) }

// TestLocatorMemoryBudget holds the locator and the sequence numbers to
// 12 bytes per row from the first delete on, while the table grows by
// half through inserts and then shrinks to a quarter through deletes.
func TestLocatorMemoryBudget(t *testing.T) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		tbl := pairTable(t, n)
		check := func(when string) {
			if b := locatorBytes(tbl); b > 12*len(tbl.Rows) {
				t.Fatalf("rows=%d %s: %d bytes for %d rows, more than 12 per row", n, when, b, len(tbl.Rows))
			}
		}
		if _, err := tbl.Delete(IntVal(0), IntVal(0)); err != nil {
			t.Fatal(err)
		}
		check("after the first delete")
		for k := n; k < n+n/2; k++ {
			if err := tbl.Insert(IntVal(int64(k)), IntVal(int64(k/8))); err != nil {
				t.Fatal(err)
			}
			check("growing")
		}
		for len(tbl.Rows) > n/4 {
			if ok, _ := tbl.Delete(tbl.Rows[len(tbl.Rows)-1]...); !ok {
				t.Fatal("delete of a present row failed")
			}
			check("shrinking")
		}
	}
}

// TestSequenceNumbersRenumberAtLimit brings the counter to the end of its
// range through the unexported field: the next insert renumbers every row,
// index entry and locator slot, and table and index order survive.
func TestSequenceNumbersRenumberAtLimit(t *testing.T) {
	tbl := pairTable(t, 40)
	for _, k := range []int64{3, 17, 30} {
		if ok, _ := tbl.Delete(IntVal(k), IntVal(k/8)); !ok {
			t.Fatalf("delete %d failed", k)
		}
	}
	tbl.nextSeq = seqLimit - 2
	for k := int64(100); k < 104; k++ {
		if err := tbl.Insert(IntVal(k), IntVal(2)); err != nil {
			t.Fatal(err)
		}
	}
	// Two inserts took the last two numbers, the third renumbered first.
	if tbl.seqs != nil || int(tbl.nextSeq) != len(tbl.Rows) || len(tbl.Rows) != 41 {
		t.Fatalf("after the wrap: seqs %v, counter %d, %d rows", tbl.seqs != nil, tbl.nextSeq, len(tbl.Rows))
	}
	if ok, _ := tbl.Delete(IntVal(101), IntVal(2)); !ok {
		t.Fatal("delete after the wrap failed")
	}
	checkSeqsAndLocator(t, tbl, "after the wrap")
	var want []int64
	for _, row := range tbl.Rows {
		if row[1].I == 2 {
			want = append(want, row[0].I)
		}
	}
	got := tbl.Index("b").Lookup(IntVal(2))
	if len(got) != len(want) {
		t.Fatalf("bucket 2 holds %d rows, table %d", len(got), len(want))
	}
	for i, row := range got {
		if row[0].I != want[i] {
			t.Fatalf("bucket 2 entry %d is %v, table order wants a=%d", i, row, want[i])
		}
	}
}
