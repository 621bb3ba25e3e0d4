package relstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// sliceTable is the reference for Table: the slice table Table was before
// it kept row sequence numbers and a full-row locator. Delete scans Rows
// for the first equal row and shifts the tail; each index numbers its
// entries with a private counter and drops a deleted row by re-scanning
// its bucket for the first equal row.
type sliceTable struct {
	cols    []Column
	rows    [][]Value
	indexes map[int]*sliceIndex
	subs    []func(Change)
}

type sliceIndex struct {
	col     int
	next    uint64
	buckets map[string][]sliceEntry
}

type sliceEntry struct {
	seq uint64
	row []Value
}

func (m *sliceTable) insert(row []Value) {
	m.rows = append(m.rows, row)
	m.notify(Change{Op: OpInsert, Row: row})
}

func (m *sliceTable) delete(row []Value) bool {
	for i, r := range m.rows {
		if RowsEqual(r, row) {
			m.rows = append(m.rows[:i], m.rows[i+1:]...)
			m.notify(Change{Op: OpDelete, Row: r})
			return true
		}
	}
	return false
}

func (m *sliceTable) deleteWhere(pred func([]Value) bool) int {
	removed := 0
	for i := 0; i < len(m.rows); {
		if !pred(m.rows[i]) {
			i++
			continue
		}
		r := m.rows[i]
		m.rows = append(m.rows[:i], m.rows[i+1:]...)
		removed++
		m.notify(Change{Op: OpDelete, Row: r})
	}
	return removed
}

func (m *sliceTable) createIndex(col int) {
	if m.indexes[col] != nil {
		return
	}
	ix := &sliceIndex{col: col, buckets: make(map[string][]sliceEntry)}
	for _, row := range m.rows {
		k := hashKey(row[col])
		ix.buckets[k] = append(ix.buckets[k], sliceEntry{seq: ix.next, row: row})
		ix.next++
	}
	if m.indexes == nil {
		m.indexes = make(map[int]*sliceIndex)
	}
	m.indexes[col] = ix
}

func (m *sliceTable) notify(ch Change) {
	for _, ix := range m.indexes {
		k := hashKey(ch.Row[ix.col])
		if ch.Op == OpInsert {
			ix.buckets[k] = append(ix.buckets[k], sliceEntry{seq: ix.next, row: ch.Row})
			ix.next++
			continue
		}
		bucket := ix.buckets[k]
		for i, e := range bucket {
			if RowsEqual(e.row, ch.Row) {
				bucket = append(bucket[:i], bucket[i+1:]...)
				if len(bucket) == 0 {
					delete(ix.buckets, k)
				} else {
					ix.buckets[k] = bucket
				}
				break
			}
		}
	}
	for _, fn := range m.subs {
		fn(ch)
	}
}

// nDistinct is the catalog statistic: the bucket count of an indexed
// column, else a count over the rows.
func (m *sliceTable) nDistinct(col int) int {
	if ix := m.indexes[col]; ix != nil {
		return len(ix.buckets)
	}
	seen := make(map[string]bool)
	for _, r := range m.rows {
		seen[hashKey(r[col])] = true
	}
	return len(seen)
}

// observed is one Change as a subscriber saw it, with the table's row
// count at delivery.
type observed struct {
	op   ChangeOp
	row  []Value
	rows int
}

// tableModelCols is the schema the operation sequences run on, cut to
// the decoded arity. Values are drawn from a few per column, so duplicate
// rows and shared index buckets are common.
var tableModelCols = []Column{{"a", Int}, {"b", String}, {"c", Int}}

const maxTableOpBytes = 1024

// runTableOps decodes data into a sequence of table operations, applies
// each to a Table and to a sliceTable, and checks after every step that
// the two agree on rows, index buckets, NDistinct and the change stream.
// Rows are compared by storage (sameRow), so the two must remove the same
// copy of a duplicated row. Every byte string decodes to something; only
// the first maxTableOpBytes are read, as the checks cost the table size
// per step.
func runTableOps(t *testing.T, data []byte) {
	data = data[:min(len(data), maxTableOpBytes)]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	arity := 1 + next()%len(tableModelCols)
	cols := tableModelCols[:arity]
	tbl := NewTable("m", cols...)
	model := &sliceTable{cols: cols}
	var got, want []observed
	tbl.Subscribe(func(ch Change) { got = append(got, observed{ch.Op, ch.Row, tbl.NumRows()}) })
	model.subs = append(model.subs, func(ch Change) { want = append(want, observed{ch.Op, ch.Row, len(model.rows)}) })

	value := func(c int) Value {
		b := next()
		if cols[c].Type == String {
			return StrVal(string("xyz"[b%3 : b%3+1]))
		}
		return IntVal(int64(b % 4))
	}
	fresh := func() []Value {
		row := make([]Value, arity)
		for c := range row {
			row[c] = value(c)
		}
		return row
	}
	var deleted [][]Value // removed slices, for re-insertion
	for step := 0; len(data) > 0; step++ {
		op := next() % 9
		desc := ""
		switch op {
		case 0, 1: // insert a fresh row
			row := fresh()
			desc = fmt.Sprintf("insert %v", row)
			if err := tbl.Insert(row...); err != nil {
				t.Fatal(err)
			}
			model.insert(row)
		case 2: // the same slice a second time: stored or removed before
			var row []Value
			if k := next(); len(deleted) > 0 && k%2 == 1 {
				row = deleted[k%len(deleted)]
			} else if len(model.rows) > 0 {
				row = model.rows[k%len(model.rows)]
			} else {
				continue
			}
			desc = fmt.Sprintf("re-insert %v", row)
			if err := tbl.Insert(row...); err != nil {
				t.Fatal(err)
			}
			model.insert(row)
		case 3, 4: // delete a row that is present, by value
			if len(model.rows) == 0 {
				continue
			}
			row := append([]Value(nil), model.rows[next()%len(model.rows)]...)
			desc = fmt.Sprintf("delete present %v", row)
			ok, err := tbl.Delete(row...)
			if err != nil || !ok || !model.delete(row) {
				t.Fatalf("step %d: %s: got %v, %v", step, desc, ok, err)
			}
			deleted = append(deleted, got[len(got)-1].row)
		case 5: // delete any row, present or not
			row := fresh()
			desc = fmt.Sprintf("delete %v", row)
			ok, err := tbl.Delete(row...)
			if err != nil {
				t.Fatal(err)
			}
			if wantOK := model.delete(row); ok != wantOK {
				t.Fatalf("step %d: %s: found %v, model %v", step, desc, ok, wantOK)
			}
		case 6: // DeleteWhere on one column's value
			c := next() % arity
			v := value(c)
			desc = fmt.Sprintf("delete where col %d = %v", c, v)
			pred := func(row []Value) bool { return row[c].Equal(v) }
			start := len(got)
			if n, wantN := tbl.DeleteWhere(pred), model.deleteWhere(pred); n != wantN {
				t.Fatalf("step %d: %s removed %d, model %d", step, desc, n, wantN)
			}
			for _, o := range got[start:] {
				deleted = append(deleted, o.row)
			}
		case 7: // an index, mid-sequence
			c := next() % arity
			desc = fmt.Sprintf("create index on %s", cols[c].Name)
			if _, err := tbl.CreateIndex(cols[c].Name); err != nil {
				t.Fatal(err)
			}
			model.createIndex(c)
		case 8: // bring the sequence counter to the edge of its range
			k := uint32(next() % 4)
			if tbl.seqs == nil || tbl.nextSeq >= seqLimit-k {
				continue
			}
			desc = fmt.Sprintf("counter to limit-%d", k)
			tbl.nextSeq = seqLimit - k
		}
		checkTableMatchesModel(t, tbl, model, got, want, fmt.Sprintf("step %d (%s)", step, desc))
	}
}

// checkTableMatchesModel asserts tbl and model agree, and that tbl's
// sequence numbers, index entries and locator are consistent.
func checkTableMatchesModel(t *testing.T, tbl *Table, model *sliceTable, got, want []observed, ctx string) {
	t.Helper()
	if len(tbl.Rows) != len(model.rows) {
		t.Fatalf("%s: %d rows, model %d", ctx, len(tbl.Rows), len(model.rows))
	}
	for i := range model.rows {
		if !sameRow(tbl.Rows[i], model.rows[i]) {
			t.Fatalf("%s: row %d is %v, model %v (or another copy)", ctx, i, tbl.Rows[i], model.rows[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d changes delivered, model %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].op != want[i].op || !sameRow(got[i].row, want[i].row) || got[i].rows != want[i].rows {
			t.Fatalf("%s: change %d is %v %v at %d rows, model %v %v at %d rows", ctx, i,
				got[i].op, got[i].row, got[i].rows, want[i].op, want[i].row, want[i].rows)
		}
	}
	for c, col := range model.cols {
		n, err := tbl.NDistinct(col.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wantN := model.nDistinct(c); n != wantN {
			t.Fatalf("%s: NDistinct(%s) = %d, model %d", ctx, col.Name, n, wantN)
		}
	}
	if len(tbl.indexes) != len(model.indexes) {
		t.Fatalf("%s: %d indexes, model %d", ctx, len(tbl.indexes), len(model.indexes))
	}
	for c, mix := range model.indexes {
		ix := tbl.indexes[c]
		if len(ix.buckets) != len(mix.buckets) {
			t.Fatalf("%s: index %d has %d buckets, model %d", ctx, c, len(ix.buckets), len(mix.buckets))
		}
		for k, mb := range mix.buckets {
			b := ix.buckets[k]
			if len(b) != len(mb) {
				t.Fatalf("%s: index %d bucket %q holds %d rows, model %d", ctx, c, k, len(b), len(mb))
			}
			for i := range mb {
				if !sameRow(b[i].row, mb[i].row) {
					t.Fatalf("%s: index %d bucket %q entry %d is %v, model %v", ctx, c, k, i, b[i].row, mb[i].row)
				}
				if i > 0 && b[i].seq <= b[i-1].seq {
					t.Fatalf("%s: index %d bucket %q: sequence numbers %d then %d", ctx, c, k, b[i-1].seq, b[i].seq)
				}
				if p := tbl.position(b[i].seq); p >= len(tbl.Rows) || !sameRow(tbl.Rows[p], b[i].row) {
					t.Fatalf("%s: index %d entry with sequence number %d names another row", ctx, c, b[i].seq)
				}
			}
		}
	}
	checkSeqsAndLocator(t, tbl, ctx)
}

// checkSeqsAndLocator asserts the sequence-number invariants and that the
// locator files exactly the table's rows, each reachable from its home.
func checkSeqsAndLocator(t *testing.T, tbl *Table, ctx string) {
	t.Helper()
	if tbl.seqs == nil {
		if int(tbl.nextSeq) != len(tbl.Rows) {
			t.Fatalf("%s: no seqs, but counter %d at %d rows", ctx, tbl.nextSeq, len(tbl.Rows))
		}
	} else {
		if len(tbl.seqs) != len(tbl.Rows) {
			t.Fatalf("%s: %d sequence numbers for %d rows", ctx, len(tbl.seqs), len(tbl.Rows))
		}
		for i, s := range tbl.seqs {
			if s >= tbl.nextSeq || i > 0 && s <= tbl.seqs[i-1] {
				t.Fatalf("%s: sequence number %d at %d (previous %v, counter %d)", ctx, s, i, tbl.seqs[:i], tbl.nextSeq)
			}
		}
	}
	l := tbl.loc
	if l == nil {
		return
	}
	tombs := 0
	for _, v := range l.slots {
		if v == tomb {
			tombs++
		}
	}
	if l.n != len(tbl.Rows) || l.used != l.n+tombs || 4*l.used > 3*len(l.slots) {
		t.Fatalf("%s: locator files %d rows and %d tombstones (%d counted) in %d slots for %d rows",
			ctx, l.n, l.used-l.n, tombs, len(l.slots), len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		s := tbl.seqAt(i)
		j := l.home(hashRow(row, l.cols))
		for l.slots[j] != s+1 {
			if l.slots[j] == 0 {
				t.Fatalf("%s: row %d (sequence number %d) not reachable in the locator", ctx, i, s)
			}
			j = l.next(j)
		}
	}
}

// TestTableMatchesSliceModel runs random operation sequences against the
// slice-table reference.
func TestTableMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 50+rng.Intn(400))
		rng.Read(data)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runTableOps(t, data) })
	}
}

// FuzzTable checks Table against the slice-table reference on decoded
// operation sequences (corpus in testdata/fuzz/FuzzTable).
func FuzzTable(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 0, 3, 0, 4, 0, 0})
	f.Add([]byte{1, 7, 0, 0, 1, 0, 1, 2, 0, 2, 1, 3, 0, 6, 0, 1})
	f.Add([]byte{0, 0, 5, 0, 5, 3, 0, 8, 3, 0, 2, 0, 0, 1, 2, 2})
	f.Fuzz(runTableOps)
}
