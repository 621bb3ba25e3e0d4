package relstore

import (
	"math"
	"math/bits"
	"slices"
)

// This file gives every table row a sequence number and finds a row by
// its full contents, so that Table.Delete costs a hash probe plus one
// tail move instead of a scan of the table.
//
// Sequence numbers come from one per-table counter (Table.nextSeq) and
// increase in insertion order; deletes keep the relative order of the
// surviving rows, so ascending sequence order is table order. While no
// row has been deleted a row's sequence number is its position, and the
// table keeps no per-row record of it; the first Delete or DeleteWhere
// materializes Table.seqs, one sequence number per row, cut in step with
// Rows from then on. Index entries carry the same numbers (index.go).

// Slot encoding: a locator slot holds seq+1 for a row, 0 when empty and
// tomb once its row is deleted, so sequence numbers stay below seqLimit.
// When the counter reaches it, Insert renumbers the rows 0..n-1 first.
const (
	tomb     = math.MaxUint32
	seqLimit = tomb - 1
)

// Locator sizing. A rebuild sizes the slots for a load of 2/3 and clears
// the tombstones. Rows and tombstones past 3/4 of the slots, or rows
// below 1/2, rebuild, so the slots cost at most 8 bytes per row and, with
// seqs, a table that has seen a delete pays at most 12 bytes per row for
// both.
const minLocatorSlots = 8

// seqAt returns the sequence number of the row at position i.
func (t *Table) seqAt(i int) uint32 {
	if t.seqs == nil {
		return uint32(i)
	}
	return t.seqs[i]
}

// position returns the position in Rows of the row with sequence number
// s, which must be present.
func (t *Table) position(s uint32) int {
	if t.seqs == nil {
		return int(s)
	}
	i, _ := slices.BinarySearch(t.seqs, s)
	return i
}

// cutSeq removes the sequence number of the row at position i, before
// that row is cut from Rows, and returns it. The first call materializes
// seqs.
func (t *Table) cutSeq(i int) uint32 {
	if t.seqs == nil {
		t.seqs = make([]uint32, len(t.Rows))
		for k := range t.seqs {
			t.seqs[k] = uint32(k)
		}
	}
	s := t.seqs[i]
	t.seqs = append(t.seqs[:i], t.seqs[i+1:]...)
	return s
}

// renumber gives the rows the sequence numbers 0..n-1 again, in every
// index entry and in the locator, and drops seqs: numbers equal
// positions once more. Insert calls it when the counter reaches seqLimit.
func (t *Table) renumber() {
	for _, ix := range t.indexes {
		for _, bucket := range ix.buckets {
			for k := range bucket {
				bucket[k].seq = uint32(t.position(bucket[k].seq))
			}
		}
	}
	t.seqs = nil
	t.nextSeq = uint32(len(t.Rows))
	if t.loc != nil {
		t.loc.rebuild()
	}
}

// locator returns the table's full-row locator, building it on first use.
func (t *Table) locator() *rowLocator {
	if t.loc == nil {
		cols := make([]int, len(t.Cols))
		for c := range cols {
			cols[c] = c
		}
		t.loc = &rowLocator{t: t, cols: cols}
		t.loc.rebuild()
	}
	return t.loc
}

// rowLocator is an open-addressed multiset over hashRow of all of a
// table's columns, holding sequence numbers. A probe resolves a
// candidate's row through Table.position and checks it with RowsEqual.
//
// It is linear probing, and a delete leaves a tombstone, so no entry
// ever moves. Equal rows share a home slot, and each lies further along
// the probe chain than every equal row with a smaller sequence number: a
// rebuild files rows in table order, and an insert takes the first empty
// slot, past all of them. So the first equal row a probe meets is the
// first in table order. Like its table, a locator is not internally
// synchronized.
type rowLocator struct {
	t    *Table
	cols []int // every column: the key is the whole row
	// slots holds seq+1 per row, tomb where a row was deleted and 0 in
	// an empty slot. Its length need not be a power of two: home maps a
	// hash onto it by multiply.
	// graphlint:guardedby external:dbMu
	slots []uint32
	// n counts the rows filed, used the rows and tombstones.
	// graphlint:guardedby external:dbMu
	n int
	// graphlint:guardedby external:dbMu
	used int
	// compared counts rows compared by find, so a test can bound the
	// work of a Delete.
	// graphlint:guardedby external:dbMu
	compared int
}

// home returns the slot a hash's probe chain starts at.
func (l *rowLocator) home(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(l.slots)))
	return int(hi)
}

// next returns the slot after i, wrapping around.
func (l *rowLocator) next(i int) int {
	if i++; i == len(l.slots) {
		return 0
	}
	return i
}

// rebuild sizes the slots for the table's current rows and files them in
// table order.
func (l *rowLocator) rebuild() {
	rows := l.t.Rows
	size := max(len(rows)+len(rows)/2, minLocatorSlots)
	if len(l.slots) == size {
		clear(l.slots)
	} else {
		l.slots = make([]uint32, size)
	}
	l.n, l.used = 0, 0
	for i, row := range rows {
		l.put(hashRow(row, l.cols), l.t.seqAt(i))
	}
}

// put files sequence number s at the first empty slot of h's chain.
func (l *rowLocator) put(h uint64, s uint32) {
	i := l.home(h)
	for l.slots[i] != 0 {
		i = l.next(i)
	}
	l.slots[i] = s + 1
	l.n++
	l.used++
}

// add files row, just appended to the table with sequence number s.
func (l *rowLocator) add(row []Value, s uint32) {
	if 4*(l.used+1) > 3*len(l.slots) {
		l.rebuild() // the table's rows already include row
		return
	}
	l.put(hashRow(row, l.cols), s)
}

// find returns the slot and position of the first row in table order
// equal to row, or slot -1 when the table holds no such row.
func (l *rowLocator) find(row []Value) (slot, pos int) {
	for i := l.home(hashRow(row, l.cols)); l.slots[i] != 0; i = l.next(i) {
		if l.slots[i] == tomb {
			continue
		}
		p := l.t.position(l.slots[i] - 1)
		l.compared++
		if RowsEqual(l.t.Rows[p], row) {
			return i, p
		}
	}
	return -1, -1
}

// remove drops the entry of row, whose sequence number is s; row is
// already cut from the table.
func (l *rowLocator) remove(row []Value, s uint32) {
	i := l.home(hashRow(row, l.cols))
	for l.slots[i] != s+1 {
		i = l.next(i)
	}
	l.removeAt(i)
}

// removeAt leaves a tombstone in slot i, whose row is already cut from
// the table.
func (l *rowLocator) removeAt(i int) {
	l.slots[i] = tomb
	l.n--
	if len(l.slots) > minLocatorSlots && 2*l.n < len(l.slots) {
		l.rebuild()
	}
}
