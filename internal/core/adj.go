package core

import (
	"cmp"
	"fmt"
	"slices"
)

// This file holds the adjacency storage. Each of a graph's nine adjacency
// kinds (four per real node, five per virtual node) is one adjacency: every
// row of the kind lives in one int32 arena, and a 12-byte record per slot
// says where. Neither the arena nor the records hold a pointer per row, so
// a row costs 12 B besides its entries and the collector scans nothing per
// vertex.
//
// Rows change in place while they fit: a removal shifts the row's tail
// down, and an append fills the row's spare capacity. An append to a full
// row moves the row to the arena's tail at double the capacity (a row that
// already ends the arena grows where it is); the space it leaves is slack.
// A move adds its old capacity to the slack and twice that to the arena,
// so growth alone keeps the slack under half the arena. Freeing a row,
// and dropping slots in compact.go, add slack without growing the arena;
// when the slack then passes half the arena (plus compactSlack), the rows
// are copied into a fresh arena in slot order. The old arena is never
// written again, so a row slice a caller still holds keeps its own
// entries, as a slice cut off by Go's append reallocation would.
//
// Every accessor hands a row out with cap == len, so a caller's append
// copies it instead of writing into the arena.

// rowRec locates one row: its entries are arena[off:off+len], and it owns
// arena[off:off+cap].
type rowRec struct{ off, len, cap uint32 }

// adjacency is one kind of adjacency row. recs is nil until the kind holds
// its first entry; from then on it has one record per slot of its side.
type adjacency struct {
	arena []int32
	recs  []rowRec
	slack int // arena entries that no row owns: len(arena) - Σ cap
}

const (
	// minRowCap is the capacity a row gets on its first append.
	minRowCap = 2
	// compactSlack is the slack an arena may hold beyond half its length
	// before it is compacted, so a small arena is not copied on every
	// freed row.
	compactSlack = 64
)

// row returns row k, cut at cap == len.
func (a *adjacency) row(k int32) []int32 {
	if a.recs == nil {
		return nil
	}
	r := a.recs[k]
	return a.arena[r.off : r.off+r.len : r.off+r.len]
}

// addSlot gives a new slot its empty row.
func (a *adjacency) addSlot() {
	if a.recs != nil {
		a.recs = append(a.recs, rowRec{})
	}
}

// push appends x to row k; slots is the number of slots on the row's side,
// which sizes the records on the kind's first entry.
func (a *adjacency) push(k, x int32, slots int) {
	if a.recs == nil {
		a.recs = make([]rowRec, slots)
	}
	r := &a.recs[k]
	if r.len == r.cap {
		a.move(k)
	}
	a.arena[r.off+r.len] = x
	r.len++
}

// move doubles the capacity of row k: in place when the row ends the
// arena, otherwise at the arena's tail, leaving its old space as slack.
func (a *adjacency) move(k int32) {
	r := &a.recs[k]
	c := max(2*r.cap, minRowCap)
	end := len(a.arena)
	if int(r.off+r.cap) == end {
		a.arena = append(a.arena, make([]int32, c-r.cap)...)
		r.cap = c
		return
	}
	a.arena = append(a.arena, make([]int32, c)...)
	copy(a.arena[end:], a.arena[r.off:r.off+r.len])
	a.slack += int(r.cap)
	r.off, r.cap = uint32(end), c
}

// remove deletes the first x from row k, shifting the rest down in place.
func (a *adjacency) remove(k, x int32) {
	if a.recs == nil {
		return
	}
	r := &a.recs[k]
	s := a.arena[r.off : r.off+r.len]
	if i := slices.Index(s, x); i >= 0 {
		copy(s[i:], s[i+1:])
		r.len--
	}
}

// free empties row k and releases its space.
func (a *adjacency) free(k int32) {
	if a.recs == nil {
		return
	}
	a.slack += int(a.recs[k].cap)
	a.recs[k] = rowRec{}
	a.maybeCompact()
}

func (a *adjacency) maybeCompact() {
	if a.slack > len(a.arena)/2+compactSlack {
		a.compact()
	}
}

// compact copies every row, at its capacity, into a fresh arena in slot
// order.
func (a *adjacency) compact() {
	arena := make([]int32, len(a.arena)-a.slack)
	off := uint32(0)
	for k := range a.recs {
		r := &a.recs[k]
		copy(arena[off:], a.arena[r.off:r.off+r.len])
		r.off = off
		off += r.cap
	}
	a.arena, a.slack = arena, 0
}

// clone returns a packed copy: rows in slot order, each at cap == len.
func (a *adjacency) clone() adjacency {
	if a.recs == nil {
		return adjacency{}
	}
	n := 0
	for _, r := range a.recs {
		n += int(r.len)
	}
	c := adjacency{arena: make([]int32, n), recs: make([]rowRec, len(a.recs))}
	off := uint32(0)
	for k, r := range a.recs {
		copy(c.arena[off:], a.arena[r.off:r.off+r.len])
		c.recs[k] = rowRec{off, r.len, r.len}
		off += r.len
	}
	return c
}

// packLoose replaces a by its packed clone when the arena's capacity is
// more than twice its entries plus compactSlack.
func (a *adjacency) packLoose() {
	n := 0
	for _, r := range a.recs {
		n += int(r.len)
	}
	if cap(a.arena) > 2*n+compactSlack {
		*a = a.clone()
	}
}

// fill gives each slot on one side of pairs (side 0: the sources, 1: the
// targets) its row of partners, in pair order, in one arena cut at exact
// size. slots is the number of slots on that side; deg is scratch of at
// least slots entries. A kind with no pairs is left as it is.
func (a *adjacency) fill(pairs *slab, side, slots int, deg []int32) {
	if pairs.n == 0 {
		return
	}
	deg = deg[:slots]
	clear(deg)
	for _, c := range pairs.chunks {
		for i := side; i < len(c); i += 2 {
			deg[c[i]]++
		}
	}
	a.arena, a.recs, a.slack = make([]int32, pairs.n/2), make([]rowRec, slots), 0
	off := uint32(0)
	for k, d := range deg {
		a.recs[k] = rowRec{off, 0, uint32(d)}
		off += uint32(d)
	}
	for _, c := range pairs.chunks {
		for i := 0; i < len(c); i += 2 {
			r := &a.recs[c[i+side]]
			a.arena[r.off+r.len] = c[i+1-side]
			r.len++
		}
	}
}

// sortRows sorts every row.
func (a *adjacency) sortRows() {
	for _, r := range a.recs {
		slices.Sort(a.arena[r.off : r.off+r.len])
	}
}

// sorted reports whether every row is in ascending order.
func (a *adjacency) sorted() bool {
	for _, r := range a.recs {
		if !slices.IsSorted(a.arena[r.off : r.off+r.len]) {
			return false
		}
	}
	return true
}

// remapEntries rewrites every entry through remap in place, dropping the
// entries remap sends to none.
func (a *adjacency) remapEntries(remap []int32) {
	for k := range a.recs {
		r := &a.recs[k]
		row := a.arena[r.off : r.off+r.len]
		out := row[:0]
		for _, e := range row {
			if to := remap[e]; to != none {
				out = append(out, to)
			}
		}
		r.len = uint32(len(out))
	}
}

// dropSlots moves each slot's record to the slot remap gives it and drops
// the records of the slots remap sends to none; their space becomes slack.
func (a *adjacency) dropSlots(remap []int32) {
	if a.recs == nil {
		return
	}
	a.recs = pack(a.recs, remap)
	owned := 0
	for _, r := range a.recs {
		owned += int(r.cap)
	}
	a.slack = len(a.arena) - owned
	a.maybeCompact()
}

// entries returns the number of entries in the rows of the slots that
// dead does not mark.
func (a *adjacency) entries(dead []bool) int64 {
	var n int64
	for k, r := range a.recs {
		if !dead[k] {
			n += int64(r.len)
		}
	}
	return n
}

// bytes prices the kind: its arena at capacity, slack and spare room
// included, and 12 B per record.
func (a *adjacency) bytes() int64 {
	return int64(cap(a.arena))*4 + int64(len(a.recs))*12
}

// verify checks the layout: one record per slot (or none), every row
// inside the arena and within its capacity, no two rows' spaces
// overlapping, the slack counted exactly and at most half the arena plus
// compactSlack.
func (a *adjacency) verify(slots int) error {
	if a.recs == nil {
		if len(a.arena) != 0 || a.slack != 0 {
			return fmt.Errorf("no records but an arena of %d and slack %d", len(a.arena), a.slack)
		}
		return nil
	}
	if len(a.recs) != slots {
		return fmt.Errorf("%d records for %d slots", len(a.recs), slots)
	}
	owned := 0
	spans := make([]rowRec, 0, len(a.recs))
	for k, r := range a.recs {
		if r.len > r.cap || uint64(r.off)+uint64(r.cap) > uint64(len(a.arena)) {
			return fmt.Errorf("row %d at %d, len %d, cap %d in an arena of %d", k, r.off, r.len, r.cap, len(a.arena))
		}
		owned += int(r.cap)
		if r.cap > 0 {
			spans = append(spans, r)
		}
	}
	slices.SortFunc(spans, func(x, y rowRec) int { return cmp.Compare(x.off, y.off) })
	for i := 1; i < len(spans); i++ {
		if p := spans[i-1]; p.off+p.cap > spans[i].off {
			return fmt.Errorf("rows at %d (cap %d) and %d overlap", p.off, p.cap, spans[i].off)
		}
	}
	if a.slack != len(a.arena)-owned {
		return fmt.Errorf("slack %d, but the arena of %d has %d owned", a.slack, len(a.arena), owned)
	}
	if a.slack > len(a.arena)/2+compactSlack {
		return fmt.Errorf("slack %d in an arena of %d was not compacted", a.slack, len(a.arena))
	}
	return nil
}
