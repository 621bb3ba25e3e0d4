package relstore

import (
	"hash/maphash"
	"math/bits"
)

// This file is the one row hash table behind every relational dedup and
// build map: distinct's seen-set, the hash-join and table-join builds
// (grouped by key, drainGroups), conj's negation sets and the Datalog
// evaluator's derived-tuple sets. It hashes the key columns' Values in
// place and compares them with Value.Equal, so a probe builds no key bytes
// and no string, and a held row costs the GC one reference, not a key.

// rowChunk is the fixed size of the chunks a RowSet keeps its groups'
// first rows in. Chunks never move once allocated, so growing a set never
// copies (or re-allocates) the rows it already holds; only the first chunk
// starts smaller, at the caller's hint.
const (
	rowChunkShift = 10
	rowChunk      = 1 << rowChunkShift
)

// The row hash is keyed per process through hash/maphash, as Go's own
// maps are: a string hashes with maphash.String, an int is folded through
// a 64×64→128-bit multiply with a per-process random multiplier. graphgend
// inserts tuples its clients send, and a fixed hash would let a client
// pick keys that all land in one probe chain.
var (
	rowHashSeed = maphash.MakeSeed()
	rowHashInit = maphash.String(rowHashSeed, "row")
	// typeHashKey is the multiplier for a value of each Type, so Int 5 and
	// String "5" are mixed differently even where their words agree.
	typeHashKey = [2]uint64{maphash.String(rowHashSeed, "int") | 1, maphash.String(rowHashSeed, "string") | 1}
)

// mix folds the 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashRow hashes row's values at cols, in that order: two rows hash alike
// when their key columns are pairwise Equal, whatever positions hold them.
func hashRow(row Row, cols []int) uint64 {
	h := rowHashInit
	for _, c := range cols {
		v := &row[c]
		x := uint64(v.I)
		if v.T != Int {
			x = maphash.String(rowHashSeed, v.S)
		}
		h = mix(h^x, typeHashKey[v.T&1])
	}
	return h
}

// keysEqual reports whether a's values at acols equal b's at bcols.
func keysEqual(a Row, acols []int, b Row, bcols []int) bool {
	for i, c := range acols {
		if !a[c].Equal(b[bcols[i]]) {
			return false
		}
	}
	return true
}

// RowSet is a hash set of rows keyed on a fixed list of their columns.
// Rows with Equal key values fall in one group; group ids count from 0 in
// order of first appearance, and each group keeps the first row added
// with its key. Add keeps the very row it is given, so that row must not
// be mutated afterwards; a row borrowed from a RowIter (valid only until
// its iterator's next Next) goes in through AddCopy, which keeps a copy
// only when the key is new.
//
// Find is read-only and may run concurrently with other Finds; Add must
// not run concurrently with anything.
type RowSet struct {
	cols []int
	// slots is the open-addressed table, linear probing, at most half
	// full: group id + 1 per used slot, 0 for an empty one.
	slots []int32
	// first holds each group's first row, rowChunk to a chunk.
	first [][]Row
	n     int
}

// NewRowSet returns an empty set keyed on cols of the rows it is given,
// sized for about hint groups. The hint sizes the first chunk as well as
// the table, so a set that will hold one row allocates for one row.
func NewRowSet(cols []int, hint int) *RowSet {
	s := new(RowSet)
	s.init(cols, hint)
	return s
}

func (s *RowSet) init(cols []int, hint int) {
	hint = max(hint, 4)
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	s.cols = cols
	s.slots = make([]int32, size)
	s.first = [][]Row{make([]Row, 0, min(hint, rowChunk))}
}

// Len returns the number of groups.
func (s *RowSet) Len() int { return s.n }

// Row returns group g's first row.
func (s *RowSet) Row(g int) Row { return s.first[g>>rowChunkShift][g&(rowChunk-1)] }

// Add files row under its key and returns the key's group, and whether
// row is the key's first (and so now the group's first row).
func (s *RowSet) Add(row Row) (g int, added bool) {
	h := hashRow(row, s.cols)
	slot, g := s.find(h, row, s.cols)
	if g >= 0 {
		return g, false
	}
	return s.put(slot, row), true
}

// AddCopy is Add for a row the caller does not own: when row's key is
// new, it files a copy made in slab and returns that copy, otherwise the
// group's first row, with whether the key was new.
func (s *RowSet) AddCopy(row Row, slab *RowSlab) (kept Row, added bool) {
	slot, g := s.find(hashRow(row, s.cols), row, s.cols)
	if g >= 0 {
		return s.Row(g), false
	}
	kept = slab.Copy(row)
	s.put(slot, kept)
	return kept, true
}

// Find returns the group whose key equals row's values at cols — one
// column per key column, in key order — or -1 if there is none.
func (s *RowSet) Find(row Row, cols []int) int {
	if s.n == 0 {
		return -1
	}
	_, g := s.find(hashRow(row, cols), row, cols)
	return g
}

// find walks h's probe chain to the group whose key equals row's values at
// cols, or to the empty slot where that key would go (g = -1).
func (s *RowSet) find(h uint64, row Row, cols []int) (slot uint64, g int) {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, -1
		}
		if keysEqual(s.Row(int(e-1)), s.cols, row, cols) {
			return i, int(e - 1)
		}
	}
}

// put opens a new group at the empty slot find returned, with row as its
// first row, and returns the group id.
func (s *RowSet) put(slot uint64, row Row) int {
	g := s.n
	c := g >> rowChunkShift
	if c == len(s.first) {
		s.first = append(s.first, make([]Row, 0, rowChunk))
	}
	chunk := s.first[c]
	if len(chunk) == cap(chunk) {
		// Only the first chunk, sized from the hint, ever fills short of
		// rowChunk; it doubles up to that size.
		chunk = append(make([]Row, 0, min(2*cap(chunk), rowChunk)), chunk...)
	}
	s.first[c] = append(chunk, row)
	s.slots[slot] = int32(g + 1)
	s.n++
	if 2*s.n > len(s.slots) {
		s.grow()
	}
	return g
}

// grow doubles the table, re-hashing each group's first row.
func (s *RowSet) grow() {
	slots := make([]int32, 2*len(s.slots))
	mask := uint64(len(slots) - 1)
	for g := 0; g < s.n; g++ {
		i := hashRow(s.Row(g), s.cols) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(g + 1)
	}
	s.slots = slots
}

// rowGroups is a build side grouped by key: copies of the rows it
// drained, with group g's rows, in input order, at
// rows[start[g]:start[g+1]] — or, when start is nil (every key unique),
// just the set's first row of g. It is read-only once built.
type rowGroups struct {
	set   RowSet
	start []int32
	rows  [][]Value
	n     int // rows drained
}

// drainGroups drains it into a build side grouped by its values at cols;
// the caller still closes it. It copies every row into a RowSlab and files
// the copy into a RowSet, then, if a key repeated, places the rows group
// by group with one counting pass, so a group is a contiguous run and a
// probe returns a subslice. When no key repeats, group ids follow input
// order and the set's chunks of first rows are already that layout.
func drainGroups(it RowIter, cols []int) (*rowGroups, error) {
	gr := &rowGroups{}
	set := &gr.set
	set.init(cols, 0)
	var slab RowSlab
	var gid idChunks
	width := 0 // every row of one stream has the first row's width
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		width = len(row)
		g, _ := set.Add(slab.Copy(row))
		gid.add(int32(g))
		gr.n++
	}
	if set.Len() == gr.n {
		return gr, nil
	}
	// start[g+1] counts group g's rows, then the prefix sums make start[g]
	// the group's offset; placing a row advances its group's offset, which
	// leaves start[g] at the end of group g — one slot to the left of where
	// lookup reads it — until the final shift.
	groups := set.Len()
	start := make([]int32, groups+1)
	for i := range gr.n {
		start[gid.at(i)+1]++
	}
	for g := 1; g <= groups; g++ {
		start[g] += start[g-1]
	}
	grouped := make([][]Value, gr.n)
	i := 0
	slab.each(gr.n, width, func(row Row) {
		g := gid.at(i)
		grouped[start[g]] = row
		start[g]++
		i++
	})
	copy(start[1:], start[:groups])
	start[0] = 0
	gr.start, gr.rows = start, grouped
	return gr, nil
}

// idChunks is an append-only list of group ids. The first idChunkLen ids
// grow in one slice by append, as a small build's always did; after that
// the ids go into chunks of idChunkLen that never move, so a large build
// does not copy its ids again at every growth step.
type idChunks struct {
	full [][]int32 // filled chunks, idChunkLen ids each
	last []int32   // the chunk being filled
}

const idChunkLen = 1 << 13

func (l *idChunks) add(id int32) {
	if len(l.last) == idChunkLen {
		l.full = append(l.full, l.last)
		l.last = make([]int32, 0, idChunkLen)
	}
	l.last = append(l.last, id)
}

// at returns the i-th id added.
func (l *idChunks) at(i int) int32 {
	if k := i / idChunkLen; k < len(l.full) {
		return l.full[k][i%idChunkLen]
	}
	return l.last[i%idChunkLen]
}

// lookup returns the build rows whose key equals row's values at cols, in
// input order. The result aliases the grouped rows; callers only read it.
func (gr *rowGroups) lookup(row Row, cols []int) [][]Value {
	g := gr.set.Find(row, cols)
	if g < 0 {
		return nil
	}
	if gr.start == nil {
		c, i := gr.set.first[g>>rowChunkShift], g&(rowChunk-1)
		return c[i : i+1 : i+1]
	}
	lo, hi := gr.start[g], gr.start[g+1]
	return gr.rows[lo:hi:hi]
}
