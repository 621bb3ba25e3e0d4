package incremental

import (
	"hash/maphash"
	"math"
	"math/bits"

	"graphgen/internal/relstore"
)

// This file holds the support counts: one pairCounts table per plan
// segment, keyed on the uint32 codes an endpoints dictionary gives the
// segment pair's two values. A count entry costs 12 bytes per slot of a
// table at most half full, plus a share of one dictionary entry per
// distinct endpoint value, instead of a Go map entry keyed on two
// relstore.Values.

// pairCounts is one segment's support counts: an open-addressed table from
// code(in)<<32 | code(out) to the pair's count, keys and counts in
// parallel arrays, linear probing, at most half full (the layout of
// extract's pairSet). Every stored count is positive, so a zero count
// marks an empty slot; a pair whose count falls to zero leaves the table
// by backward shift, not by a tombstone, so a pair inserted and deleted
// over and over does not fill it.
type pairCounts struct {
	keys   []uint64
	counts []int32
	n      int
	shift  uint // 64 - log2(len(keys)): a hash's top bits index the table
}

// countHashKey is a per-process odd multiplier, as extract's pairSet is
// keyed: the pairs come from rows that graphgend's clients insert, and a
// fixed hash would let them choose one long probe chain.
var countHashKey = maphash.String(maphash.MakeSeed(), "counts") | 1

func (t *pairCounts) home(key uint64) uint64 { return (key * countHashKey) >> t.shift }

// find returns the slot holding key, or the empty slot where it would go.
// The table must not be empty.
func (t *pairCounts) find(key uint64) int {
	mask := uint64(len(t.keys) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		if t.counts[i] == 0 || t.keys[i] == key {
			return int(i)
		}
	}
}

// get returns key's count, 0 when the pair has no support.
func (t *pairCounts) get(key uint64) int32 {
	if t.n == 0 {
		return 0
	}
	return t.counts[t.find(key)]
}

// add changes key's count by dn and returns the count before and after.
// A change that would carry the count below zero or past math.MaxInt32
// is refused: ok is false and the table is left as it was.
func (t *pairCounts) add(key uint64, dn int64) (old, now int32, ok bool) {
	if len(t.keys) == 0 {
		t.alloc(4)
	}
	i := t.find(key)
	old = t.counts[i]
	sum := int64(old) + dn
	if sum < 0 || sum > math.MaxInt32 {
		return old, old, false
	}
	switch now = int32(sum); {
	case old == now:
	case old == 0:
		if 2*(t.n+1) > len(t.keys) {
			t.grow()
			i = t.find(key)
		}
		t.keys[i], t.counts[i] = key, now
		t.n++
	case now == 0:
		t.remove(i)
	default:
		t.counts[i] = now
	}
	return old, now, true
}

// remove empties slot i and shifts back every later entry of its probe
// run that may move closer to its home slot, so no probe ever stops
// early at the hole.
func (t *pairCounts) remove(i int) {
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.counts[j] != 0; j = (j + 1) & mask {
		// The entry at j stays when its home lies cyclically in (i, j].
		if (j-int(t.home(t.keys[j])))&mask < (j-i)&mask {
			continue
		}
		t.keys[i], t.counts[i] = t.keys[j], t.counts[j]
		i = j
	}
	t.counts[i] = 0
	t.n--
}

// alloc replaces the table with an empty one of at least 2*n slots.
func (t *pairCounts) alloc(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	t.keys, t.counts = make([]uint64, size), make([]int32, size)
	t.n = 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// grow doubles the table and refiles every entry.
func (t *pairCounts) grow() {
	keys, counts := t.keys, t.counts
	t.alloc(len(keys))
	for j, c := range counts {
		if c != 0 {
			i := t.find(keys[j])
			t.keys[i], t.counts[i] = keys[j], c
			t.n++
		}
	}
}

// bytes prices the table's two arrays from their capacities.
func (t *pairCounts) bytes() int64 { return int64(cap(t.keys))*8 + int64(cap(t.counts))*4 }

// endpoints is a live session's dictionary of segment pair endpoints:
// each distinct Value some count entry names has a uint32 code. An Int
// value is keyed on its int64 and a String value on its string, in two
// maps, so Int 5 and String "5" are two endpoints (as extract's
// valueNodes keeps them). A code is reference-counted by the count
// entries that name it, once per endpoint position (a self-pair counts
// twice); at zero its value leaves the maps and the code goes on a free
// list for the next new value, so churn does not grow the dictionary.
type endpoints struct {
	ints map[int64]uint32
	strs map[string]uint32 // nil until the first String value
	refs []int32           // per code; 0 for a free code
	free []uint32
}

func newEndpoints() *endpoints { return &endpoints{ints: make(map[int64]uint32)} }

// lookup returns v's code, if v has one.
func (d *endpoints) lookup(v relstore.Value) (uint32, bool) {
	if v.T == relstore.Int {
		c, ok := d.ints[v.I]
		return c, ok
	}
	c, ok := d.strs[v.S]
	return c, ok
}

// code returns v's code, assigning a free one (with no references yet)
// when v has none. The caller takes the references or releases v.
func (d *endpoints) code(v relstore.Value) uint32 {
	if c, ok := d.lookup(v); ok {
		return c
	}
	var c uint32
	if n := len(d.free); n > 0 {
		c, d.free = d.free[n-1], d.free[:n-1]
	} else {
		c = uint32(len(d.refs))
		d.refs = append(d.refs, 0)
	}
	if v.T == relstore.Int {
		d.ints[v.I] = c
	} else {
		if d.strs == nil {
			d.strs = make(map[string]uint32)
		}
		d.strs[v.S] = c
	}
	return c
}

// release frees v's code if v has one that no entry names; it does
// nothing otherwise, so it may be called for a value twice.
func (d *endpoints) release(v relstore.Value) {
	c, ok := d.lookup(v)
	if !ok || d.refs[c] != 0 {
		return
	}
	if v.T == relstore.Int {
		delete(d.ints, v.I)
	} else {
		delete(d.strs, v.S)
	}
	d.free = append(d.free, c)
}

// live returns the number of codes in use.
func (d *endpoints) live() int { return len(d.refs) - len(d.free) }

// Bytes per map entry at the Go runtime's average load: a swiss-table
// slot (key and code, aligned to the key) plus its control byte, over the
// ~5/8 of slots a map grown by insertion keeps filled (Go 1.24 measures
// 24–30 B per int64 entry from 5 000 to 100 000 entries). The runtime
// does not report a map's capacity, so the maps are the one estimated
// part of bytes.
const (
	intEntryBytes = (16 + 1) * 8 / 5
	strEntryBytes = (24 + 1) * 8 / 5
)

// bytes prices the dictionary: its slices from their capacities, its
// maps from their lengths. String contents are not counted: they are
// the table rows' own strings.
func (d *endpoints) bytes() int64 {
	return int64(cap(d.refs))*4 + int64(cap(d.free))*4 +
		int64(len(d.ints))*intEntryBytes + int64(len(d.strs))*strEntryBytes
}
