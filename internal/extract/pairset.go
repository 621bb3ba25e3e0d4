package extract

import (
	"hash/maphash"
	"math/bits"
)

// pairSet is the set of (src, dst) slot pairs one segment has wired: an
// open-addressed table of src<<32 | dst keys, linear probing, at most half
// full. Slots are never negative, so no key has its top bit set and the
// all-ones word can mark an empty slot.
type pairSet struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots)): a hash's top bits index the table
}

const emptyPair = ^uint64(0)

// pairHashKey is a per-process odd multiplier, as relstore's row hash is
// keyed per process: the pairs come from rows that graphgend's clients
// insert, and a fixed hash would let them choose one long probe chain.
var pairHashKey = maphash.String(maphash.MakeSeed(), "pair") | 1

// reset empties the set for about hint pairs, keeping its table when
// that is large enough: the segments of a plan run one after another, so
// they share one table.
func (s *pairSet) reset(hint int) {
	s.n = 0
	if hint = max(hint, 4); 2*hint > len(s.slots) {
		s.alloc(hint)
		return
	}
	for i := range s.slots {
		s.slots[i] = emptyPair
	}
}

// alloc replaces the table with an empty one of at least 2*n slots.
func (s *pairSet) alloc(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	s.slots = make([]uint64, size)
	for i := range s.slots {
		s.slots[i] = emptyPair
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// add inserts (src, dst) and reports whether it was new.
func (s *pairSet) add(src, dst int32) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	if !s.insert(uint64(src)<<32 | uint64(dst)) {
		return false
	}
	s.n++
	return true
}

// insert files key unless present, reporting whether it was absent.
func (s *pairSet) insert(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (key * pairHashKey) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case emptyPair:
			s.slots[i] = key
			return true
		case key:
			return false
		}
	}
}

// grow doubles the table and refiles every key.
func (s *pairSet) grow() {
	old := s.slots
	s.alloc(len(old))
	for _, k := range old {
		if k != emptyPair {
			s.insert(k)
		}
	}
}
