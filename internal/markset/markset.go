// Package markset provides a dense visited set over small integer indices
// that empties in O(1). It replaces per-call hash sets on traversal hot
// paths: a slot is marked when it holds the current epoch, so starting a new
// traversal is one counter increment rather than a map allocation or a
// clear. The cost is 4 bytes per index, paid once per Set and reused.
package markset

// Set is a mark set over the indices [0, n) given to the last Reset. The zero
// value is an empty set over no indices. A Set is not safe for concurrent
// use; give each goroutine (and each nesting level of a re-entrant
// traversal) its own.
type Set struct {
	stamp []uint32 // stamp[i] == epoch means i is marked
	epoch uint32   // never 0 after the first Reset, so fresh slots are unmarked
}

// Reset empties the set and makes it cover the indices [0, n). It is O(1)
// except when the set has to grow or, once every 2^32-1 calls, when the
// epoch wraps and the stamps are cleared.
func (s *Set) Reset(n int) {
	if n > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

// Mark adds i to the set and reports whether it was absent before.
func (s *Set) Mark(i int32) (fresh bool) {
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	return true
}

// Has reports whether i is in the set.
func (s *Set) Has(i int32) bool { return s.stamp[i] == s.epoch }

// SeedEpoch sets the epoch counter. It exists so tests can put a set next to
// the wrap-around instead of calling Reset 2^32 times. Seed upward only (a
// stamp written under an epoch the counter has yet to reach would come back
// as a mark), and call Reset before using the set again.
func (s *Set) SeedEpoch(e uint32) { s.epoch = e }
