package relstore

// This file is the copy side of the borrowed-row contract (iter.go): an
// operator hands out rows it may overwrite at its next Next, so the
// operators that keep rows — distinct's survivors, the join builds,
// Collect, the Datalog evaluator's derived tuples — copy them into a
// RowSlab, and only those rows are ever copied.

// slabChunkRows caps the rows one slab chunk holds. The first chunk holds
// one row and each next one twice the last, up to the cap, so a one-row
// pipeline allocates one row and a large one allocates once per
// slabChunkRows rows.
const slabChunkRows = 256

// RowSlab copies rows into chunked []Value storage. A copy is a capacity-
// capped subslice of its chunk, and chunks never move, so a copy stays
// valid (and appending to it reallocates instead of overwriting its
// neighbour) for as long as it is referenced. The zero value is empty and
// ready to use; a RowSlab must not be used concurrently.
type RowSlab struct {
	// chunks are the allocated chunks, in order; the last one is filling.
	// Every chunk was allocated for rows*width values of its first row's
	// width, so rows of one width fill a chunk exactly.
	chunks [][]Value
	rows   int // row capacity of the last chunk
}

// Copy returns a copy of row in the slab.
func (s *RowSlab) Copy(row Row) Row {
	r := s.alloc(len(row))
	copy(r, row)
	return r
}

// copyAt returns a copy of row's values at cols, in that order.
func (s *RowSlab) copyAt(row Row, cols []int) Row {
	r := s.alloc(len(cols))
	for i, c := range cols {
		r[i] = row[c]
	}
	return r
}

// alloc returns n zeroed values of slab storage.
func (s *RowSlab) alloc(n int) Row {
	if n == 0 {
		return Row{}
	}
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < n {
		s.rows = min(max(2*s.rows, 1), slabChunkRows)
		s.chunks = append(s.chunks, make([]Value, 0, s.rows*n))
		last++
	}
	c := s.chunks[last]
	lo, hi := len(c), len(c)+n
	s.chunks[last] = c[:hi]
	return c[lo:hi:hi]
}

// each calls fn with the slab's rows in copy order, given that it holds n
// rows of width w and nothing else.
func (s *RowSlab) each(n, w int, fn func(Row)) {
	if w == 0 {
		for range n {
			fn(Row{})
		}
		return
	}
	for _, c := range s.chunks {
		for lo := 0; lo < len(c); lo += w {
			fn(c[lo : lo+w : lo+w])
		}
	}
}
