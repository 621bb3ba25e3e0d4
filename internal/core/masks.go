package core

import (
	"fmt"
	"slices"
)

// This file holds the BITMAP masks of Section 5.1: one bit per outgoing
// real edge of a virtual node, for one traversal origin.
//
// The store is one maskRow per virtual node, and it is nil until the first
// SetBitmap, so graphs without masks pay nothing per virtual node. Bit i of
// an origin's words masks vOut[v][i]: set means traverse it. A virtual
// node's virtual out-edges carry no bits; every origin descends them.
//
// Invariant: a masked node's vOut changes only in Compact, which remaps the
// node's masks (compactMasks). Edge surgery that reshapes vOut runs on
// C-DUP graphs, before any mask exists, and SetMode drops the store when a
// graph leaves BITMAP.

// maskRow is one virtual node's masks: its origins in ascending order, and
// maskStride(len(vOut[v])) words per origin, in the origins' order.
type maskRow struct {
	origins []int32
	words   []uint64
}

// maskStride is the number of words a mask over n edges takes.
func maskStride(n int) int { return (n + 63) >> 6 }

// SetBitmap attaches origin r's mask at virtual node v, replacing any mask
// r had there. words holds ⌈len(VirtTargets(v))/64⌉ words; bit i set means
// origin r traverses VirtTargets(v)[i]. The words are copied.
func (g *Graph) SetBitmap(v, r int32, words []uint64) {
	stride := maskStride(len(g.vOut.row(v)))
	if len(words) != stride {
		panic(fmt.Sprintf("core: mask of %d words for a virtual node of %d targets", len(words), len(g.vOut.row(v))))
	}
	if g.masks == nil {
		g.masks = make([]maskRow, len(g.vLayer))
	}
	m := &g.masks[v]
	i, found := slices.BinarySearch(m.origins, r)
	if found {
		copy(m.words[i*stride:], words)
		return
	}
	m.origins = slices.Insert(m.origins, i, r)
	m.words = slices.Insert(m.words, i*stride, words...)
}

// Bitmap returns origin r's mask at virtual node v, laid out as SetBitmap
// takes it. The words must not be mutated.
func (g *Graph) Bitmap(v, r int32) ([]uint64, bool) {
	if g.masks == nil {
		return nil, false
	}
	m := &g.masks[v]
	i, ok := slices.BinarySearch(m.origins, r)
	if !ok {
		return nil, false
	}
	s := maskStride(len(g.vOut.row(v)))
	return m.words[i*s : (i+1)*s : (i+1)*s], true
}

// ForEachBitmap calls fn for every origin masked at virtual node v, in
// ascending origin order, with the origin's mask. The words must not be
// mutated.
func (g *Graph) ForEachBitmap(v int32, fn func(origin int32, words []uint64)) {
	if g.masks == nil {
		return
	}
	m := &g.masks[v]
	s := maskStride(len(g.vOut.row(v)))
	for i, r := range m.origins {
		fn(r, m.words[i*s:(i+1)*s:(i+1)*s])
	}
}

// NumBitmaps returns the number of (virtual node, origin) masks stored.
func (g *Graph) NumBitmaps() int {
	n := 0
	for _, m := range g.masks {
		n += len(m.origins)
	}
	return n
}

// compactMasks rewrites virtual node v's masks for Compact, before vOut[v]
// is filtered: dead origins go, the rest are renumbered through the
// monotone remap (so they stay ascending), and each keeps the bits of its
// live targets, packed down to the filtered list's positions.
func (g *Graph) compactMasks(v int, remap []int32) {
	m := &g.masks[v]
	if len(m.origins) == 0 {
		return
	}
	out := g.vOut.row(int32(v))
	kept := 0
	for _, t := range out {
		if remap[t] != none {
			kept++
		}
	}
	oldS, newS := maskStride(len(out)), maskStride(kept)
	words := make([]uint64, len(m.origins)*newS)
	origins := m.origins[:0]
	for k, o := range m.origins {
		if remap[o] == none {
			continue
		}
		src := m.words[k*oldS : (k+1)*oldS]
		dst := words[len(origins)*newS : (len(origins)+1)*newS]
		j := 0
		for i, t := range out {
			if remap[t] == none {
				continue
			}
			if src[i>>6]&(1<<(i&63)) != 0 {
				dst[j>>6] |= 1 << (j & 63)
			}
			j++
		}
		origins = append(origins, remap[o])
	}
	m.origins, m.words = origins, words[:len(origins)*newS]
}

// cloneMasks deep-copies a mask store; a nil store stays nil.
func cloneMasks(ms []maskRow) []maskRow {
	if ms == nil {
		return nil
	}
	out := make([]maskRow, len(ms))
	for v, m := range ms {
		out[v] = maskRow{slices.Clone(m.origins), slices.Clone(m.words)}
	}
	return out
}
