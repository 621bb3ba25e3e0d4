package incremental

import (
	"graphgen/internal/core"
	"graphgen/internal/markset"
)

// This file keeps the frozen analytics view of a live graph current by
// delta. A flush records, next to its edge surgery, the real vertices whose
// logical out-row the surgery may have changed (the rows of a CSR view);
// the next FreezeVersioned derives the new view from the last one by
// re-walking only those rows (core.Graph.FreezeFrom). A flush that changed
// no row — say a pair whose endpoints are not vertices — costs the next
// view nothing: the last one is returned under the new version. Only a
// rebuild, which installs a new graph, costs a full Freeze again.
//
// A row is the ForNeighbors emission of one real vertex: its direct
// targets, then the targets of every virtual node it reaches, in adjacency
// order. Surgery on a list changes exactly the rows of the reals that
// reach the list's owner:
//
//   - a direct edge u -> w, or a membership edge r -> V: the row of u or r;
//   - a membership edge V -> r, or a virtual edge V -> W: the rows of every
//     real that reaches V — V's sources, and through VirtInVirt those of
//     every virtual node upstream (multi-layer plans).
//
// Layers only grow along an edge, so surgery never changes who reaches its
// own source; collecting the reaching set at surgery time covers every row
// a sequence of surgeries changes. Releasing a virtual node that lost its
// last edge changes no list a traversal reads.

// ViewBuild says how FreezeVersioned produced the view it returned.
type ViewBuild uint8

const (
	// ViewShared: the view was already built at this version.
	ViewShared ViewBuild = iota
	// ViewReused: the flushes since the last view changed no row, so the
	// last view is returned, unchanged, under the new version.
	ViewReused
	// ViewDerived: the view was derived from the last one, re-walking the
	// rows the flushes since then changed.
	ViewDerived
	// ViewFull: the view was frozen from scratch (the first view, and the
	// first after every rebuild).
	ViewFull
)

// String returns the build's metric label.
func (b ViewBuild) String() string {
	switch b {
	case ViewReused:
		return "reused"
	case ViewDerived:
		return "derived"
	case ViewFull:
		return "full"
	default:
		return "shared"
	}
}

// rowSet is the set of real slots whose out-rows the flushes since the
// last view may have changed, each listed once.
type rowSet struct {
	mark  markset.Set
	rows  []int32
	seen  markset.Set // virtual nodes visited by one addReaching
	stack []int32
}

// reset empties the set for a graph of n real slots.
func (s *rowSet) reset(n int) {
	s.mark.Reset(n)
	s.rows = s.rows[:0]
}

// add records real slot r. A nil set records nothing: no view is kept, so
// the next one is frozen from scratch anyway.
func (s *rowSet) add(r int32) {
	if s != nil && s.mark.Mark(r) {
		s.rows = append(s.rows, r)
	}
}

// addSource records the rows surgery on an edge from src may change: src's
// own when it is a real slot, those of every real that reaches it when it
// is a virtual node (virt), as Wiring.Wire and Wiring.Unwire report it.
func (s *rowSet) addSource(g *core.Graph, src int32, virt bool) {
	if virt {
		s.addReaching(g, src)
	} else {
		s.add(src)
	}
}

// addReaching records every real that reaches virtual node v.
func (s *rowSet) addReaching(g *core.Graph, v int32) {
	if s == nil {
		return
	}
	s.seen.Reset(g.NumVirtualSlots())
	s.stack = append(s.stack[:0], v)
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if !s.seen.Mark(v) {
			continue
		}
		for _, r := range g.VirtSources(v) {
			s.add(r)
		}
		s.stack = append(s.stack, g.VirtInVirt(v)...)
	}
}

// FreezeVersioned applies pending deltas and returns an immutable CSR view
// of the graph, the version it reflects, and how the view was obtained —
// view and version read atomically under one lock acquisition, like
// SnapshotVersioned. The view is derived from the last one handed out:
// returned as is when no flush since then changed a row, rebuilt from the
// changed rows otherwise, frozen from scratch only when no view exists
// (first call, or after a rebuild). Calls are serialized, so concurrent
// callers at one version share one view. Views are immutable and stay
// valid after later flushes; property maps are shared with the graph,
// which is safe because flushes only do edge surgery and a rebuild
// installs a new graph.
func (lv *Live) FreezeVersioned() (*core.Frozen, uint64, ViewBuild) {
	lv.acquire()
	defer lv.mu.RUnlock()
	lv.viewMu.Lock()
	defer lv.viewMu.Unlock()
	if lv.view != nil && lv.viewVersion == lv.version {
		return lv.view, lv.version, ViewShared
	}
	build := ViewFull
	switch {
	case lv.view == nil:
		lv.view = lv.g.Freeze()
	case len(lv.touched.rows) == 0:
		build = ViewReused
	default:
		lv.view, build = lv.g.FreezeFrom(lv.view, lv.touched.rows), ViewDerived
	}
	lv.touched.reset(lv.g.NumRealSlots())
	lv.viewVersion = lv.version
	lv.views[build]++
	return lv.view, lv.version, build
}

// dropView forgets the last view after a rebuild installed a new graph.
// Callers hold mu.
func (lv *Live) dropView() {
	lv.viewMu.Lock()
	defer lv.viewMu.Unlock()
	lv.view = nil
}
