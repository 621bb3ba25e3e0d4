// Package incremental keeps an extracted condensed graph live as its source
// tables change (Section 3.4's update operations, generalized to updates of
// the *relational* side). Instead of re-running extraction after every
// tuple insert or delete — a dead end for a long-lived served graph — it
// maintains, per plan segment, a multiset count of the segment's (in, out)
// join pairs. A single-tuple change contributes a delta multiset (computed
// by the counting delta rules in delta.go); count transitions 0 -> 1 and
// 1 -> 0 are exactly the condensed-graph edge insertions and removals that
// keep the live graph's logical edge set equal to a fresh extraction over
// the mutated database:
//
//   - segment 0 pairs wire u_s -> V membership edges,
//   - interior segment pairs wire V -> W virtual-virtual edges,
//   - last segment pairs wire V -> u_t membership edges,
//   - single-segment plans wire direct real-to-real edges.
//
// Deltas are computed eagerly on the mutating goroutine (the relstore
// change-log callback, where the pre/post state convention is exact) but
// applied lazily in batch on the next read, netted per pair in one pass.
// Changes to tables referenced by Nodes rules fall back to a full
// rebuild — executed immediately on the mutating goroutine, the only place
// table reads cannot race later table writes — since node-set maintenance
// is out of scope (see docs/ARCHITECTURE.md for the limits).
package incremental

import (
	"fmt"
	"sync"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// Stats counts maintenance activity since construction.
type Stats struct {
	// DeltaRows is the number of per-segment delta pairs computed from
	// single-tuple changes.
	DeltaRows int64
	// Transitions is the number of 0<->1 count transitions applied as
	// edge surgery.
	Transitions int64
	// Flushes is the number of batched apply passes.
	Flushes int64
	// Rebuilds is the number of full re-extractions (node-table changes
	// or delta-evaluation failures).
	Rebuilds int64
	// ViewsFull, ViewsDerived and ViewsReused count the analytics views
	// FreezeVersioned built from scratch, derived from the previous view,
	// and reused unchanged at a new version (see ViewBuild).
	ViewsFull, ViewsDerived, ViewsReused int64
}

// countDelta is one pending +-1 contribution to a segment pair count.
type countDelta struct {
	rule, seg int
	pair      [2]relstore.Value
	n         int
}

// virtSlot locates a virtual node's key for reverse cleanup.
type virtSlot struct {
	attr int
	key  relstore.Value
}

// ruleState is the maintenance state of one Edges rule: its plan, the
// resolved table of every segment atom, per-segment pair counts, and the
// per-attribute virtual-node maps.
type ruleState struct {
	plan   *extract.EdgePlan
	tables [][]*relstore.Table // aligned with plan.Segments[i].Atoms
	counts []map[[2]relstore.Value]int
	virt   []map[relstore.Value]int32 // large-join attribute value -> virtual index
	vByIdx map[int32]virtSlot
}

// touches reports whether any atom of any segment reads t.
func (rs *ruleState) touches(t *relstore.Table) bool {
	for _, seg := range rs.tables {
		for _, st := range seg {
			if st == t {
				return true
			}
		}
	}
	return false
}

// Live is a condensed graph kept consistent with its source database under
// single-tuple updates.
//
// Concurrency: any number of goroutines may read concurrently. Database
// mutations must come from one goroutine at a time (relstore tables are not
// internally synchronized), but may run concurrently with graph reads: the
// change-log callback computes deltas against the tables and enqueues them;
// readers drain the queue under the graph lock.
type Live struct {
	db   *relstore.DB
	prog *datalog.Program
	opts extract.Options

	// mu guards g, rules, stats, version, and err; pendMu guards pending.
	// Lock order: mu before pendMu.
	mu sync.RWMutex
	// graphlint:guardedby mu
	g *core.Graph
	// graphlint:guardedby mu
	rules []*ruleState
	// graphlint:guardedby mu
	stats Stats
	// graphlint:guardedby mu
	version uint64
	// graphlint:guardedby mu
	err error // first unrecoverable rebuild error, surfaced by Flush/Err

	pendMu sync.Mutex
	// graphlint:guardedby pendMu
	pending []countDelta

	// viewMu guards the last view FreezeVersioned handed out, its version,
	// the rows flushes changed since (tracked only while a view exists),
	// and the per-ViewBuild counts. Lock order: mu before viewMu. A flush
	// records rows under mu held for writing; FreezeVersioned derives
	// under mu held for reading, so a derivation never overlaps a flush,
	// and viewMu serializes concurrent derivations.
	viewMu sync.Mutex
	// graphlint:guardedby viewMu
	view *core.Frozen
	// graphlint:guardedby viewMu
	viewVersion uint64
	// graphlint:guardedby viewMu
	touched rowSet
	// graphlint:guardedby viewMu
	views [ViewFull + 1]int64

	nodeTables map[*relstore.Table]bool
	cancels    []func()
}

// New extracts prog against db and subscribes to the tables it reads.
// Options follow extract.Options, except that the representation-changing
// passes (Step-6 preprocessing, auto-expansion) are disabled: live
// maintenance needs the condensed wiring to stay aligned with the
// per-segment counts. The logical edge set is unaffected. MaxEdges is
// enforced against the representation edge count at build and rebuild time
// (per-tuple maintenance never re-checks it).
func New(db *relstore.DB, prog *datalog.Program, opts extract.Options) (*Live, error) {
	if opts.LargeOutputFactor <= 0 {
		opts.LargeOutputFactor = 2
	}
	opts.SkipPreprocess = true
	opts.AutoExpandFactor = 0
	lv := &Live{db: db, prog: prog, opts: opts}
	// A trace is scoped to one query execution; the initial build below
	// is traced, but per-update maintenance and later rebuilds outlive
	// the request that configured the trace and must not append to it.
	defer func() { lv.opts.Trace = nil }()
	// Create the program's indexes before the initial build and before
	// subscribing: indexes are maintained inside the mutation path ahead
	// of change-log subscribers, so the delta evaluation in onChange can
	// probe them and always see the post-change state. They persist across
	// rebuilds — a rebuild re-runs extraction over already-indexed tables.
	if opts.UseIndex != relstore.IndexOff {
		extract.EnsureIndexes(db, append(append([]datalog.Rule(nil), prog.Nodes...), prog.Edges...))
	}
	//lint:ignore guardedby lv is not shared until New returns; the constructor builds without mu
	if err := lv.build(); err != nil {
		return nil, err
	}
	lv.subscribe()
	return lv, nil
}

// build (re)constructs the graph, counts, and virtual-node maps from the
// current database state. Callers hold mu (or are the constructor).
//
// graphlint:requires mu
func (lv *Live) build() error {
	g := core.New(core.CDUP)
	g.SelfLoops = lv.opts.SelfLoops
	for _, rule := range lv.prog.Nodes {
		if err := extract.LoadNodes(lv.db, g, rule, lv.opts); err != nil {
			return err
		}
	}
	symmetric := true
	var rules []*ruleState
	for _, rule := range lv.prog.Edges {
		plan, err := extract.PlanEdges(lv.db, rule, lv.opts)
		if err != nil {
			return err
		}
		if !plan.Symmetric {
			symmetric = false
		}
		nSegs := len(plan.Segments)
		rs := &ruleState{
			plan:   plan,
			tables: make([][]*relstore.Table, nSegs),
			counts: make([]map[[2]relstore.Value]int, nSegs),
			virt:   make([]map[relstore.Value]int32, nSegs-1),
			vByIdx: make(map[int32]virtSlot),
		}
		for s, seg := range plan.Segments {
			rs.tables[s] = make([]*relstore.Table, len(seg.Atoms))
			for a, atom := range seg.Atoms {
				t, err := lv.db.Table(atom.Pred)
				if err != nil {
					return err
				}
				rs.tables[s][a] = t
			}
			rs.counts[s] = make(map[[2]relstore.Value]int)
		}
		for a := range rs.virt {
			rs.virt[a] = make(map[relstore.Value]int32)
		}
		rules = append(rules, rs)
		// Evaluate each segment WITHOUT distinct: the row multiplicities
		// are the initial support counts, and the first appearance of a
		// pair wires its edge (matching Extract's distinct wiring).
		for s, seg := range plan.Segments {
			rel, err := extract.EvalConjunctive(lv.db, seg.Atoms, []string{seg.InVar, seg.OutVar}, false, lv.opts)
			if err != nil {
				return err
			}
			for _, row := range rel.Rows {
				pair := [2]relstore.Value{row[0], row[1]}
				if rs.counts[s][pair] == 0 {
					addPair(g, rs, s, pair, nil)
				}
				rs.counts[s][pair]++
			}
		}
	}
	if lv.opts.MaxEdges > 0 && g.RepEdges() > lv.opts.MaxEdges {
		return core.ErrTooLarge
	}
	g.Symmetric = symmetric
	lv.g = g
	lv.rules = rules
	lv.err = nil
	lv.version++
	return nil
}

// subscribe registers change-log handlers on every table the program reads.
func (lv *Live) subscribe() {
	lv.nodeTables = make(map[*relstore.Table]bool)
	for _, rule := range lv.prog.Nodes {
		for _, atom := range rule.Body {
			if t, err := lv.db.Table(atom.Pred); err == nil {
				lv.nodeTables[t] = true
			}
		}
	}
	seen := make(map[*relstore.Table]bool)
	sub := func(t *relstore.Table) {
		if seen[t] {
			return
		}
		seen[t] = true
		lv.cancels = append(lv.cancels, t.Subscribe(func(ch relstore.Change) {
			lv.onChange(t, ch)
		}))
	}
	for t := range lv.nodeTables {
		sub(t)
	}
	for _, rule := range lv.prog.Edges {
		for _, atom := range rule.Body {
			if t, err := lv.db.Table(atom.Pred); err == nil {
				sub(t)
			}
		}
	}
}

// onChange is the change-log callback: it computes the per-segment count
// deltas of a single-tuple change and queues them. It runs on the mutating
// goroutine, where the pre/post table-state convention of delta.go is
// exact. Node-table changes (and delta-evaluation failures) rebuild
// immediately, still on the mutating goroutine — the only place a full
// re-extraction's table reads cannot race later table writes.
func (lv *Live) onChange(t *relstore.Table, ch relstore.Change) {
	if lv.nodeTables[t] {
		lv.rebuildNow()
		return
	}
	var ds []countDelta
	var failed bool
	lv.mu.RLock()
	for ri, rs := range lv.rules {
		if !rs.touches(t) {
			continue
		}
		for si, seg := range rs.plan.Segments {
			deltas, err := segmentDelta(seg.Atoms, rs.tables[si], seg.InVar, seg.OutVar, t, ch.Row, ch.Op == relstore.OpInsert, lv.opts)
			if err != nil {
				failed = true
				break
			}
			for _, d := range deltas {
				d.rule, d.seg = ri, si
				ds = append(ds, d)
			}
		}
	}
	lv.mu.RUnlock()
	if failed {
		lv.rebuildNow()
		return
	}
	lv.pendMu.Lock()
	lv.pending = append(lv.pending, ds...)
	lv.pendMu.Unlock()
}

// rebuildNow re-extracts everything from the current database state,
// discarding queued deltas (the rebuild subsumes them).
func (lv *Live) rebuildNow() {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	lv.pendMu.Lock()
	lv.pending = nil
	lv.pendMu.Unlock()
	lv.stats.Rebuilds++
	lv.dropView()
	if err := lv.build(); err != nil {
		// Keep serving the last good graph; surface via Flush/Err. The
		// version still advances: the database moved past the served
		// snapshot, so cached derivations keyed to older versions must not
		// be extended to it.
		lv.version++
		lv.err = fmt.Errorf("incremental: rebuild failed, serving stale graph: %w", err)
	}
}

// dirty reports whether deltas are pending.
func (lv *Live) dirty() bool {
	lv.pendMu.Lock()
	defer lv.pendMu.Unlock()
	return len(lv.pending) > 0
}

// Flush applies all pending deltas now. It is called implicitly by every
// read; explicit calls surface rebuild errors.
func (lv *Live) Flush() error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	lv.flushLocked()
	return lv.err
}

// flushLocked drains the pending queue under mu. Net count changes are
// aggregated per (rule, segment, pair) in one pass, in order of first
// appearance, so the application order (and thus virtual-node numbering) is
// deterministic; each 0<->1 transition is applied as edge surgery.
//
// graphlint:requires mu
func (lv *Live) flushLocked() {
	lv.pendMu.Lock()
	pending := lv.pending
	lv.pending = nil
	lv.pendMu.Unlock()
	if len(pending) == 0 {
		return
	}
	lv.stats.Flushes++
	lv.stats.DeltaRows += int64(len(pending))
	lv.version++
	net := make(map[countDelta]int) // pair identity: n field zeroed
	var order []countDelta
	for _, d := range pending {
		k := countDelta{rule: d.rule, seg: d.seg, pair: d.pair}
		if _, ok := net[k]; !ok {
			order = append(order, k)
		}
		net[k] += d.n
	}
	lv.viewMu.Lock()
	defer lv.viewMu.Unlock()
	var touched *rowSet
	if lv.view != nil {
		touched = &lv.touched
	}
	for _, k := range order {
		dn := net[k]
		if dn == 0 {
			continue
		}
		rs := lv.rules[k.rule]
		old := rs.counts[k.seg][k.pair]
		now := old + dn
		if now < 0 {
			now = 0 // counts never go negative when deltas are exact
		}
		if now == 0 {
			delete(rs.counts[k.seg], k.pair)
		} else {
			rs.counts[k.seg][k.pair] = now
		}
		switch {
		case old == 0 && now > 0:
			addPair(lv.g, rs, k.seg, k.pair, touched)
			lv.stats.Transitions++
		case old > 0 && now == 0:
			removePair(lv.g, rs, k.seg, k.pair, touched)
			lv.stats.Transitions++
		}
	}
}

// addPair wires the physical edge of a pair whose support count became
// positive, recording the out-rows it may change in touched (see view.go).
// Pairs whose real endpoint is absent from the node set stay unwired,
// matching Extract's skipped-row semantics.
func addPair(g *core.Graph, rs *ruleState, seg int, pair [2]relstore.Value, touched *rowSet) {
	last := len(rs.plan.Segments) - 1
	switch {
	case last == 0:
		u, okU := g.RealIndex(extract.AsID(pair[0]))
		w, okW := g.RealIndex(extract.AsID(pair[1]))
		if !okU || !okW {
			return
		}
		g.AddDirectEdgeIdx(u, w)
		touched.add(u)
	case seg == 0:
		r, ok := g.RealIndex(extract.AsID(pair[0]))
		if !ok {
			return
		}
		g.ConnectRealToVirt(r, getVirt(g, rs, 0, pair[1]))
		touched.add(r)
	case seg == last:
		r, ok := g.RealIndex(extract.AsID(pair[1]))
		if !ok {
			return
		}
		v := getVirt(g, rs, seg-1, pair[0])
		g.ConnectVirtToReal(v, r)
		touched.addReaching(g, v)
	default:
		v := getVirt(g, rs, seg-1, pair[0])
		g.ConnectVirtToVirt(v, getVirt(g, rs, seg, pair[1]))
		touched.addReaching(g, v)
	}
}

// removePair is the edge surgery for a support count that reached zero. It
// is the single-membership analogue of core's DeleteEdge compensation: only
// the physical edge whose support vanished is removed, so every other
// logical edge (including ones sharing the virtual node) survives, and
// fully disconnected virtual nodes are reclaimed. Rows are recorded in
// touched like addPair's, before the surgery.
func removePair(g *core.Graph, rs *ruleState, seg int, pair [2]relstore.Value, touched *rowSet) {
	last := len(rs.plan.Segments) - 1
	switch {
	case last == 0:
		u, okU := g.RealIndex(extract.AsID(pair[0]))
		w, okW := g.RealIndex(extract.AsID(pair[1]))
		if !okU || !okW {
			return
		}
		touched.add(u)
		g.RemoveDirectEdgeIdx(u, w)
	case seg == 0:
		r, okR := g.RealIndex(extract.AsID(pair[0]))
		v, okV := rs.virt[0][pair[1]]
		if !okR || !okV {
			return
		}
		touched.add(r)
		g.DisconnectRealToVirt(r, v)
		releaseVirtIfEmpty(g, rs, v)
	case seg == last:
		r, okR := g.RealIndex(extract.AsID(pair[1]))
		v, okV := rs.virt[seg-1][pair[0]]
		if !okR || !okV {
			return
		}
		touched.addReaching(g, v)
		g.DisconnectVirtToReal(v, r)
		releaseVirtIfEmpty(g, rs, v)
	default:
		v, okV := rs.virt[seg-1][pair[0]]
		w, okW := rs.virt[seg][pair[1]]
		if !okV || !okW {
			return
		}
		touched.addReaching(g, v)
		g.DisconnectVirtToVirt(v, w)
		releaseVirtIfEmpty(g, rs, v)
		releaseVirtIfEmpty(g, rs, w)
	}
}

// getVirt returns (creating on demand) the virtual node of a large-join
// attribute value. Layer k is the k-th large join, 1-based, as in Extract.
func getVirt(g *core.Graph, rs *ruleState, attr int, key relstore.Value) int32 {
	if idx, ok := rs.virt[attr][key]; ok {
		return idx
	}
	idx := g.AddVirtualNode(int32(attr + 1))
	rs.virt[attr][key] = idx
	rs.vByIdx[idx] = virtSlot{attr: attr, key: key}
	return idx
}

// releaseVirtIfEmpty removes a virtual node that lost its last edge and
// frees its attribute-map slot, so a later re-insert of the value gets a
// fresh node. (Dead dense slots linger until the next rebuild, like
// tombstoned real nodes before Compact.)
func releaseVirtIfEmpty(g *core.Graph, rs *ruleState, v int32) {
	if !g.VirtAlive(v) {
		return
	}
	if len(g.VirtSources(v)) > 0 || len(g.VirtTargets(v)) > 0 ||
		len(g.VirtInVirt(v)) > 0 || len(g.VirtOutVirt(v)) > 0 || len(g.VirtUndirected(v)) > 0 {
		return
	}
	g.RemoveVirtualNode(v)
	slot, ok := rs.vByIdx[v]
	if ok {
		delete(rs.virt[slot.attr], slot.key)
		delete(rs.vByIdx, v)
	}
}

// --- reads (graphapi-shaped, by external node ID) ---

// acquire flushes pending deltas if any, then takes the read lock. Callers
// must release with lv.mu.RUnlock().
func (lv *Live) acquire() {
	if lv.dirty() {
		lv.mu.Lock()
		lv.flushLocked()
		lv.mu.Unlock()
	}
	lv.mu.RLock()
}

// Neighbors returns the logical out-neighbors of v, after applying pending
// deltas.
func (lv *Live) Neighbors(v int64) []int64 {
	lv.acquire()
	defer lv.mu.RUnlock()
	r, ok := lv.g.RealIndex(v)
	if !ok {
		return nil
	}
	var out []int64
	lv.g.ForNeighbors(r, func(t int32) bool {
		out = append(out, lv.g.RealID(t))
		return true
	})
	return out
}

// ExistsEdge reports whether the logical edge u -> w exists, after applying
// pending deltas.
func (lv *Live) ExistsEdge(u, w int64) bool {
	lv.acquire()
	defer lv.mu.RUnlock()
	ui, ok := lv.g.RealIndex(u)
	if !ok {
		return false
	}
	wi, ok := lv.g.RealIndex(w)
	if !ok {
		return false
	}
	return lv.g.HasEdgeIdx(ui, wi)
}

// Vertices returns the external IDs of all live vertices.
func (lv *Live) Vertices() []int64 {
	lv.acquire()
	defer lv.mu.RUnlock()
	out := make([]int64, 0, lv.g.NumRealNodes())
	lv.g.ForEachReal(func(r int32) bool {
		out = append(out, lv.g.RealID(r))
		return true
	})
	return out
}

// NumVertices returns the number of live vertices.
func (lv *Live) NumVertices() int {
	lv.acquire()
	defer lv.mu.RUnlock()
	return lv.g.NumRealNodes()
}

// PropertyOf returns a vertex property set by the Nodes statements.
func (lv *Live) PropertyOf(v int64, key string) (string, bool) {
	lv.acquire()
	defer lv.mu.RUnlock()
	r, ok := lv.g.RealIndex(v)
	if !ok {
		return "", false
	}
	return lv.g.Property(r, key)
}

// LogicalEdges returns the logical (expanded) edge count.
func (lv *Live) LogicalEdges() int64 {
	lv.acquire()
	defer lv.mu.RUnlock()
	return lv.g.LogicalEdges()
}

// Snapshot applies pending deltas and returns a deep copy of the condensed
// graph, detached from further maintenance.
func (lv *Live) Snapshot() *core.Graph {
	lv.acquire()
	defer lv.mu.RUnlock()
	return lv.g.Clone()
}

// Version returns the snapshot version: a counter that increases every
// time the served graph state changes — the initial build, each batched
// delta application, and every rebuild (including failed rebuilds, where
// the database has moved past the served snapshot). Pending deltas are
// applied first, so the returned version accounts for every mutation made
// before the call. Version is the cache-key half of the serving layer's
// memoization contract: a derived result (PageRank, components, ...) is
// reusable if and only if it was computed at the same version.
func (lv *Live) Version() uint64 {
	lv.acquire()
	defer lv.mu.RUnlock()
	return lv.version
}

// SnapshotVersioned is Snapshot plus the version the snapshot was taken
// at, read atomically under one lock acquisition, so a caller can key a
// derived result to exactly the state it was computed from even while
// mutations race the read.
func (lv *Live) SnapshotVersioned() (*core.Graph, uint64) {
	lv.acquire()
	defer lv.mu.RUnlock()
	return lv.g.Clone(), lv.version
}

// Pending returns the number of queued, not-yet-applied count deltas.
func (lv *Live) Pending() int {
	lv.pendMu.Lock()
	defer lv.pendMu.Unlock()
	return len(lv.pending)
}

// Summary is a consistent point-in-time view of the live graph's size
// and maintenance position, read under one lock acquisition.
type Summary struct {
	Vertices     int
	LogicalEdges int64
	Version      uint64
	Pending      int
}

// Summarize applies pending deltas and returns vertices, logical edges,
// version, and the (post-flush) pending count atomically — four separate
// accessor calls could interleave with a concurrent mutation and report
// a torn view (e.g. pre-flush vertices next to a post-flush version).
func (lv *Live) Summarize() Summary {
	lv.acquire()
	defer lv.mu.RUnlock()
	lv.pendMu.Lock()
	pending := len(lv.pending)
	lv.pendMu.Unlock()
	return Summary{
		Vertices:     lv.g.NumRealNodes(),
		LogicalEdges: lv.g.LogicalEdges(),
		Version:      lv.version,
		Pending:      pending,
	}
}

// Stats returns maintenance counters (after applying pending deltas).
func (lv *Live) Stats() Stats {
	lv.acquire()
	defer lv.mu.RUnlock()
	st := lv.stats
	lv.viewMu.Lock()
	defer lv.viewMu.Unlock()
	st.ViewsFull, st.ViewsDerived, st.ViewsReused = lv.views[ViewFull], lv.views[ViewDerived], lv.views[ViewReused]
	return st
}

// Err returns the first unrecovered rebuild error, if any.
func (lv *Live) Err() error {
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	return lv.err
}

// Close unsubscribes from the change logs. The graph remains readable but
// frozen at its current state.
func (lv *Live) Close() {
	for _, cancel := range lv.cancels {
		cancel()
	}
	lv.cancels = nil
}
