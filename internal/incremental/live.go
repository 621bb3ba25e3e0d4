// Package incremental keeps an extracted condensed graph live as its source
// tables change (Section 3.4's update operations, generalized to updates of
// the *relational* side). Instead of re-running extraction after every
// tuple insert or delete — a dead end for a long-lived served graph — it
// maintains, per plan segment, a multiset count of the segment's (in, out)
// join pairs. A single-tuple change contributes a delta multiset (computed
// by the counting delta rules in delta.go); count transitions 0 -> 1 and
// 1 -> 0 are exactly the condensed-graph edge insertions and removals that
// keep the live graph's logical edge set equal to a fresh extraction over
// the mutated database. A transition wires or unwires its pair through the
// rule's extract.Wiring, the mapping from segment rows to condensed edges
// that Extract uses too (its doc comment lists the four edge kinds); the
// graph, the plans and the wirings come from extract.Build, the build
// Extract runs, so the support counts are the only state added here.
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
	"slices"
	"sync"

	"graphgen/internal/conj"
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
	// SkippedRows counts segment rows left unwired because a real
	// endpoint is not the ID of a vertex (extract.Stats.SkippedRows): each
	// build's distinct rows, and each flushed row whose support rose from
	// zero.
	SkippedRows int64
}

// countDelta is one pending +-1 contribution to a segment pair count.
type countDelta struct {
	rule, seg int
	pair      [2]relstore.Value
	n         int
}

// ruleState is the maintenance state of one Edges rule: each plan segment
// compiled once as a bag plan, per-segment pair counts, and the wiring of
// pairs onto the graph.
type ruleState struct {
	segs   []*conj.Plan // aligned with the plan's segments
	counts []map[[2]relstore.Value]int
	wiring *extract.Wiring
}

// touches reports whether any atom of any segment reads t.
func (rs *ruleState) touches(t *relstore.Table) bool {
	for _, seg := range rs.segs {
		for _, o := range seg.Atoms {
			if o.Table == t {
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
// The live graph is extract.Build's graph without Extract's representation-
// changing passes (Step-6 preprocessing, auto-expansion), which
// SkipPreprocess, Workers and AutoExpandFactor configure and which have no
// effect here: live maintenance needs the condensed wiring to stay aligned
// with the per-segment counts. The logical edge set is unaffected. MaxEdges
// is enforced against the representation edge count at build and rebuild
// time (per-tuple maintenance never re-checks it). Comparisons are
// maintained like the joins they filter; a negated atom is rejected,
// because a change to the negated table has no delta rule.
func New(db *relstore.DB, prog *datalog.Program, opts extract.Options) (*Live, error) {
	for _, r := range slices.Concat(prog.Nodes, prog.Edges) {
		if len(r.Negated) > 0 {
			a := r.Negated[0]
			return nil, fmt.Errorf("incremental: line %d col %d: negated atom !%s cannot be maintained live: a change to %s has no delta rule",
				a.Line, a.Col, a, a.Pred)
		}
	}
	lv := &Live{db: db, prog: prog, opts: opts}
	// A trace is scoped to one query execution; the initial build below
	// is traced, but per-update maintenance and later rebuilds outlive
	// the request that configured the trace and must not append to it.
	defer func() { lv.opts.Trace = nil }()
	// The build creates the program's indexes before subscribing: indexes
	// are maintained inside the mutation path ahead of change-log
	// subscribers, so the delta evaluation in onChange can probe them and
	// always see the post-change state.
	//lint:ignore guardedby lv is not shared until New returns; the constructor builds without mu
	if err := lv.build(); err != nil {
		return nil, err
	}
	lv.subscribe()
	return lv, nil
}

// build (re)constructs the graph, plans, counts and wirings from the
// current database state. Callers hold mu (or are the constructor).
//
// graphlint:requires mu
func (lv *Live) build() error {
	var rules []*ruleState
	var st extract.Stats
	g, err := extract.Build(lv.db, lv.prog, lv.opts, &st, func(w *extract.Wiring, plan *extract.EdgePlan) error {
		nSegs := len(plan.Segments)
		rs := &ruleState{
			segs:   make([]*conj.Plan, nSegs),
			counts: make([]map[[2]relstore.Value]int, nSegs),
			wiring: w,
		}
		rules = append(rules, rs)
		// Stream each segment WITHOUT distinct: the row multiplicities
		// are the initial support counts, and the first appearance of a
		// pair wires its edge (matching Extract's distinct wiring).
		for s, seg := range plan.Segments {
			var err error
			if rs.segs[s], err = seg.Compile(lv.db, []string{seg.InVar, seg.OutVar}, false, lv.opts); err != nil {
				return err
			}
			counts := make(map[[2]relstore.Value]int)
			rs.counts[s] = counts
			_, err = extract.Stream(rs.segs[s], func(row relstore.Row) error {
				pair := [2]relstore.Value{row[0], row[1]}
				if counts[pair] == 0 {
					if _, _, ok := w.Wire(s, row[0], row[1]); !ok {
						st.SkippedRows++
					}
				}
				counts[pair]++
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if lv.opts.MaxEdges > 0 && g.RepEdges() > lv.opts.MaxEdges {
		return core.ErrTooLarge
	}
	lv.g = g
	lv.rules = rules
	lv.stats.SkippedRows += st.SkippedRows
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
		for si, seg := range rs.segs {
			deltas, err := segmentDelta(seg, t, ch.Row, ch.Op == relstore.OpInsert, lv.opts.ExecOpts)
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
			if src, virt, ok := rs.wiring.Wire(k.seg, k.pair[0], k.pair[1]); ok {
				touched.addSource(lv.g, src, virt)
			} else {
				lv.stats.SkippedRows++
			}
			lv.stats.Transitions++
		case old > 0 && now == 0:
			rs.wiring.Unwire(k.seg, k.pair[0], k.pair[1], func(src int32, virt bool) {
				touched.addSource(lv.g, src, virt)
			})
			lv.stats.Transitions++
		}
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
