// Package incremental keeps an extracted condensed graph live as its source
// tables change (Section 3.4's update operations, generalized to updates of
// the *relational* side). Instead of re-running extraction after every
// tuple insert or delete — a dead end for a long-lived served graph — it
// maintains, per plan segment, a multiset count of the segment's (in, out)
// join pairs: open-addressed tables keyed on a pair of uint32 codes, which
// one reference-counted dictionary per session assigns to the endpoint
// values (counts.go). A single-tuple change contributes a delta multiset
// (computed by the counting delta rules in delta.go); count transitions 0 -> 1 and
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
// applied lazily in batch on the next read, netted per pair.
// Changes to tables referenced by Nodes rules fall back to a full
// rebuild — executed immediately on the mutating goroutine, the only place
// table reads cannot race later table writes — since node-set maintenance
// is out of scope (see docs/ARCHITECTURE.md for the limits).
//
// Reads: Live has no reader of its own by external ID. Live.Read applies
// pending deltas and hands the graph and its version to a callback under
// the read lock; the callback reads through core's Graph API (the
// graphapi adaptor in internal/core/api.go), the same code that answers a
// static graph. Besides Read, only FreezeVersioned (the analytics view),
// Version and Summarize read the graph.
package incremental

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	// Rebuilds is the number of full re-extractions (node-table changes,
	// delta-evaluation failures, and support counts out of int32 range).
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
	// CountEntries is the number of support counts held: the distinct
	// (in, out) pairs with support, summed over every segment of every
	// rule. CountBytes is what the counts occupy: the tables priced from
	// their capacities plus the endpoint dictionary (counts.go).
	CountEntries, CountBytes int64
}

// countDelta is one pending +-1 contribution to a segment pair count.
type countDelta struct {
	rule, seg int
	pair      [2]relstore.Value
	n         int
}

// netDelta is one flush's net change to a segment pair count: the sum of
// the pending deltas for the pair, the first of which is pending[at].
type netDelta struct {
	key       uint64 // code(in)<<32 | code(out)
	n         int64
	at        int32
	rule, seg int32
}

// ruleState is the maintenance state of one Edges rule: each plan segment
// compiled once as a bag plan, per-segment pair counts, and the wiring of
// pairs onto the graph.
type ruleState struct {
	segs   []*conj.Plan // aligned with the plan's segments
	counts []pairCounts // aligned with segs
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

	// mu guards g, rules, codes, net, stats, version, err and
	// rebuildDue; pendMu guards pending. Lock order: mu before pendMu.
	mu sync.RWMutex
	// graphlint:guardedby mu
	g *core.Graph
	// graphlint:guardedby mu
	rules []*ruleState
	// graphlint:guardedby mu
	codes *endpoints // the endpoint codes of every rule's counts
	// graphlint:guardedby mu
	net []netDelta // the flush's netting scratch, reused
	// graphlint:guardedby mu
	stats Stats
	// graphlint:guardedby mu
	version uint64
	// graphlint:guardedby mu
	err error // first unrecoverable maintenance error, surfaced by Flush/Err
	// graphlint:guardedby mu
	rebuildDue bool // a flush found a count out of range: rebuild at the next change

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
// changing Step-6 preprocessing, which SkipPreprocess configures and which
// has no effect here: live maintenance needs the condensed wiring to stay
// aligned with the per-segment counts. The logical edge set is unaffected. A virtual
// node that maintenance releases frees its slot for the next one it adds,
// so the graph grows with what it holds, not with the number of updates.
// Workers is ignored, here as in Extract. MaxEdges is enforced against the
// representation edge count at build and rebuild time (per-tuple
// maintenance never re-checks it). Comparisons are maintained like the
// joins they filter; a negated atom is rejected, because a change to the
// negated table has no delta rule.
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
	codes := newEndpoints()
	g, err := extract.Build(lv.db, lv.prog, lv.opts, &st, func(w *extract.Wiring, plan *extract.EdgePlan) error {
		nSegs := len(plan.Segments)
		rs := &ruleState{
			segs:   make([]*conj.Plan, nSegs),
			counts: make([]pairCounts, nSegs),
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
			counts := &rs.counts[s]
			_, err = extract.Stream(rs.segs[s], func(row relstore.Row) error {
				in, out := codes.code(row[0]), codes.code(row[1])
				old, _, ok := counts.add(uint64(in)<<32|uint64(out), 1)
				if !ok {
					return errCountRange
				}
				if old == 0 {
					codes.refs[in]++
					codes.refs[out]++
					if _, _, ok := w.Wire(s, row[0], row[1]); !ok {
						st.SkippedRows++
					}
				}
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
	lv.codes = codes
	lv.stats.SkippedRows += st.SkippedRows
	lv.err = nil
	lv.rebuildDue = false
	lv.version++
	return nil
}

// errCountRange is the failure of a support count that would leave the
// int32 range: past math.MaxInt32 supports, or below zero, which exact
// deltas never reach.
var errCountRange = errors.New("incremental: support count out of int32 range")

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
// exact. Node-table changes, delta-evaluation failures and the first
// change after a flush found a count out of range rebuild immediately,
// still on the mutating goroutine — the only place a full re-extraction's
// table reads cannot race later table writes.
func (lv *Live) onChange(t *relstore.Table, ch relstore.Change) {
	if lv.nodeTables[t] {
		lv.rebuildNow()
		return
	}
	var ds []countDelta
	lv.mu.RLock()
	failed := lv.rebuildDue
	for ri, rs := range lv.rules {
		if failed {
			break
		}
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
// aggregated per (rule, segment, pair) and applied in order of first
// appearance, so the application order (and thus virtual-node numbering)
// is deterministic; each 0<->1 transition is applied as edge surgery.
//
// A net change that would carry a count out of the int32 range fails the
// flush before any of it is applied: the graph stays as the last flush
// left it, Flush and Err report the failure, and the next change to a
// table rebuilds. The rebuild waits for the mutating goroutine because a
// flush runs on a reader's, where a re-extraction's table reads could
// race the tables' writer.
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
	net := lv.netPending(pending)
	for _, d := range net {
		if now := int64(lv.rules[d.rule].counts[d.seg].get(d.key)) + d.n; now < 0 || now > math.MaxInt32 {
			lv.releaseCodes(net, pending)
			lv.rebuildDue = true
			lv.err = fmt.Errorf("%w: serving the graph of an earlier state until the next change rebuilds it", errCountRange)
			return
		}
	}
	lv.viewMu.Lock()
	defer lv.viewMu.Unlock()
	var touched *rowSet
	if lv.view != nil {
		touched = &lv.touched
	}
	refs := lv.codes.refs
	zero := net[:0] // the pairs left without support, whose codes may be free
	for _, d := range net {
		pair, rs, seg := pending[d.at].pair, lv.rules[d.rule], int(d.seg)
		old, now, _ := rs.counts[seg].add(d.key, d.n)
		switch {
		case old == 0 && now > 0:
			refs[d.key>>32]++
			refs[uint32(d.key)]++
			if src, virt, ok := rs.wiring.Wire(seg, pair[0], pair[1]); ok {
				touched.addSource(lv.g, src, virt)
			} else {
				lv.stats.SkippedRows++
			}
			lv.stats.Transitions++
		case old > 0 && now == 0:
			refs[d.key>>32]--
			refs[uint32(d.key)]--
			rs.wiring.Unwire(seg, pair[0], pair[1], func(src int32, virt bool) {
				touched.addSource(lv.g, src, virt)
			})
			lv.stats.Transitions++
		}
		if now == 0 {
			zero = append(zero, d)
		}
	}
	lv.releaseCodes(zero, pending)
}

// netPending codes the pending pairs and nets their deltas per (rule,
// segment, pair), in order of first appearance, in the reused lv.net. A
// code assigned here starts without references: releaseCodes frees it
// again if its pair's count stays zero.
//
// graphlint:requires mu
func (lv *Live) netPending(pending []countDelta) []netDelta {
	net := lv.net[:0]
	for i, d := range pending {
		in, out := lv.codes.code(d.pair[0]), lv.codes.code(d.pair[1])
		net = append(net, netDelta{key: uint64(in)<<32 | uint64(out), n: int64(d.n), at: int32(i), rule: int32(d.rule), seg: int32(d.seg)})
	}
	if len(net) > 1 {
		slices.SortFunc(net, func(a, b netDelta) int {
			return cmp.Or(cmp.Compare(a.rule, b.rule), cmp.Compare(a.seg, b.seg), cmp.Compare(a.key, b.key), cmp.Compare(a.at, b.at))
		})
		k := 0
		for _, d := range net[1:] {
			if p := &net[k]; d.rule == p.rule && d.seg == p.seg && d.key == p.key {
				p.n += d.n
			} else {
				k++
				net[k] = d
			}
		}
		net = net[:k+1]
		slices.SortFunc(net, func(a, b netDelta) int { return cmp.Compare(a.at, b.at) })
	}
	if cap(net) <= maxNetScratch {
		lv.net = net
	}
	return net
}

// maxNetScratch bounds the netting scratch a session keeps between
// flushes: a bulk load's flush should not pin its size for good.
const maxNetScratch = 1 << 12

// releaseCodes frees the codes of the pairs of net that no count entry
// names any more.
//
// graphlint:requires mu
func (lv *Live) releaseCodes(net []netDelta, pending []countDelta) {
	for _, d := range net {
		pair := pending[d.at].pair
		lv.codes.release(pair[0])
		lv.codes.release(pair[1])
	}
}

// --- reads ---

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

// Read applies pending deltas, then calls fn with the live graph and its
// version under the read lock, so everything fn reads is one consistent
// state. fn reads g through core's Graph API (api.go), the same reader by
// external ID a static graph uses; it must neither keep g past its return
// nor mutate it, and must not call back into lv (the read lock is held).
func (lv *Live) Read(fn func(g *core.Graph, version uint64)) {
	lv.acquire()
	defer lv.mu.RUnlock()
	fn(lv.g, lv.version)
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
	st.CountBytes = lv.codes.bytes()
	for _, rs := range lv.rules {
		for i := range rs.counts {
			st.CountEntries += int64(rs.counts[i].n)
			st.CountBytes += rs.counts[i].bytes()
		}
	}
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
