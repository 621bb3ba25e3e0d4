package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"graphgen/internal/obs"
)

// This file is the streaming operator layer: composable pull-based
// iterators over rows, each with a fixed output contract — schema and
// row-for-row order. Peak memory of a pipeline is what its operators
// *hold*, not the sum of every intermediate relation: a scan holds a
// row, a join holds its build side, distinct holds its seen-set. The
// equivalence suites (indexed==unindexed, semi-naive==naive, live==fresh,
// streaming==materializing) are the correctness oracle for every operator
// here.
//
// Contracts every iterator obeys:
//
//   - Pull model: Next returns (row, true, nil) per row; (nil, false, nil)
//     at exhaustion; (nil, false, err) on failure. After either false,
//     Next must not be called again.
//   - Close is idempotent, releases operator-held memory, and closes the
//     iterator's inputs. A constructor that returns an error has already
//     closed the inputs it was given; a constructor that succeeds owns
//     them. Consequently a pipeline has exactly one Close obligation: its
//     head. Collect discharges it.
//   - Rows handed out by Next may alias table storage or be shared with
//     other consumers; callers must not mutate them.
//   - Source iterators capture their row-slice headers at construction
//     (for the lazy build/gather stages: at first Next, which is before
//     the pipeline has yielded any row). Rows appended to a table while a
//     pipeline drains are invisible to it — the semi-naive loop relies on
//     exactly this to evaluate a recursive body against the pre-insert
//     state while inserting head tuples. Deletes do NOT enjoy this
//     guarantee (table and index storage shifts in place); drain or close
//     pipelines before deleting from their source tables.
//   - Order is deterministic: every stage pulls one source row at a time
//     through its kernel and hands on the kernel's output rows in order.

// Row is one tuple flowing through a pipeline.
type Row = []Value

// RowIter is the pull-based operator interface.
type RowIter interface {
	// Cols returns the output schema (caller-assigned column names,
	// usually Datalog variables). Stable across the iterator's lifetime.
	Cols() []string
	// Next returns the next row. ok=false ends the stream: with a nil
	// error it is exhausted, otherwise it failed. Either way the caller
	// must not call Next again (Close is still required).
	Next() (Row, bool, error)
	// Close releases operator-held memory and closes the inputs.
	// Idempotent.
	Close() error
}

// IndexMode selects the access path for table scans and table joins.
type IndexMode uint8

const (
	// IndexAuto costs the index path against the table walk (the rules
	// documented on NewScan and NewTableJoin) and picks the cheaper one.
	IndexAuto IndexMode = iota
	// IndexOff always walks the table.
	IndexOff
	// IndexForce requires an index and always probes it; constructors
	// error if no predicate/join column is indexed.
	IndexForce
)

// ExecOpts is the one execution context: the settings that cut across
// every layer that runs relational work. extract.Options and
// datalogeval.Options embed it, the Engine fills it once, and it is handed
// down untouched through conj.Plan.Exec to every operator constructor — a
// new cross-cutting setting is one field here. The zero value — auto index
// choice, no tracking, no tracing — is a sensible default.
type ExecOpts struct {
	// UseIndex selects the access path for scans and table joins. IndexOff
	// also stops the layers above from auto-creating indexes.
	UseIndex IndexMode
	// Tracker, when non-nil, accounts the rows operators hold materialized
	// (build sides, distinct seen-sets, bucket gathers — and, under the
	// materializing oracle, whole staged relations). Extraction and program
	// evaluation each install one when unset.
	Tracker *Tracker
	// Trace, when non-nil, collects the execution tree: one span per
	// operator constructed under these opts (kind, strategy, rows out, wall
	// time) under the container spans the layers push. Nil (the default) is
	// the zero-overhead fast path — constructors test this one pointer and
	// skip the span machinery entirely. A Trace belongs to
	// one call; it must not be shared across concurrent runs.
	Trace *obs.Trace
	// oracle is set only by MaterializingOracle.
	oracle bool
}

// MaterializingOracle returns o with the test oracle switched on: every
// conjunctive plan opened under the result materializes its pipeline after
// each operator (Materialize, tracked) and keeps every variable to the end
// with one late distinct — the operator-at-a-time execution the streaming
// and pruning equivalence suites compare against, and the peak-memory
// baseline. It is a helper for tests and benchmarks inside this module, not
// a mode: no option, flag or public API reaches it.
func MaterializingOracle(o ExecOpts) ExecOpts {
	o.oracle = true
	return o
}

// Oracle reports whether MaterializingOracle switched the test oracle on;
// conj.Plan.Open is its one reader.
func (o ExecOpts) Oracle() bool { return o.oracle }

// Tracker accounts materialized intermediate rows across a pipeline (or
// several: extraction shares one tracker across all segment pipelines of
// a plan). Acquire/Release are cheap atomics so concurrent pipelines can
// share one; Peak is the high-water mark that lands in extraction and
// Datalog EvalStats as PeakIntermediateRows. A nil *Tracker is valid and counts
// nothing.
type Tracker struct {
	cur, peak atomic.Int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Acquire records n rows becoming operator-resident.
func (t *Tracker) Acquire(n int) {
	if t == nil || n == 0 {
		return
	}
	c := t.cur.Add(int64(n))
	for {
		p := t.peak.Load()
		if c <= p || t.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Release records n rows being dropped.
func (t *Tracker) Release(n int) {
	if t == nil || n == 0 {
		return
	}
	t.cur.Add(-int64(n))
}

// Peak returns the high-water mark of resident rows.
func (t *Tracker) Peak() int64 {
	if t == nil {
		return 0
	}
	return t.peak.Load()
}

// Collect drains it into a materialized relation, closes it, and returns
// the relation — the single materialization boundary of a pipeline. On a
// mid-stream error the pipeline is still closed and the error returned.
func Collect(it RowIter) (*Rel, error) {
	out := &Rel{Cols: append([]string(nil), it.Cols()...)}
	for {
		row, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out.Rows = append(out.Rows, row)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Materialize eagerly drains it, tracks the materialized rows against tr
// until the returned iterator is closed, and replays the rows. This is
// the materializing oracle's stage boundary (MaterializingOracle):
// interposing Materialize after every operator reproduces the old
// operator-at-a-time execution — and its peak-memory profile — exactly.
func Materialize(it RowIter, tr *Tracker) (RowIter, error) {
	rel, err := Collect(it)
	if err != nil {
		return nil, err
	}
	n := len(rel.Rows)
	tr.Acquire(n)
	return &sliceIter{cols: rel.Cols, rows: rel.Rows, onClose: func() { tr.Release(n) }}, nil
}

// IterRel returns an iterator replaying a materialized relation.
func IterRel(r *Rel) RowIter { return &sliceIter{cols: r.Cols, rows: r.Rows} }

// IterRows returns an iterator replaying rows under the given schema.
func IterRows(cols []string, rows [][]Value) RowIter {
	return &sliceIter{cols: cols, rows: rows}
}

// sliceIter replays a row slice captured at construction.
type sliceIter struct {
	cols    []string
	rows    [][]Value
	pos     int
	onClose func()
	closed  bool
}

func (it *sliceIter) Cols() []string { return it.cols }

func (it *sliceIter) Next() (Row, bool, error) {
	if it.pos >= len(it.rows) {
		return nil, false, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, true, nil
}

func (it *sliceIter) Close() error {
	if !it.closed {
		it.closed = true
		if it.onClose != nil {
			it.onClose()
		}
	}
	return nil
}

// closeAll closes every non-nil input; used by constructors on their
// error paths so a failed constructor leaves no Close obligation behind.
func closeAll(its ...RowIter) {
	for _, it := range its {
		if it != nil {
			it.Close()
		}
	}
}

// expandIter streams src through a pure per-row expansion kernel (emit
// zero or more output rows per input row): it reads one source row, runs
// the kernel, and hands on what it emitted before reading the next.
type expandIter struct {
	cols   []string
	src    RowIter
	fn     func(Row, func(Row))
	emit   func(Row)
	buf    [][]Value
	bufPos int
	closed bool
}

func newExpandIter(cols []string, src RowIter, fn func(Row, func(Row))) *expandIter {
	it := &expandIter{cols: cols, src: src, fn: fn}
	it.emit = func(r Row) { it.buf = append(it.buf, r) }
	return it
}

func (it *expandIter) Cols() []string { return it.cols }

func (it *expandIter) Next() (Row, bool, error) {
	for {
		if it.bufPos < len(it.buf) {
			r := it.buf[it.bufPos]
			it.bufPos++
			return r, true, nil
		}
		row, ok, err := it.src.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		it.buf, it.bufPos = it.buf[:0], 0
		it.fn(row, it.emit)
	}
}

func (it *expandIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.buf = nil
	return it.src.Close()
}

// selectFn is the scan kernel: constant-predicate filter, repeated-
// variable equality filter, then projection of cols under the output
// schema. Shared by the table walk, the index-bucket walk, and NewSelect.
func selectFn(preds []Pred, equalities [][2]int, cols []int) func(Row, func(Row)) {
	return func(row Row, emit func(Row)) {
		for _, p := range preds {
			if !row[p.Col].Equal(p.Value) {
				return
			}
		}
		for _, eq := range equalities {
			if !row[eq[0]].Equal(row[eq[1]]) {
				return
			}
		}
		proj := make([]Value, len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		emit(proj)
	}
}

// NewScan streams a table scan: equality predicates pushed into the row
// walk, projecting the listed column indexes under the given names. The
// access path follows opts.UseIndex. IndexAuto costs the two: an equality
// predicate over a column with d distinct values touches ~N/d rows
// through the index versus all N for the table walk, so the index wins
// once d reaches 2 — the average bucket then holds at most half the table
// — and the choice depends on the data alone. IndexForce
// requires an indexed predicate column and walks the most selective
// bucket (the driving predicate needs no re-check — the bucket key
// encoding is injective). IndexOff always walks the table. All paths
// yield identical rows in table order.
func NewScan(t *Table, preds []Pred, cols []int, names []string, opts ExecOpts) (RowIter, error) {
	if err := validateScan(t, preds, cols, names); err != nil {
		return nil, err
	}
	useIndex := false
	ix, pi := (*Index)(nil), -1
	if opts.UseIndex != IndexOff {
		ix, pi = bestIndexedPred(t, preds)
		switch opts.UseIndex {
		case IndexForce:
			if ix == nil {
				return nil, fmt.Errorf("relstore: IndexScan of %s: no index on any predicate column", t.Name)
			}
			useIndex = true
		case IndexAuto:
			useIndex = ix != nil && ix.NKeys() >= 2
		}
	}
	outCols := append([]string(nil), names...)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("scan", t.Name)
		if useIndex {
			sp.SetStrategy("index")
		} else {
			sp.SetStrategy("table")
		}
	}
	if useIndex {
		rest := make([]Pred, 0, len(preds)-1)
		for i, p := range preds {
			if i != pi {
				rest = append(rest, p)
			}
		}
		src := &bucketIter{bucket: ix.bucket(preds[pi].Value)}
		return traced(newExpandIter(outCols, src, selectFn(rest, nil, cols)), sp), nil
	}
	return traced(newExpandIter(outCols, IterRows(nil, t.Rows), selectFn(preds, nil, cols)), sp), nil
}

// bucketIter walks one index bucket's rows in seq (= table) order,
// without copying the bucket. The bucket slice header is captured at
// construction: concurrent inserts append (or replace the map value) and
// stay invisible.
type bucketIter struct {
	bucket []indexEntry
	pos    int
}

func (it *bucketIter) Cols() []string { return nil }

func (it *bucketIter) Next() (Row, bool, error) {
	if it.pos >= len(it.bucket) {
		return nil, false, nil
	}
	r := it.bucket[it.pos].row
	it.pos++
	return r, true, nil
}

func (it *bucketIter) Close() error { return nil }

// NewSelect streams selection+projection over an explicit row slice (a
// delta batch, a table's rows, a change-log window): constant predicates
// and repeated-variable equalities filter, cols project under names.
// This is the one-pass form of the wide-scan+filter+project sequence the
// pattern compilers used to materialize.
func NewSelect(rows [][]Value, preds []Pred, equalities [][2]int, cols []int, names []string, opts ExecOpts) RowIter {
	outCols := append([]string(nil), names...)
	it := newExpandIter(outCols, IterRows(nil, rows), selectFn(preds, equalities, cols))
	if opts.Trace == nil {
		return it
	}
	return traced(it, opts.Trace.StartSpan("select", ""))
}

// NewFilter streams src through a row predicate, keeping the schema.
func NewFilter(src RowIter, opts ExecOpts, keep func(Row) bool) RowIter {
	it := newExpandIter(src.Cols(), src, func(row Row, emit func(Row)) {
		if keep(row) {
			emit(row)
		}
	})
	if opts.Trace == nil {
		return it
	}
	return traced(it, opts.Trace.StartSpan("filter", ""))
}

// buildProbeIter is the shared shape of the streaming binary operators:
// the build input drains into operator state at the first Next (before
// any output row exists), then the probe input streams through a kernel
// constructed from the drained rows. The build rows are tracked as
// operator-resident until Close.
type buildProbeIter struct {
	cols         []string
	build, probe RowIter
	opts         ExecOpts
	mk           func(buildRows [][]Value) func(Row, func(Row))
	inner        RowIter
	held         int
	failed       error
	closed       bool
}

func (it *buildProbeIter) Cols() []string { return it.cols }

func (it *buildProbeIter) Next() (Row, bool, error) {
	if it.failed != nil {
		return nil, false, it.failed
	}
	if it.inner == nil {
		var rows [][]Value
		for {
			row, ok, err := it.build.Next()
			if err != nil {
				it.failed = err
				return nil, false, err
			}
			if !ok {
				break
			}
			rows = append(rows, row)
		}
		// The drained build input is closed here, once, so what it held
		// (an early distinct's seen-set) is released before the build
		// rows are charged; Close skips it from now on.
		err := it.build.Close()
		it.build = nil
		if err != nil {
			it.failed = err
			return nil, false, err
		}
		it.held = len(rows)
		it.opts.Tracker.Acquire(it.held)
		it.inner = newExpandIter(it.cols, it.probe, it.mk(rows))
	}
	return it.inner.Next()
}

func (it *buildProbeIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.opts.Tracker.Release(it.held)
	it.held = 0
	var err error
	if it.build != nil {
		err = it.build.Close()
	}
	if it.inner != nil {
		if e := it.inner.Close(); err == nil {
			err = e
		}
	} else if e := it.probe.Close(); err == nil {
		err = e
	}
	return err
}

// colMove copies input column src to output position dst.
type colMove struct{ dst, src int }

// joinShape resolves a join's output schema. The natural schema is left's
// columns followed by right's minus the drop-flagged (join key) ones.
// keep, when non-nil, names the output columns instead — any subset of
// the natural schema, in any order — and the kernels build each joined
// row directly in that shape (joinRow), so a column nothing downstream
// reads is never copied and no wide row is allocated to be re-projected.
// A name resolves to its first natural occurrence.
func joinShape(left, right []string, drop []bool, keep []string) (cols []string, fromLeft, fromRight []colMove, err error) {
	if keep == nil {
		cols = append(cols, left...)
		for i := range left {
			fromLeft = append(fromLeft, colMove{i, i})
		}
		for j, c := range right {
			if !drop[j] {
				fromRight = append(fromRight, colMove{len(cols), j})
				cols = append(cols, c)
			}
		}
		return cols, fromLeft, fromRight, nil
	}
	cols = append(cols, keep...)
next:
	for d, c := range keep {
		if i, ok := colIndex(left, c); ok {
			fromLeft = append(fromLeft, colMove{d, i})
			continue
		}
		for j, rc := range right {
			if rc == c && !drop[j] {
				fromRight = append(fromRight, colMove{d, j})
				continue next
			}
		}
		return nil, nil, nil, fmt.Errorf("relstore: output column %q not in join of %v with %v", c, left, right)
	}
	return cols, fromLeft, fromRight, nil
}

// keepDetail renders a pruned join's output column list for its span
// detail; a join left at its natural schema adds nothing.
func keepDetail(keep []string) string {
	if keep == nil {
		return ""
	}
	return " -> " + strings.Join(keep, ",")
}

// joinRow builds one n-column output row from a left and a right row.
func joinRow(n int, l, r Row, fromLeft, fromRight []colMove) Row {
	out := make([]Value, n)
	for _, m := range fromLeft {
		out[m.dst] = l[m.src]
	}
	for _, m := range fromRight {
		out[m.dst] = r[m.src]
	}
	return out
}

// NewJoin streams the equi-join of a and b on all shared column names (a
// composite key): a (the build side) drains into a hash table, b (the
// probe side) streams through it. The output schema is keep, or with a
// nil keep the natural one: a's columns then b's minus the shared ones.
// Rows come in b-major order with a's row order inside each b row. An
// empty shared list is an error — explicit cross products use NewCross.
func NewJoin(a, b RowIter, shared, keep []string, opts ExecOpts) (RowIter, error) {
	acols, bcols := a.Cols(), b.Cols()
	if len(shared) == 0 {
		closeAll(a, b)
		return nil, fmt.Errorf("relstore: join of %v with %v has no shared columns (use NewCross for an explicit cross product)", acols, bcols)
	}
	return newHashJoin(a, b, shared, shared, keep, opts, "join", strings.Join(shared, ","))
}

// NewHashJoin streams the equi-join of a and b on one column each (the
// names may differ; a's is kept). The output schema is keep, or with a
// nil keep a's columns then b's minus bCol; rows in b-major order.
func NewHashJoin(a, b RowIter, aCol, bCol string, keep []string, opts ExecOpts) (RowIter, error) {
	return newHashJoin(a, b, []string{aCol}, []string{bCol}, keep, opts, "hash_join", aCol+"="+bCol)
}

// newHashJoin is the build/probe hash join behind NewJoin and
// NewHashJoin: a's aOn columns pair positionally with b's bOn columns.
// op and detail label its span.
func newHashJoin(a, b RowIter, aOn, bOn, keep []string, opts ExecOpts, op, detail string) (RowIter, error) {
	acols, bcols := a.Cols(), b.Cols()
	fail := func(err error) (RowIter, error) {
		closeAll(a, b)
		return nil, err
	}
	ai := make([]int, len(aOn))
	bi := make([]int, len(bOn))
	bKey := make([]bool, len(bcols))
	for k := range aOn {
		i, ok := colIndex(acols, aOn[k])
		if !ok {
			return fail(fmt.Errorf("relstore: join column %q not in left relation %v", aOn[k], acols))
		}
		j, ok := colIndex(bcols, bOn[k])
		if !ok {
			return fail(fmt.Errorf("relstore: join column %q not in right relation %v", bOn[k], bcols))
		}
		ai[k], bi[k] = i, j
		bKey[j] = true
	}
	cols, fromA, fromB, err := joinShape(acols, bcols, bKey, keep)
	if err != nil {
		return fail(err)
	}
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan(op, detail+keepDetail(keep))
		sp.SetStrategy("hash build=left")
	}
	nOut := len(cols)
	return traced(&buildProbeIter{cols: cols, build: a, probe: b, opts: opts,
		mk: func(rows [][]Value) func(Row, func(Row)) {
			table := groupRows(rows, ai)
			return func(brow Row, emit func(Row)) {
				for _, arow := range table.lookup(brow, bi) {
					emit(joinRow(nOut, arow, brow, fromA, fromB))
				}
			}
		}}, sp), nil
}

// NewCross streams the cross product: a drains, b streams, one output
// row per (a row, b row) pair in b-major order.
func NewCross(a, b RowIter, opts ExecOpts) RowIter {
	cols := append(append([]string(nil), a.Cols()...), b.Cols()...)
	nOut := len(cols)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("cross", "")
		sp.SetStrategy("build=left")
	}
	return traced(&buildProbeIter{cols: cols, build: a, probe: b, opts: opts,
		mk: func(rows [][]Value) func(Row, func(Row)) {
			return func(brow Row, emit func(Row)) {
				for _, arow := range rows {
					joined := make([]Value, 0, nOut)
					joined = append(joined, arow...)
					joined = append(joined, brow...)
					emit(joined)
				}
			}
		}}, sp)
}

// NewTableJoin streams the equi-join of cur against the
// selection+projection of table t on the shared columns, deferring the
// access-path choice until cur has drained and its exact cardinality is
// known — the streaming form of the planner's index-vs-scan rule.
// preds/cols/names describe the t side exactly as for NewScan; each
// shared name must appear in names (bound to a table column) and in
// cur's schema.
//
// When a shared column's table column carries a persistent hash index
// (with several, the one with the most distinct keys), and 2·|cur| ≤ its
// distinct keys (or IndexForce), the probe gathers only the index buckets
// matching cur's values of that column, sorts them back into table order
// by sequence number, and streams those entries against the hash table on
// cur, which checks the remaining shared columns; otherwise t is scanned
// (NewScan with the same opts) and probed against the same hash table.
// Both paths produce identical output: the keep
// columns — with a nil keep, cur's columns then names minus the shared
// ones — in table-major order with cur's row order inside.
func NewTableJoin(cur RowIter, t *Table, preds []Pred, cols []int, names []string, shared, keep []string, opts ExecOpts) (RowIter, error) {
	if err := validateScan(t, preds, cols, names); err != nil {
		closeAll(cur)
		return nil, err
	}
	curCols := cur.Cols()
	ci := make([]int, len(shared))
	ni := make([]int, len(shared))
	nShared := make([]bool, len(names))
	for k, c := range shared {
		i, ok := colIndex(curCols, c)
		if !ok {
			closeAll(cur)
			return nil, fmt.Errorf("relstore: join column %q not in left relation %v", c, curCols)
		}
		j, ok := colIndex(names, c)
		if !ok {
			closeAll(cur)
			return nil, fmt.Errorf("relstore: join column %q not in projection %v", c, names)
		}
		ci[k], ni[k] = i, j
		nShared[j] = true
	}
	var ix *Index
	pk := 0 // position in shared of the column ix indexes
	if opts.UseIndex != IndexOff {
		for k, j := range ni {
			if c := t.indexes[cols[j]]; c != nil && (ix == nil || c.NKeys() > ix.NKeys()) {
				ix, pk = c, k
			}
		}
	}
	if opts.UseIndex == IndexForce && ix == nil {
		closeAll(cur)
		return nil, fmt.Errorf("relstore: table join: IndexForce with no index on %s for join key %v", t.Name, shared)
	}
	outCols, fromCur, fromScan, err := joinShape(curCols, names, nShared, keep)
	if err != nil {
		closeAll(cur)
		return nil, err
	}
	var sp *obs.Span
	if opts.Trace != nil {
		// The access-path choice is deferred until the build side has
		// drained; start() records it on this span when it happens.
		sp = opts.Trace.StartSpan("table_join", t.Name+" on "+strings.Join(shared, ",")+keepDetail(keep))
	}
	return traced(&tableJoinIter{cols: outCols, cur: cur, t: t, ix: ix,
		preds: preds, tCols: cols, names: names,
		ci: ci, ni: ni, pk: pk, fromCur: fromCur, fromScan: fromScan, opts: opts, span: sp}, sp), nil
}

// tableJoinIter implements NewTableJoin. The build drain, access-path
// decision, and (on the index path) bucket gather all happen at the
// first Next — before any output row, so recursive bodies still observe
// the pre-insert table state through the captured storage.
type tableJoinIter struct {
	cols   []string
	cur    RowIter
	t      *Table
	ix     *Index // candidate index; nil when no shared column has one or IndexOff
	preds  []Pred
	tCols  []int
	names  []string
	ci, ni []int // the shared columns' positions in cur's schema and in names
	pk     int   // ix indexes the table column of shared column pk
	// fromCur and fromScan place cur's and the scan projection's (names-
	// indexed) columns in the output row.
	fromCur, fromScan []colMove
	opts              ExecOpts
	span              *obs.Span // records the deferred access-path choice; may be nil

	inner  RowIter
	held   int
	failed error
	closed bool
}

func (it *tableJoinIter) Cols() []string { return it.cols }

func (it *tableJoinIter) Next() (Row, bool, error) {
	if it.failed != nil {
		return nil, false, it.failed
	}
	if it.inner == nil {
		if err := it.start(); err != nil {
			it.failed = err
			return nil, false, err
		}
	}
	return it.inner.Next()
}

func (it *tableJoinIter) start() error {
	var rows [][]Value
	for {
		row, ok, err := it.cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	// Closed here, once, for the reason buildProbeIter gives.
	err := it.cur.Close()
	it.cur = nil
	if err != nil {
		return err
	}
	build := groupRows(rows, it.ci)
	it.held = len(rows)
	it.opts.Tracker.Acquire(it.held)
	useIndex := it.ix != nil &&
		(it.opts.UseIndex == IndexForce || 2*len(rows) <= it.ix.NKeys())
	if useIndex {
		it.span.SetStrategy("index")
	} else {
		it.span.SetStrategy("scan")
	}
	it.span.Set("build_rows", int64(len(rows)))
	nOut, fromCur := len(it.cols), it.fromCur
	if useIndex {
		// Gather the matching table rows and restore table order:
		// sequence numbers are assigned in insertion order and deletions
		// preserve relative order, so sorting by seq reproduces the order
		// a scan of t would have produced. Buckets match on the indexed
		// column only; the build probe below checks the whole join key.
		// Each distinct value of that column is looked up once: with a
		// one-column key the build's groups are exactly those values, with
		// a wider one the groups are collapsed onto that column first.
		keys := &build.set
		if len(it.ci) > 1 {
			keys = NewRowSet(it.ci[it.pk:it.pk+1], keys.Len())
			for g := 0; g < build.set.Len(); g++ {
				keys.Add(build.set.Row(g))
			}
		}
		var entries []indexEntry
		for g := 0; g < keys.Len(); g++ {
			entries = append(entries, it.ix.bucket(keys.Row(g)[it.ci[it.pk]])...)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
		it.opts.Tracker.Acquire(len(entries))
		it.held += len(entries)
		// The gathered entries are whole table rows, so the scan-side
		// moves and the join key read table columns instead of projection
		// positions.
		fromTable := make([]colMove, len(it.fromScan))
		for i, m := range it.fromScan {
			fromTable[i] = colMove{m.dst, it.tCols[m.src]}
		}
		tn := make([]int, len(it.ni))
		for k, j := range it.ni {
			tn[k] = it.tCols[j]
		}
		preds := it.preds
		kernel := func(row Row, emit func(Row)) {
			for _, p := range preds {
				if !row[p.Col].Equal(p.Value) {
					return
				}
			}
			for _, crow := range build.lookup(row, tn) {
				emit(joinRow(nOut, crow, row, fromCur, fromTable))
			}
		}
		it.inner = newExpandIter(it.cols, &entrySliceIter{entries: entries}, kernel)
		return nil
	}
	scanOpts := it.opts
	if scanOpts.UseIndex == IndexForce {
		scanOpts.UseIndex = IndexAuto
	}
	// The inner scan is an implementation detail of this operator's scan
	// path; suppress its span so the table join is one node, not two.
	scanOpts.Trace = nil
	scan, err := NewScan(it.t, it.preds, it.tCols, it.names, scanOpts)
	if err != nil {
		return err
	}
	ni, fromScan := it.ni, it.fromScan
	kernel := func(brow Row, emit func(Row)) {
		for _, crow := range build.lookup(brow, ni) {
			emit(joinRow(nOut, crow, brow, fromCur, fromScan))
		}
	}
	it.inner = newExpandIter(it.cols, scan, kernel)
	return nil
}

func (it *tableJoinIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.opts.Tracker.Release(it.held)
	it.held = 0
	var err error
	if it.cur != nil {
		err = it.cur.Close()
	}
	if it.inner != nil {
		if e := it.inner.Close(); err == nil {
			err = e
		}
	}
	return err
}

// entrySliceIter streams gathered index entries' rows.
type entrySliceIter struct {
	entries []indexEntry
	pos     int
}

func (it *entrySliceIter) Cols() []string { return nil }

func (it *entrySliceIter) Next() (Row, bool, error) {
	if it.pos >= len(it.entries) {
		return nil, false, nil
	}
	r := it.entries[it.pos].row
	it.pos++
	return r, true, nil
}

func (it *entrySliceIter) Close() error { return nil }

// NewProject streams src restricted to the named columns, optionally
// deduplicating (SELECT DISTINCT). The distinct form holds one seen-set
// entry per distinct row (tracked); the plain form is a per-row
// projection.
func NewProject(src RowIter, cols []string, distinct bool, opts ExecOpts) (RowIter, error) {
	srcCols := src.Cols()
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := colIndex(srcCols, c)
		if !ok {
			closeAll(src)
			return nil, fmt.Errorf("relstore: project: column %q not in %v", c, srcCols)
		}
		idx[i] = j
	}
	outCols := append([]string(nil), cols...)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("project", strings.Join(cols, ","))
		if distinct {
			sp.SetStrategy("distinct")
		}
	}
	if distinct {
		return traced(newDistinctIter(outCols, src, idx, false, opts, sp), sp), nil
	}
	return traced(newExpandIter(outCols, src, func(row Row, emit func(Row)) {
		proj := make([]Value, len(idx))
		for i, j := range idx {
			proj[i] = row[j]
		}
		emit(proj)
	}), sp), nil
}

// NewDistinct streams src minus every row equal to an earlier one, in
// stream order: the early duplicate elimination a pipeline places behind
// a join whose output was pruned to fewer columns than it computed.
// Survivors pass through as they are, so the stage allocates nothing per
// row beyond its (tracked) seen-set.
func NewDistinct(src RowIter, opts ExecOpts) RowIter {
	cols := src.Cols()
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("project", strings.Join(cols, ","))
		sp.SetStrategy("distinct early")
	}
	return traced(newDistinctIter(cols, src, identityCols(len(cols)), true, opts, sp), sp)
}

// distinctIter is the streaming SELECT DISTINCT projection. whole marks
// the identity projection (NewDistinct): survivors are handed on as they
// are instead of being copied.
type distinctIter struct {
	cols   []string
	src    RowIter
	idx    []int
	whole  bool
	seen   *RowSet // the survivors, keyed on all their columns
	opts   ExecOpts
	span   *obs.Span // records rows in at Close; may be nil
	in     int64
	held   int
	closed bool
}

func newDistinctIter(cols []string, src RowIter, idx []int, whole bool, opts ExecOpts, sp *obs.Span) *distinctIter {
	return &distinctIter{cols: cols, src: src, idx: idx, whole: whole, opts: opts, span: sp,
		seen: NewRowSet(identityCols(len(idx)), 0)}
}

func (it *distinctIter) Cols() []string { return it.cols }

func (it *distinctIter) Next() (Row, bool, error) {
	for {
		row, ok, err := it.src.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		it.in++
		// The row is probed where its key columns sit; only a survivor is
		// projected, and the projection is what the set keeps.
		slot, g := it.seen.find(hashRow(row, it.idx), row, it.idx)
		if g >= 0 {
			continue
		}
		out := row
		if !it.whole {
			out = make([]Value, len(it.idx))
			for i, j := range it.idx {
				out[i] = row[j]
			}
		}
		it.seen.put(slot, out)
		it.opts.Tracker.Acquire(1)
		it.held++
		return out, true, nil
	}
}

func (it *distinctIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.span.Set("rows_in", it.in)
	it.opts.Tracker.Release(it.held)
	it.held = 0
	it.seen = nil
	return it.src.Close()
}

// identityCols returns the column list 0..n-1.
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// colIndex is Rel.ColIndex over a bare schema: exact, case-sensitive
// match (Datalog variables are case-sensitive).
func colIndex(cols []string, name string) (int, bool) {
	for i, c := range cols {
		if c == name {
			return i, true
		}
	}
	return 0, false
}
