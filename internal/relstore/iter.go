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
// row, a join holds its build side, distinct holds its seen-set. Nor does
// a row cost an allocation on its way through: operators write their
// output into one reused scratch row, and only the operators that keep a
// row copy it. The
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
//   - Rows are borrowed. A row returned by Next stays valid only until the
//     next Next or Close on that iterator: an operator builds each output
//     row in one scratch row it reuses, and a source may hand out table
//     storage. Callers never mutate a row, and a caller that keeps one
//     past that point copies it (RowSlab, RowSet.AddCopy) — distinct's
//     seen-set, the join builds and Collect do, and nothing else does.
//     Under the borrowpoison build tag (tests only) every scratch-row
//     operator overwrites the row it last handed out at its next Next and
//     at Close, so a keeper that forgot to copy reads garbage.
//   - Source iterators capture their row-slice headers at construction
//     (for the lazy build/gather stages: at first Next, which is before
//     the pipeline has yielded any row). Rows appended to a table while a
//     pipeline drains are invisible to it — the semi-naive loop relies on
//     exactly this to evaluate a recursive body against the pre-insert
//     state while inserting head tuples. Deletes do NOT enjoy this
//     guarantee (table and index storage shifts in place); drain or close
//     pipelines before deleting from their source tables.
//   - Order is deterministic: every stage pulls one source row at a time
//     and hands on the output rows it makes of it, in order, before it
//     pulls the next.

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

// Collect drains it into a materialized relation of copied rows, closes
// it, and returns the relation — the single materialization boundary of a
// pipeline. On a mid-stream error the pipeline is still closed and the
// error returned.
func Collect(it RowIter) (*Rel, error) {
	out := &Rel{Cols: append([]string(nil), it.Cols()...)}
	var slab RowSlab
	for {
		row, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out.Rows = append(out.Rows, slab.Copy(row))
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

// poison overwrites a row its operator handed out, under the borrowpoison
// build tag only; in every normal build it compiles to nothing.
func poison(row Row) {
	if borrowPoison {
		for i := range row {
			row[i] = poisoned
		}
	}
}

// poisoned is the value poison writes: a string no test data holds.
var poisoned = StrVal("\x00poisoned: a borrowed row was kept")

// selectIter is the scan kernel: constant-predicate filter, repeated-
// variable equality filter, then projection of idx under the output
// schema, written into one scratch row. Shared by the table walk, the
// index-bucket walk, NewSelect and NewProject's plain form.
type selectIter struct {
	cols       []string
	src        RowIter
	preds      []Pred
	equalities [][2]int
	idx        []int // output column i is source column idx[i]
	out        Row   // the scratch row, allocated at the first output row
	closed     bool
}

func (it *selectIter) Cols() []string { return it.cols }

func (it *selectIter) Next() (Row, bool, error) {
	poison(it.out)
next:
	for {
		row, ok, err := it.src.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		if !holds(row, it.preds) {
			continue
		}
		for _, eq := range it.equalities {
			if !row[eq[0]].Equal(row[eq[1]]) {
				continue next
			}
		}
		if it.out == nil {
			it.out = make(Row, len(it.idx))
		}
		for i, c := range it.idx {
			it.out[i] = row[c]
		}
		return it.out, true, nil
	}
}

func (it *selectIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	poison(it.out)
	return it.src.Close()
}

// holds reports whether row satisfies every constant predicate.
func holds(row Row, preds []Pred) bool {
	for _, p := range preds {
		if !row[p.Col].Equal(p.Value) {
			return false
		}
	}
	return true
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
		return traced(&selectIter{cols: outCols, src: src, preds: rest, idx: cols}, sp), nil
	}
	return traced(&selectIter{cols: outCols, src: IterRows(nil, t.Rows), preds: preds, idx: cols}, sp), nil
}

// bucketIter walks index entries' rows in slice order, without copying
// them: one bucket's (in seq = table order), or the table join's entries
// gathered from several buckets and sorted by seq. The slice header is
// captured at construction: concurrent inserts append (or replace the map
// value) and stay invisible.
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
	it := &selectIter{cols: append([]string(nil), names...), src: IterRows(nil, rows),
		preds: preds, equalities: equalities, idx: cols}
	if opts.Trace == nil {
		return it
	}
	return traced(it, opts.Trace.StartSpan("select", ""))
}

// NewFilter streams src through a row predicate, keeping the schema. A
// kept row is src's own, handed on as it came.
func NewFilter(src RowIter, opts ExecOpts, keep func(Row) bool) RowIter {
	it := &filterIter{src: src, keep: keep}
	if opts.Trace == nil {
		return it
	}
	return traced(it, opts.Trace.StartSpan("filter", ""))
}

// filterIter implements NewFilter.
type filterIter struct {
	src    RowIter
	keep   func(Row) bool
	closed bool
}

func (it *filterIter) Cols() []string { return it.src.Cols() }

func (it *filterIter) Next() (Row, bool, error) {
	for {
		row, ok, err := it.src.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		if it.keep(row) {
			return row, true, nil
		}
	}
}

func (it *filterIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	return it.src.Close()
}

// buildProbeIter is the one streaming binary operator behind NewJoin,
// NewCross and NewTableJoin: the build input drains into a grouped copy
// (drainGroups) at the first Next, before any output row exists, then a
// probe cursor streams against it. The probe side is either an input
// given at construction or, for a table join, the access path that
// openTable picks once the build's size is known. The build rows (and a
// table join's gathered index entries) are tracked as operator-resident
// until Close.
type buildProbeIter struct {
	cols  []string
	build RowIter
	probe RowIter // the given probe input; nil for a table join
	// on and probeOn are the join key's columns in the build and probe
	// rows; fromBuild and fromProbe place their columns in the output. A
	// table join's probe rows are its scan projection (names-indexed).
	on, probeOn          []int
	fromBuild, fromProbe []colMove
	table                tableProbe // a table join's probe side; table.t is nil otherwise
	opts                 ExecOpts
	inner                *joinIter
	held                 int
	failed               error
	closed               bool
}

// tableProbe is what a table join knows of its probe side before the
// build has drained: the table, the candidate index and the scan that
// NewScan would run over it.
type tableProbe struct {
	t     *Table
	ix    *Index // candidate index; nil when no shared column has one or IndexOff
	pk    int    // ix indexes the table column of shared column pk
	preds []Pred
	tCols []int
	names []string
	span  *obs.Span // records the deferred access-path choice; may be nil
}

func (it *buildProbeIter) Cols() []string { return it.cols }

func (it *buildProbeIter) Next() (Row, bool, error) {
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

// start drains and charges the build, then opens the probe cursor over it.
func (it *buildProbeIter) start() error {
	build, err := drainGroups(it.build, it.on)
	// The drained build input is closed here, once, so what it held (an
	// early distinct's seen-set) is released before the build rows are
	// charged; Close skips it from now on.
	if cerr := it.build.Close(); err == nil {
		err = cerr
	}
	it.build = nil
	if err != nil {
		return err
	}
	it.held = build.n
	it.opts.Tracker.Acquire(it.held)
	if it.table.t != nil {
		return it.openTable(build)
	}
	it.inner = &joinIter{cols: it.cols, probe: it.probe, build: build, key: it.probeOn,
		fromBuild: it.fromBuild, fromProbe: it.fromProbe}
	return nil
}

// openTable opens a table join's probe side over its drained build: a
// scan of the table, or the index buckets matching the build's keys when
// 2·|build| ≤ the index's distinct keys (or IndexForce).
func (it *buildProbeIter) openTable(build *rowGroups) error {
	tp := &it.table
	tp.span.Set("build_rows", int64(build.n))
	if tp.ix == nil || (it.opts.UseIndex != IndexForce && 2*build.n > tp.ix.NKeys()) {
		tp.span.SetStrategy("scan")
		scanOpts := it.opts
		if scanOpts.UseIndex == IndexForce {
			scanOpts.UseIndex = IndexAuto
		}
		// The inner scan is an implementation detail of this operator's
		// scan path; suppress its span so the table join is one node, not
		// two.
		scanOpts.Trace = nil
		scan, err := NewScan(tp.t, tp.preds, tp.tCols, tp.names, scanOpts)
		if err != nil {
			return err
		}
		it.inner = &joinIter{cols: it.cols, probe: scan, build: build, key: it.probeOn,
			fromBuild: it.fromBuild, fromProbe: it.fromProbe}
		return nil
	}
	tp.span.SetStrategy("index")
	// Gather the matching table rows and restore table order: sequence
	// numbers are assigned in insertion order and deletions preserve
	// relative order, so sorting by seq reproduces the order a scan of t
	// would have produced. Buckets match on the indexed column only; the
	// build probe below checks the whole join key. Each distinct value of
	// that column is looked up once: with a one-column key the build's
	// groups are exactly those values, with a wider one the groups are
	// collapsed onto that column first.
	kc := it.on[tp.pk]
	keys := &build.set
	if len(it.on) > 1 {
		keys = NewRowSet(it.on[tp.pk:tp.pk+1], keys.Len())
		for g := 0; g < build.set.Len(); g++ {
			keys.Add(build.set.Row(g))
		}
	}
	n := 0
	for g := 0; g < keys.Len(); g++ {
		n += len(tp.ix.bucket(keys.Row(g)[kc]))
	}
	entries := make([]indexEntry, 0, n)
	for g := 0; g < keys.Len(); g++ {
		entries = append(entries, tp.ix.bucket(keys.Row(g)[kc])...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	it.opts.Tracker.Acquire(len(entries))
	it.held += len(entries)
	// The gathered entries are whole table rows, so the scan-side moves and
	// the join key read table columns instead of projection positions.
	fromTable := make([]colMove, len(it.fromProbe))
	for i, m := range it.fromProbe {
		fromTable[i] = colMove{m.dst, tp.tCols[m.src]}
	}
	tn := make([]int, len(it.probeOn))
	for k, j := range it.probeOn {
		tn[k] = tp.tCols[j]
	}
	it.inner = &joinIter{cols: it.cols, probe: &bucketIter{bucket: entries}, build: build,
		key: tn, preds: tp.preds, fromBuild: it.fromBuild, fromProbe: fromTable}
	return nil
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
	} else if it.probe != nil {
		if e := it.probe.Close(); err == nil {
			err = e
		}
	}
	return err
}

// joinIter is the probe side of every join: a cursor over (probe row,
// matched build group) that builds one output row per match in its
// scratch row. The probe row it holds is the probe input's own, valid
// until the cursor pulls the next one, which it does only once the
// group is used up.
type joinIter struct {
	cols  []string
	probe RowIter
	build *rowGroups
	key   []int  // the join key's columns in the probe rows
	preds []Pred // constant predicates a probe row must pass first
	// fromBuild and fromProbe place the build and probe rows' columns in
	// the output row.
	fromBuild, fromProbe []colMove
	prow                 Row
	group                [][]Value // prow's build matches not yet emitted
	out                  Row       // the scratch row, allocated at the first output row
	closed               bool
}

func (it *joinIter) Cols() []string { return it.cols }

func (it *joinIter) Next() (Row, bool, error) {
	poison(it.out)
	for len(it.group) == 0 {
		row, ok, err := it.probe.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		if holds(row, it.preds) {
			it.prow, it.group = row, it.build.lookup(row, it.key)
		}
	}
	if it.out == nil {
		it.out = make(Row, len(it.cols))
	}
	b := it.group[0]
	it.group = it.group[1:]
	for _, m := range it.fromBuild {
		it.out[m.dst] = b[m.src]
	}
	for _, m := range it.fromProbe {
		it.out[m.dst] = it.prow[m.src]
	}
	return it.out, true, nil
}

func (it *joinIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	poison(it.out)
	it.prow, it.group = nil, nil
	return it.probe.Close()
}

// colMove copies input column src to output position dst.
type colMove struct{ dst, src int }

// joinShape resolves a join's output schema. The natural schema is left's
// columns followed by right's minus the drop-flagged (join key) ones.
// keep, when non-nil, names the output columns instead — any subset of
// the natural schema, in any order — and joinIter builds each joined row
// directly in that shape, so a column nothing downstream reads is never
// copied and no wide row is built to be re-projected.
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

// NewJoin streams the equi-join of a and b on all shared column names (a
// composite key): a (the build side) drains into a hash table, b (the
// probe side) streams through it. The output schema is keep, or with a
// nil keep the natural one: a's columns then b's minus the shared ones.
// Rows come in b-major order with a's row order inside each b row. An
// empty shared list is an error — explicit cross products use NewCross.
func NewJoin(a, b RowIter, shared, keep []string, opts ExecOpts) (RowIter, error) {
	acols, bcols := a.Cols(), b.Cols()
	fail := func(err error) (RowIter, error) {
		closeAll(a, b)
		return nil, err
	}
	if len(shared) == 0 {
		return fail(fmt.Errorf("relstore: join of %v with %v has no shared columns (use NewCross for an explicit cross product)", acols, bcols))
	}
	ai := make([]int, len(shared))
	bi := make([]int, len(shared))
	bKey := make([]bool, len(bcols))
	for k, c := range shared {
		i, ok := colIndex(acols, c)
		if !ok {
			return fail(fmt.Errorf("relstore: join column %q not in left relation %v", c, acols))
		}
		j, ok := colIndex(bcols, c)
		if !ok {
			return fail(fmt.Errorf("relstore: join column %q not in right relation %v", c, bcols))
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
		sp = opts.Trace.StartSpan("join", strings.Join(shared, ",")+keepDetail(keep))
		sp.SetStrategy("hash build=left")
	}
	return traced(&buildProbeIter{cols: cols, build: a, probe: b, on: ai, probeOn: bi,
		fromBuild: fromA, fromProbe: fromB, opts: opts}, sp), nil
}

// NewCross streams the cross product: a drains, b streams, one output
// row per (a row, b row) pair in b-major order. It is the hash join on
// the empty key, whose one group is all of a.
func NewCross(a, b RowIter, opts ExecOpts) RowIter {
	cols, fromA, fromB, _ := joinShape(a.Cols(), b.Cols(), make([]bool, len(b.Cols())), nil)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("cross", "")
		sp.SetStrategy("build=left")
	}
	return traced(&buildProbeIter{cols: cols, build: a, probe: b,
		fromBuild: fromA, fromProbe: fromB, opts: opts}, sp)
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
// ones — in table-major order with cur's row order inside. The drain, the
// access-path choice and (on the index path) the bucket gather all happen
// at the first Next — before any output row, so recursive bodies still
// observe the pre-insert table state through the captured storage.
func NewTableJoin(cur RowIter, t *Table, preds []Pred, cols []int, names []string, shared, keep []string, opts ExecOpts) (RowIter, error) {
	fail := func(err error) (RowIter, error) {
		closeAll(cur)
		return nil, err
	}
	if err := validateScan(t, preds, cols, names); err != nil {
		return fail(err)
	}
	curCols := cur.Cols()
	ci := make([]int, len(shared))
	ni := make([]int, len(shared))
	nShared := make([]bool, len(names))
	for k, c := range shared {
		i, ok := colIndex(curCols, c)
		if !ok {
			return fail(fmt.Errorf("relstore: join column %q not in left relation %v", c, curCols))
		}
		j, ok := colIndex(names, c)
		if !ok {
			return fail(fmt.Errorf("relstore: join column %q not in projection %v", c, names))
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
		return fail(fmt.Errorf("relstore: table join: IndexForce with no index on %s for join key %v", t.Name, shared))
	}
	outCols, fromCur, fromScan, err := joinShape(curCols, names, nShared, keep)
	if err != nil {
		return fail(err)
	}
	var sp *obs.Span
	if opts.Trace != nil {
		// The access-path choice is deferred until the build side has
		// drained; openTable records it on this span when it happens.
		sp = opts.Trace.StartSpan("table_join", t.Name+" on "+strings.Join(shared, ",")+keepDetail(keep))
	}
	return traced(&buildProbeIter{cols: outCols, build: cur, on: ci, probeOn: ni,
		fromBuild: fromCur, fromProbe: fromScan, opts: opts,
		table: tableProbe{t: t, ix: ix, pk: pk, preds: preds, tCols: cols, names: names, span: sp}}, sp), nil
}

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
		return traced(newDistinctIter(outCols, src, idx, opts, sp), sp), nil
	}
	return traced(&selectIter{cols: outCols, src: src, idx: idx}, sp), nil
}

// NewDistinct streams src minus every row equal to an earlier one, in
// stream order: the early duplicate elimination a pipeline places behind
// a join whose output was pruned to fewer columns than it computed. A
// duplicate costs a probe and nothing else; a survivor is copied into the
// (tracked) seen-set, since the row src handed out is borrowed.
func NewDistinct(src RowIter, opts ExecOpts) RowIter {
	cols := src.Cols()
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("project", strings.Join(cols, ","))
		sp.SetStrategy("distinct early")
	}
	return traced(newDistinctIter(cols, src, identityCols(len(cols)), opts, sp), sp)
}

// distinctIter is the streaming SELECT DISTINCT projection. The seen-set
// keeps each survivor's projection, copied into slab; the row handed on
// is a scratch copy of it, so a borrowed row is all distinct ever hands
// out.
type distinctIter struct {
	cols   []string
	src    RowIter
	idx    []int
	seen   *RowSet // the survivors, keyed on all their columns
	slab   RowSlab
	out    Row // the scratch row, allocated at the first survivor
	opts   ExecOpts
	span   *obs.Span // records rows in at Close; may be nil
	in     int64
	held   int
	closed bool
}

func newDistinctIter(cols []string, src RowIter, idx []int, opts ExecOpts, sp *obs.Span) *distinctIter {
	return &distinctIter{cols: cols, src: src, idx: idx, opts: opts, span: sp,
		seen: NewRowSet(identityCols(len(idx)), 0)}
}

func (it *distinctIter) Cols() []string { return it.cols }

func (it *distinctIter) Next() (Row, bool, error) {
	poison(it.out)
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
		kept := it.slab.copyAt(row, it.idx)
		it.seen.put(slot, kept)
		it.opts.Tracker.Acquire(1)
		it.held++
		if it.out == nil {
			it.out = make(Row, len(kept))
		}
		copy(it.out, kept)
		return it.out, true, nil
	}
}

func (it *distinctIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	poison(it.out)
	it.span.Set("rows_in", it.in)
	it.opts.Tracker.Release(it.held)
	it.held = 0
	it.seen, it.slab = nil, RowSlab{}
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
