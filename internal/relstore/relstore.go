// Package relstore is GraphGen's relational substrate: an in-memory
// relational engine with typed tables, a statistics catalog, secondary
// hash indexes (index.go), and the handful of operators graph extraction
// needs (scan, selection, projection, equi-join, distinct). It stands in
// for the PostgreSQL instance the paper runs against; the extraction
// planner only needs cardinalities and per-column distinct counts
// (pg_stats' n_distinct), which the catalog provides exactly, plus the
// index access paths PostgreSQL would answer equality predicates and
// equi-joins with, which NewScan and NewTableJoin choose under
// ExecOpts.UseIndex.
//
// Operators are pull-based RowIter pipelines (iter.go) drained by
// Collect. Each stage pulls one source row at a time through its kernel,
// so a pipeline returns its rows in one deterministic order. Every dedup and build map they keep — distinct's seen-set, the join
// builds — is a RowSet (rowtable.go), which hashes the key columns' Values
// in place instead of encoding them; so are conj's negation sets and the
// Datalog evaluator's derived-tuple sets.
package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Type is the type of a column.
type Type uint8

// Column types. Graph extraction joins on integer keys; string columns
// carry node properties.
const (
	Int Type = iota
	String
)

// Value is a single relational value: an int64 or a string.
type Value struct {
	I int64
	S string
	T Type
}

// IntVal returns an Int Value.
func IntVal(i int64) Value { return Value{I: i, T: Int} }

// StrVal returns a String Value.
func StrVal(s string) Value { return Value{S: s, T: String} }

// Equal reports whether two values are equal (same type and content).
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	if v.T == Int {
		return v.I == o.I
	}
	return v.S == o.S
}

// AppendKeyBytes appends an unambiguous encoding of v to b and returns the
// extended slice, for string keys over Values: integers render as digits,
// strings are length-prefixed, so a value containing a caller's separator
// byte can never shift content between key components. It is the key of
// the persistent index buckets (hashKey) and, through AppendRowKey, the
// encoding for any composite string key — extend it here, in one place,
// if Value ever grows a new type. A dedup or build set in memory needs no
// string at all: RowSet hashes the Values themselves. Callers encode into
// a reused buffer and probe a map with string(b), which does not allocate.
func (v Value) AppendKeyBytes(b []byte) []byte {
	if v.T == Int {
		return strconv.AppendInt(append(b, 'i'), v.I, 10)
	}
	b = append(strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10), ':')
	return append(b, v.S...)
}

// AppendRowKey appends the composite key of row's values at cols — each
// value's AppendKeyBytes encoding followed by '|' — to dst and returns the
// extended slice. Key equality is value equality on those columns, so a
// map probe needs no re-check.
func AppendRowKey(dst []byte, row []Value, cols []int) []byte {
	for _, c := range cols {
		dst = append(row[c].AppendKeyBytes(dst), '|')
	}
	return dst
}

// Compare totally orders two values: -1, 0, or +1. Ints order before
// Strings (a deterministic cross-type convention for the Datalog
// comparison literals); same-type values compare numerically or
// lexicographically.
func (v Value) Compare(o Value) int {
	if v.T != o.T {
		if v.T == Int {
			return -1
		}
		return 1
	}
	if v.T == Int {
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(v.S, o.S)
}

// String renders the value.
func (v Value) String() string {
	if v.T == Int {
		return fmt.Sprintf("%d", v.I)
	}
	return v.S
}

// Column describes a table column.
type Column struct {
	Name string
	Type Type
}

// ChangeOp discriminates the kinds of single-tuple changes a table emits.
type ChangeOp uint8

// Change operations.
const (
	// OpInsert is a tuple insertion.
	OpInsert ChangeOp = iota
	// OpDelete is a tuple deletion.
	OpDelete
)

// String renders the operation.
func (op ChangeOp) String() string {
	if op == OpInsert {
		return "insert"
	}
	return "delete"
}

// Change is one single-tuple mutation of a table, delivered to subscribers
// after the table has been updated (so subscribers observe the new state).
// Row is the stored tuple; subscribers must not mutate it.
type Change struct {
	Op  ChangeOp
	Row []Value
}

// Table is a named relation with a fixed schema and row storage. Tables
// have no internal locking: every mutation is serialized by the owning
// server's dbMu (see internal/server), which the external guard
// annotations below record — graphlint enforces the mutation choke
// point (methods of this package only), lockorder enforces the holding.
type Table struct {
	Name string
	Cols []Column
	// graphlint:guardedby external:dbMu
	Rows [][]Value

	// colIdx is immutable after NewTable (a free function — hence no
	// external guard: construction precedes sharing).
	colIdx map[string]int
	// stats
	// graphlint:guardedby external:dbMu
	statsDirty bool
	// graphlint:guardedby external:dbMu
	nDistinct []int
	// secondary hash indexes by column position (index.go), maintained
	// in notify before change-log subscribers run.
	// graphlint:guardedby external:dbMu
	indexes map[int]*Index
	// change log subscribers; nil entries are cancelled slots.
	// graphlint:guardedby external:dbMu
	subs []func(Change)
}

// NewTable creates an empty table.
func NewTable(name string, cols ...Column) *Table {
	t := &Table{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols)), statsDirty: true}
	for i, c := range cols {
		t.colIdx[strings.ToLower(c.Name)] = i
	}
	return t
}

// ColIndex returns the index of the named column.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.colIdx[strings.ToLower(name)]
	return i, ok
}

// Insert appends a row. The row must match the schema arity; types are
// trusted (the generators construct well-typed rows).
func (t *Table) Insert(row ...Value) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("relstore: %s: row arity %d, schema arity %d", t.Name, len(row), len(t.Cols))
	}
	t.Rows = append(t.Rows, row)
	t.statsDirty = true
	t.notify(Change{Op: OpInsert, Row: row})
	return nil
}

// Delete removes the first row equal to the given tuple (all columns) and
// reports whether one was found. Duplicate rows are legal in a relation
// here, so a single Delete removes exactly one copy — the change-log
// counterpart of one Insert.
func (t *Table) Delete(row ...Value) (bool, error) {
	if len(row) != len(t.Cols) {
		return false, fmt.Errorf("relstore: %s: row arity %d, schema arity %d", t.Name, len(row), len(t.Cols))
	}
	for i, r := range t.Rows {
		if RowsEqual(r, row) {
			t.Rows = append(t.Rows[:i], t.Rows[i+1:]...)
			t.statsDirty = true
			t.notify(Change{Op: OpDelete, Row: r})
			return true, nil
		}
	}
	return false, nil
}

// DeleteWhere removes every row for which pred returns true and returns the
// number removed. Subscribers receive one Change per removed row, in table
// order, each delivered after that row is gone.
func (t *Table) DeleteWhere(pred func(row []Value) bool) int {
	removed := 0
	for i := 0; i < len(t.Rows); {
		if !pred(t.Rows[i]) {
			i++
			continue
		}
		r := t.Rows[i]
		t.Rows = append(t.Rows[:i], t.Rows[i+1:]...)
		t.statsDirty = true
		removed++
		t.notify(Change{Op: OpDelete, Row: r})
	}
	return removed
}

// Subscribe registers fn to be called synchronously after every single-tuple
// change to the table, and returns a cancel function. Callbacks run on the
// mutating goroutine; the table is not safe for concurrent mutation, so
// callbacks never race with each other. Cancelled slots are reused, so
// repeated subscribe/cancel cycles do not grow the subscriber list.
func (t *Table) Subscribe(fn func(Change)) (cancel func()) {
	slot := -1
	for i, s := range t.subs {
		if s == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.subs = append(t.subs, fn)
		slot = len(t.subs) - 1
	} else {
		t.subs[slot] = fn
	}
	cancelled := false
	return func() {
		if !cancelled {
			cancelled = true
			t.subs[slot] = nil
		}
	}
}

// notify is the single-tuple mutation choke point: every index is brought
// up to date first, then the change-log subscribers run — so a subscriber
// (e.g. live-graph delta evaluation) that reads the table through an index
// always observes the post-change state, the same convention subscribers
// already rely on for the row storage itself.
func (t *Table) notify(ch Change) {
	for _, ix := range t.indexes {
		ix.apply(ch)
	}
	for _, fn := range t.subs {
		if fn != nil {
			fn(ch)
		}
	}
}

// RowsEqual reports whether two rows are element-wise equal.
func RowsEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// NumRows returns the table cardinality.
func (t *Table) NumRows() int { return len(t.Rows) }

// analyze recomputes per-column distinct counts (the catalog statistics the
// planner consults, PostgreSQL's pg_stats.n_distinct).
func (t *Table) analyze() {
	t.nDistinct = make([]int, len(t.Cols))
	for c := range t.Cols {
		if t.Cols[c].Type == Int {
			seen := make(map[int64]struct{}, len(t.Rows))
			for _, r := range t.Rows {
				seen[r[c].I] = struct{}{}
			}
			t.nDistinct[c] = len(seen)
		} else {
			seen := make(map[string]struct{}, len(t.Rows))
			for _, r := range t.Rows {
				seen[r[c].S] = struct{}{}
			}
			t.nDistinct[c] = len(seen)
		}
	}
	t.statsDirty = false
}

// NDistinct returns the number of distinct values in the named column.
// Indexed columns answer in O(1) from the incrementally-maintained bucket
// count (identical to the analyze result, since both count distinct
// values of the current rows); other columns fall back to the lazily
// recomputed catalog scan.
func (t *Table) NDistinct(col string) (int, error) {
	i, ok := t.ColIndex(col)
	if !ok {
		return 0, fmt.Errorf("relstore: %s has no column %q", t.Name, col)
	}
	if ix := t.indexes[i]; ix != nil {
		return ix.NKeys(), nil
	}
	if t.statsDirty {
		t.analyze()
	}
	return t.nDistinct[i], nil
}

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Create adds a new table to the database.
func (db *DB) Create(name string, cols ...Column) (*Table, error) {
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	t := NewTable(name, cols...)
	db.tables[key] = t
	return t, nil
}

// Attach registers an existing table under its name, sharing storage with
// every other DB it is attached to. The Datalog program evaluator uses this
// to build an overlay database: the base tables attached by reference plus
// freshly created temporary tables for the derived predicates, so the
// extraction planner can resolve both without copying any base rows. The
// overlay must not outlive mutations it does not observe — the evaluator
// builds, uses, and discards it within one evaluation.
func (db *DB) Attach(t *Table) error {
	key := strings.ToLower(t.Name)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("relstore: table %q already exists", t.Name)
	}
	db.tables[key] = t
	return nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("relstore: table %q not found", name)
	}
	return t, nil
}

// TableNames lists the tables in sorted order.
func (db *DB) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// TotalRows returns the sum of all table cardinalities.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += len(t.Rows)
	}
	return n
}
