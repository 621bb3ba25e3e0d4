package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refGroups is the string-keyed grouping RowSet replaced, kept as its
// oracle: each row's AppendRowKey encoding at the key columns indexes a
// map, and groups are numbered in order of first appearance.
type refGroups struct {
	ids     map[string]int
	gid     []int       // group of each input row
	members [][][]Value // each group's rows, in input order
}

func newRefGroups(rows [][]Value, cols []int) *refGroups {
	r := &refGroups{ids: make(map[string]int)}
	for _, row := range rows {
		k := string(AppendRowKey(nil, row, cols))
		g, ok := r.ids[k]
		if !ok {
			g = len(r.members)
			r.ids[k] = g
			r.members = append(r.members, nil)
		}
		r.gid = append(r.gid, g)
		r.members[g] = append(r.members[g], row)
	}
	return r
}

func (r *refGroups) find(row []Value, cols []int) int {
	if g, ok := r.ids[string(AppendRowKey(nil, row, cols))]; ok {
		return g
	}
	return -1
}

// sameRow reports whether a and b are the same row — the same storage,
// not merely equal values. Test rows always have at least one column.
func sameRow(a, b []Value) bool { return len(a) == len(b) && &a[0] == &b[0] }

// equalRow reports whether a and b hold Equal values, column by column.
func equalRow(a, b []Value) bool {
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

// groupRows drains rows into a join build keyed at cols, as the joins do.
func groupRows(t testing.TB, rows [][]Value, cols []int) *rowGroups {
	t.Helper()
	gr, err := drainGroups(IterRows(nil, rows), cols)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// checkRowSet files rows into a RowSet (for each of a few size hints) and
// into a join build (drainGroups), keyed at cols, and compares both with
// the reference: group ids and first-seen survivors for every Add, then
// for every probe (key values at probeCols) the group found, and the
// group's members — copies of the input rows, equal in value — and their
// order.
func checkRowSet(t testing.TB, rows [][]Value, cols []int, probes [][]Value, probeCols []int) *refGroups {
	t.Helper()
	ref := newRefGroups(rows, cols)
	for _, hint := range []int{0, 1, len(rows)} {
		set := NewRowSet(cols, hint)
		for i, row := range rows {
			g, added := set.Add(row)
			want := ref.gid[i]
			if g != want || added != sameRow(ref.members[want][0], row) {
				t.Fatalf("hint %d: Add(row %d %v) = group %d added %t, reference group %d (first row %v)",
					hint, i, row, g, added, want, ref.members[want][0])
			}
		}
		if set.Len() != len(ref.members) {
			t.Fatalf("hint %d: %d groups, reference %d", hint, set.Len(), len(ref.members))
		}
		for g, m := range ref.members {
			if !sameRow(set.Row(g), m[0]) {
				t.Fatalf("hint %d: group %d keeps %v, not its first row %v", hint, g, set.Row(g), m[0])
			}
		}
		for _, p := range probes {
			if got, want := set.Find(p, probeCols), ref.find(p, probeCols); got != want {
				t.Fatalf("hint %d: Find(%v at %v) = %d, reference %d", hint, p, probeCols, got, want)
			}
		}
	}
	gr := groupRows(t, rows, cols)
	for _, p := range probes {
		got := gr.lookup(p, probeCols)
		var want [][]Value
		if g := ref.find(p, probeCols); g >= 0 {
			want = ref.members[g]
		}
		if len(got) != len(want) {
			t.Fatalf("lookup(%v at %v): %d rows, reference %d", p, probeCols, len(got), len(want))
		}
		for i := range got {
			if !equalRow(got[i], want[i]) || len(got[i]) > 0 && sameRow(got[i], want[i]) {
				t.Fatalf("lookup(%v at %v): row %d is %v, reference %v (a copy)", p, probeCols, i, got[i], want[i])
			}
		}
	}
	return ref
}

// keyValues are the values that have broken key encodings before, or
// would break a hash that forgot the type: Int 5 against String "5", the
// empty string against Int 0, separators and encoding fragments inside
// strings, and the int64 extremes.
var keyValues = []Value{
	IntVal(5), StrVal("5"), IntVal(0), StrVal(""), StrVal("0"),
	StrVal("|"), StrVal(":"), StrVal("i5"), StrVal("s3:abc"), StrVal("i5|"),
	StrVal("s1:|"), StrVal("a|b"), StrVal("5|"), StrVal("s0:"),
	IntVal(math.MinInt64), IntVal(math.MaxInt64), IntVal(-1), IntVal(1 << 32),
}

// reshape returns a width-w row holding row's values at cols in positions
// at, in key order, and filler elsewhere: a probe whose key sits at other
// column positions than the build's.
func reshape(row []Value, cols []int, at []int, w int, filler Value) []Value {
	out := make([]Value, w)
	for i := range out {
		out[i] = filler
	}
	for k, c := range cols {
		out[at[k]] = row[c]
	}
	return out
}

func TestRowSetMatchesKeyMap(t *testing.T) {
	// One column, every special value: each its own group.
	var singles [][]Value
	for _, v := range keyValues {
		singles = append(singles, []Value{v}, []Value{v})
	}
	if ref := checkRowSet(t, singles, []int{0}, singles, []int{0}); len(ref.members) != len(keyValues) {
		t.Fatalf("%d groups over %d distinct values", len(ref.members), len(keyValues))
	}

	// Swapped columns: (a,b) and (b,a) are different keys unless a == b.
	var pairs [][]Value
	for _, a := range keyValues {
		for _, b := range keyValues {
			pairs = append(pairs, []Value{a, b})
		}
	}
	checkRowSet(t, pairs, []int{0, 1}, pairs, []int{1, 0})
	checkRowSet(t, pairs, []int{1, 0}, pairs, []int{0, 1})
	if ref := newRefGroups(pairs, []int{0, 1}); len(ref.members) != len(pairs) {
		t.Fatalf("%d pair groups over %d distinct pairs", len(ref.members), len(pairs))
	}

	// No key columns: one group holds every row.
	checkRowSet(t, pairs, nil, pairs[:3], nil)

	rng := rand.New(rand.NewSource(1))
	value := func(spread int) Value {
		switch rng.Intn(4) {
		case 0:
			return keyValues[rng.Intn(len(keyValues))]
		case 1:
			return StrVal(fmt.Sprint(rng.Intn(spread)))
		default:
			return IntVal(int64(rng.Intn(spread)))
		}
	}
	for trial := 0; trial < 60; trial++ {
		arity := 1 + rng.Intn(4)
		cols := make([]int, rng.Intn(arity+1))
		for k := range cols {
			cols[k] = rng.Intn(arity) // repeats allowed
		}
		spread := 2 + rng.Intn(30)
		n := 1 + rng.Intn(400)
		rows := make([][]Value, n)
		for i := range rows {
			if i > 0 && rng.Intn(3) == 0 {
				rows[i] = append([]Value(nil), rows[rng.Intn(i)]...)
				continue
			}
			rows[i] = make([]Value, arity)
			for c := range rows[i] {
				rows[i][c] = value(spread)
			}
		}
		w := len(cols) + 2
		at := rng.Perm(w)[:len(cols)]
		var probes [][]Value
		for _, row := range rows {
			probes = append(probes, reshape(row, cols, at, w, value(spread)))
			miss := reshape(row, cols, at, w, value(spread))
			for _, p := range at {
				if rng.Intn(2) == 0 {
					miss[p] = value(spread)
				}
			}
			probes = append(probes, miss)
		}
		checkRowSet(t, rows, cols, probes, at)
	}

	// Enough groups to cross many growth steps and chunk boundaries.
	var many [][]Value
	for i := 0; i < 12000; i++ {
		many = append(many, []Value{value(90), IntVal(int64(rng.Intn(60))), value(3)})
	}
	var probes [][]Value
	for _, row := range many {
		probes = append(probes, reshape(row, []int{0, 1}, []int{2, 0}, 3, IntVal(7)))
	}
	if ref := checkRowSet(t, many, []int{0, 1}, probes, []int{2, 0}); len(ref.members) < 3000 {
		t.Fatalf("only %d groups: the large case must cross chunk boundaries", len(ref.members))
	}
}

// TestRowGroupsConcurrentLookup probes one built table from several
// goroutines at once: a built table is read-only, so concurrent probes
// need no lock. Run it under -race.
func TestRowGroupsConcurrentLookup(t *testing.T) {
	var rows [][]Value
	for i := 0; i < 5000; i++ {
		rows = append(rows, []Value{IntVal(int64(i % 1700)), StrVal(fmt.Sprint(i % 3))})
	}
	gr := groupRows(t, rows, []int{0, 1})
	ref := newRefGroups(rows, []int{0, 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rows); i += 4 {
				probe := []Value{rows[i][1], rows[i][0]}
				if got, want := len(gr.lookup(probe, []int{1, 0})), len(ref.members[ref.gid[i]]); got != want {
					t.Errorf("row %d: %d group members, reference %d", i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// decodeRowSetInput turns fuzz bytes into a build relation, its key
// columns, and probe rows with the key at other positions. Every byte
// string decodes to something, so the fuzzer never wastes an input.
func decodeRowSetInput(data []byte) (rows [][]Value, cols []int, probes [][]Value, at []int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	value := func() Value {
		b := next()
		switch b % 4 {
		case 0:
			return keyValues[int(b>>2)%len(keyValues)]
		case 1:
			n := int(b>>2) % 5
			s := make([]byte, 0, n)
			for i := 0; i < n; i++ {
				s = append(s, "5|:is0ab"[next()%8])
			}
			return StrVal(string(s))
		default:
			return IntVal(int64(b>>2) - 20)
		}
	}
	arity := 1 + int(next()%4)
	cols = make([]int, int(next())%(arity+1))
	for k := range cols {
		cols[k] = int(next()) % arity
	}
	w := len(cols) + 1
	at = rand.New(rand.NewSource(int64(next()))).Perm(w)[:len(cols)]
	for len(data) > 0 {
		row := make([]Value, arity)
		for c := range row {
			row[c] = value()
		}
		rows = append(rows, row)
		probes = append(probes, reshape(row, cols, at, w, value()))
		if len(rows) > 1 {
			// This row's values in even columns, the previous row's in odd
			// ones: a hit only where the two agree on the key.
			prev, mixed := rows[len(rows)-2], append([]Value(nil), row...)
			for c := 1; c < arity; c += 2 {
				mixed[c] = prev[c]
			}
			probes = append(probes, reshape(mixed, cols, at, w, prev[0]))
		}
	}
	if len(rows) == 0 {
		rows = [][]Value{{IntVal(0)}}
		cols, at = []int{0}, []int{0}
	}
	return rows, cols, probes, at
}

// FuzzRowSet checks RowSet and the join builds against the AppendRowKey map
// reference on decoded relations (corpus in testdata/fuzz/FuzzRowSet).
func FuzzRowSet(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 1, 4, 1, 8})
	f.Add([]byte{2, 2, 0, 1, 3, 4, 8, 8, 4, 12, 12, 1, 5, 9, 5})
	f.Add([]byte{3, 3, 2, 0, 1, 7, 56, 60, 64, 60, 56, 64, 2, 6, 10, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, probes, at := decodeRowSetInput(data)
		checkRowSet(t, rows, cols, probes, at)
	})
}
