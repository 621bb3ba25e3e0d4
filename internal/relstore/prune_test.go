package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphgen/internal/obs"
)

// TestAppendRowKeyEncoding pins the key bytes themselves — index buckets
// are keyed by them, and a one-column row key is a bucket key plus its
// separator — over the values that have broken key encodings before:
// separators inside strings, digit-prefixed strings, int64 extremes.
func TestAppendRowKeyEncoding(t *testing.T) {
	row := []Value{IntVal(7), StrVal("a|b"), IntVal(-1 << 63), StrVal(""), StrVal("1|s2:x"), StrVal("i7")}
	for _, c := range []struct {
		cols []int
		want string
	}{
		{nil, "p|"},
		{[]int{0}, "p|i7|"},
		{[]int{1, 0}, "p|s3:a|b|i7|"},
		{[]int{2, 3}, "p|i-9223372036854775808|s0:|"},
		{[]int{4, 5, 5}, "p|s6:1|s2:x|s2:i7|s2:i7|"},
	} {
		prefix := []byte("p|")
		if got := string(AppendRowKey(prefix[:2:2], row, c.cols)); got != c.want {
			t.Errorf("cols %v: key %q, want %q", c.cols, got, c.want)
		}
	}
	for i, v := range row {
		if got, want := hashKey(v)+"|", string(AppendRowKey(nil, row, []int{i})); got != want {
			t.Errorf("%v: bucket key %q is not the one-column row key %q minus its separator", v, got, want)
		}
	}
	long := StrVal(strings.Repeat("x", 300))
	if got, want := hashKey(long), "s300:"+long.S; got != want {
		t.Errorf("long string: bucket key %q", got)
	}
}

// keepCases lists output column lists for a join whose natural schema is
// nat: nil, the full list, and random subsets in random order.
func keepCases(rng *rand.Rand, nat []string) [][]string {
	cases := [][]string{nil, append([]string{}, nat...), {}}
	for i := 0; i < 4; i++ {
		perm := rng.Perm(len(nat))
		keep := []string{}
		for _, p := range perm[:rng.Intn(len(nat)+1)] {
			keep = append(keep, nat[p])
		}
		cases = append(cases, keep)
	}
	return cases
}

// TestPrunedJoinEqualsProjectedJoin: for every join constructor and both
// table-join access paths, a join given an output column list returns row
// for row what projecting the natural join onto that list returns.
func TestPrunedJoinEqualsProjectedJoin(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		db := NewDB()
		left := randTable(t, db, rng, "L", []Column{{"a", Int}, {"b", Int}, {"s", String}}, 10+rng.Intn(40))
		right := randTable(t, db, rng, "R", []Column{{"b", Int}, {"s", String}, {"c", Int}}, 10+rng.Intn(40))
		if _, err := right.CreateIndex("b"); err != nil {
			t.Fatal(err)
		}
		lrel := &Rel{Cols: []string{"a", "b", "s"}, Rows: left.Rows}
		rrel := &Rel{Cols: []string{"b", "s", "c"}, Rows: right.Rows}
		rrelY := &Rel{Cols: []string{"y", "s2", "c"}, Rows: right.Rows}
		opts := ExecOpts{}
		preds := []Pred{{Col: 2, Value: IntVal(int64(rng.Intn(8)))}}[:rng.Intn(2)]

		joins := []struct {
			name string
			nat  []string
			mk   func(keep []string) (RowIter, error)
		}{
			{"join b", []string{"a", "b", "s", "c"}, func(keep []string) (RowIter, error) {
				return NewJoin(IterRel(lrel), IterRel(rrel), []string{"b", "s"}, keep, opts)
			}},
			{"hash_join b=y", []string{"a", "b", "s", "s2", "c"}, func(keep []string) (RowIter, error) {
				return NewHashJoin(IterRel(lrel), IterRel(rrelY), "b", "y", keep, opts)
			}},
			{"table_join scan", []string{"a", "b", "s", "c"}, func(keep []string) (RowIter, error) {
				o := opts
				o.UseIndex = IndexOff
				return NewTableJoin(IterRel(lrel), right, nil, []int{0, 2}, []string{"b", "c"}, []string{"b"}, keep, o)
			}},
			{"table_join index", []string{"a", "b", "s", "c"}, func(keep []string) (RowIter, error) {
				o := opts
				o.UseIndex = IndexForce
				return NewTableJoin(IterRel(lrel), right, preds, []int{2, 0}, []string{"c", "b"}, []string{"b"}, keep, o)
			}},
		}
		for _, j := range joins {
			for _, keep := range keepCases(rng, j.nat) {
				got, err := collect(j.mk(keep))
				if err != nil {
					t.Fatalf("trial %d %s keep %v: %v", trial, j.name, keep, err)
				}
				natural, err := j.mk(nil)
				if err != nil {
					t.Fatal(err)
				}
				cols := keep
				if keep == nil {
					cols = natural.Cols()
				}
				want, err := collect(NewProject(natural, cols, false, opts))
				if err != nil {
					t.Fatal(err)
				}
				rowsEqual(t, got, want, fmt.Sprintf("trial %d %s keep %v", trial, j.name, keep))
			}
		}
	}
	a := &Rel{Cols: []string{"k", "v"}}
	if _, err := NewJoin(IterRel(a), IterRel(a), []string{"k"}, []string{"nope"}, ExecOpts{}); err == nil {
		t.Fatal("join with an output column outside its natural schema succeeded")
	}
}

// TestDistinctKeepsFirstOccurrences: NewDistinct drops exactly the rows
// equal to an earlier one, passes survivors through unprojected, and
// keeps delimiter-twins apart.
func TestDistinctKeepsFirstOccurrences(t *testing.T) {
	rows := [][]Value{
		{StrVal("a|sb"), StrVal("c")},
		{StrVal("a"), StrVal("b|sc")},
		{StrVal("a|sb"), StrVal("c")},
		{StrVal("1"), StrVal("2")},
		{StrVal("a"), StrVal("b|sc")},
	}
	got, err := Collect(NewDistinct(IterRows([]string{"x", "y"}, rows), ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	want := &Rel{Cols: []string{"x", "y"}, Rows: [][]Value{rows[0], rows[1], rows[3]}}
	rowsEqual(t, got, want, "distinct")
	if &got.Rows[0][0] != &rows[0][0] {
		t.Error("NewDistinct copied a surviving row")
	}
}

// TestPrunedStageResourceContracts drives the pruned joins and the early
// distinct stage through a normal drain, an early Close after one row,
// and a mid-stream failure of either input. Whatever happens, Close must
// return every tracked row (current count 0) and close each input
// exactly once.
func TestPrunedStageResourceContracts(t *testing.T) {
	db := NewDB()
	rng := rand.New(rand.NewSource(77))
	tbl := randTable(t, db, rng, "T", []Column{{"k", Int}, {"w", Int}}, 60)
	if _, err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	mkRows := func(n int) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{IntVal(int64(i % 8)), IntVal(int64(i % 3))}
		}
		return rows
	}
	// Each shape builds a pipeline over one or two counting sources;
	// fail selects which of them (if any) ends in errMidStream.
	shapes := []struct {
		name  string
		build func(a, b *failIter, opts ExecOpts) (RowIter, error)
	}{
		{"distinct", func(a, b *failIter, opts ExecOpts) (RowIter, error) {
			b.Close() // unused input: count it as closed once
			return NewDistinct(a, opts), nil
		}},
		{"join+distinct", func(a, b *failIter, opts ExecOpts) (RowIter, error) {
			j, err := NewJoin(a, b, []string{"k"}, []string{"v"}, opts)
			if err != nil {
				return nil, err
			}
			return NewDistinct(j, opts), nil
		}},
		{"hash_join+distinct", func(a, b *failIter, opts ExecOpts) (RowIter, error) {
			j, err := NewHashJoin(a, b, "k", "k", []string{"v"}, opts)
			if err != nil {
				return nil, err
			}
			return NewDistinct(j, opts), nil
		}},
		{"table_join scan+distinct+join", func(a, b *failIter, opts ExecOpts) (RowIter, error) {
			opts.UseIndex = IndexOff
			j, err := NewTableJoin(a, tbl, nil, []int{0, 1}, []string{"k", "w"}, []string{"k"}, []string{"w"}, opts)
			if err != nil {
				b.Close()
				return nil, err
			}
			bw := &renamed{RowIter: b, cols: []string{"w", "u"}}
			return NewJoin(NewDistinct(j, opts), bw, []string{"w"}, []string{"u"}, opts)
		}},
		{"table_join index+distinct", func(a, b *failIter, opts ExecOpts) (RowIter, error) {
			b.Close()
			opts.UseIndex = IndexForce
			j, err := NewTableJoin(a, tbl, nil, []int{0, 1}, []string{"k", "w"}, []string{"k"}, []string{"v", "w"}, opts)
			if err != nil {
				return nil, err
			}
			return NewDistinct(j, opts), nil
		}},
	}
	for _, shape := range shapes {
		for _, mode := range []string{"drain", "early close", "fail a", "fail b"} {
			for _, traced := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/traced=%t", shape.name, mode, traced)
				a := &failIter{cols: []string{"k", "v"}, rows: mkRows(40)}
				b := &failIter{cols: []string{"k", "v"}, rows: mkRows(9)}
				switch mode {
				case "fail a":
					a.err = errMidStream
				case "fail b":
					b.err = errMidStream
				}
				tr := NewTracker()
				opts := ExecOpts{Tracker: tr}
				if traced {
					opts.Trace = obs.NewTrace()
				}
				it, err := shape.build(a, b, opts)
				if err != nil {
					t.Fatalf("%s: constructor: %v", label, err)
				}
				if mode == "early close" {
					if _, _, err := it.Next(); err != nil {
						t.Fatalf("%s: first Next: %v", label, err)
					}
				} else {
					for {
						_, ok, err := it.Next()
						if err != nil && !errors.Is(err, errMidStream) {
							t.Fatalf("%s: Next: %v", label, err)
						}
						if !ok {
							break
						}
					}
				}
				if err := it.Close(); err != nil {
					t.Fatalf("%s: Close: %v", label, err)
				}
				it.Close() // idempotent
				if cur := tr.cur.Load(); cur != 0 {
					t.Errorf("%s: tracker holds %d rows after Close", label, cur)
				}
				// A build side that fails mid-drain is never charged.
				if mode != "fail a" && tr.Peak() <= 0 {
					t.Errorf("%s: nothing was ever tracked", label)
				}
				if a.closed != 1 || b.closed != 1 {
					t.Errorf("%s: inputs closed a=%d b=%d times, want exactly once each", label, a.closed, b.closed)
				}
			}
		}
	}
}

// renamed presents an iterator under another schema.
type renamed struct {
	RowIter
	cols []string
}

func (r *renamed) Cols() []string { return r.cols }

// TestPrunedStageSpans: a pruned join's span names its output columns,
// and the early distinct stage is a project span with strategy
// "distinct early" carrying rows in and rows out.
func TestPrunedStageSpans(t *testing.T) {
	build := &Rel{Cols: []string{"k", "v"}, Rows: [][]Value{
		{IntVal(1), IntVal(10)}, {IntVal(2), IntVal(10)}, {IntVal(1), IntVal(10)},
	}}
	probe := &Rel{Cols: []string{"k", "w"}, Rows: [][]Value{{IntVal(1), IntVal(5)}, {IntVal(2), IntVal(5)}}}
	tr := obs.NewTrace()
	opts := ExecOpts{Trace: tr}
	j, err := NewJoin(IterRel(build), IterRel(probe), []string{"k"}, []string{"v", "w"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(NewDistinct(j, opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("distinct (v,w) rows = %d, want 1", len(out.Rows))
	}
	var join, early *obs.Span
	tr.Finish().Walk(func(s *obs.Span) {
		switch {
		case s.Op == "join":
			join = s
		case s.Op == "project" && s.Strategy == "distinct early":
			early = s
		}
	})
	if join == nil || join.Detail != "k -> v,w" || join.Rows != 3 {
		t.Errorf("join span = %+v, want detail %q and 3 rows", join, "k -> v,w")
	}
	if early == nil || early.Detail != "v,w" || early.Attrs["rows_in"] != 3 || early.Rows != 1 {
		t.Errorf("early distinct span = %+v, want detail v,w, rows_in 3, rows 1", early)
	}
}
