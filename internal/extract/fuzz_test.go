package extract

import (
	"fmt"
	"maps"
	"testing"

	"graphgen/internal/relstore"
)

// FuzzExtractRows decodes a small bag database — vertices 1..n, a table
// R(a, m) whose rows repeat and name actors n+1 and n+2 that are no
// vertex, and a table T(m, n) of join-value pairs — and one of five plan
// shapes over it: the co-actor body R(A, M), R(B, M) as one direct segment
// or as two condensed ones, and the chain R(A, M), T(M, N), R(B, N) as one
// three-atom direct segment, as three condensed segments, or under the
// default planner. Extract's logical edges must equal a map-based
// evaluation of the body; where the shape is fixed, RepEdges must count
// each segment's distinct wired rows once and SkippedRows each segment's
// distinct rows whose real endpoint is no vertex once.
func FuzzExtractRows(f *testing.F) {
	f.Add([]byte{3, 9, 1, 0, 2, 0, 1, 0, 4, 0, 4, 1, 5, 1, 2, 1, 3, 2, 1, 2, 3, 0, 1, 1, 2, 2, 0, 0, 0})
	f.Add([]byte{4, 12, 1, 1, 1, 1, 2, 1, 6, 1, 6, 1, 3, 2, 4, 2, 3, 2, 5, 3, 5, 3, 1, 0, 2, 2, 4, 1, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 1})
	f.Add([]byte{2, 10, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 1, 1, 2, 1, 3, 1, 3, 1, 4, 1, 6, 0, 1, 1, 1, 0, 0, 1, 1, 2, 0})
	f.Add([]byte{5, 16, 1, 0, 2, 0, 3, 1, 4, 1, 5, 2, 6, 2, 7, 3, 8, 3, 1, 3, 2, 2, 3, 1, 4, 0, 7, 0, 8, 1, 1, 1, 5, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 3, 3})
	f.Add([]byte{1, 6, 1, 0, 1, 0, 2, 0, 3, 0, 2, 1, 3, 1, 3, 0, 1, 1, 0, 1, 0, 4, 1})
	f.Add([]byte{6, 20, 1, 0, 2, 0, 3, 0, 1, 1, 2, 1, 4, 1, 5, 2, 6, 2, 7, 2, 8, 3, 1, 3, 6, 3, 1, 0, 2, 0, 5, 2, 8, 3, 3, 1, 4, 0, 6, 0, 1, 1, 2, 1, 3, 2, 0, 2, 1, 3, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nVert := 1 + next()%6
		db := relstore.NewDB()
		create := func(name string, cols ...string) *relstore.Table {
			var cs []relstore.Column
			for _, c := range cols {
				cs = append(cs, relstore.Column{Name: c, Type: relstore.Int})
			}
			tbl, err := db.Create(name, cs...)
			if err != nil {
				t.Fatal(err)
			}
			return tbl
		}
		insert := func(tbl *relstore.Table, a, b int64) {
			if err := tbl.Insert(relstore.IntVal(a), relstore.IntVal(b)); err != nil {
				t.Fatal(err)
			}
		}
		actor := create("Actor", "id")
		for id := 1; id <= nVert; id++ {
			if err := actor.Insert(relstore.IntVal(int64(id))); err != nil {
				t.Fatal(err)
			}
		}
		r, tt := create("R", "a", "m"), create("T", "m", "n")
		var rRows, tRows [][2]int64
		for n := next() % 24; n > 0; n-- {
			row := [2]int64{int64(1 + next()%(nVert+2)), int64(next() % 4)}
			rRows = append(rRows, row)
			insert(r, row[0], row[1])
		}
		for n := next() % 8; n > 0; n-- {
			row := [2]int64{int64(next() % 4), int64(next() % 4)}
			tRows = append(tRows, row)
			insert(tt, row[0], row[1])
		}
		shape, selfLoops := next()%5, next()%2 == 1
		vertex := func(id int64) bool { return id >= 1 && id <= int64(nVert) }

		// The reference: each segment's distinct rows, and the body's
		// distinct (A, B) pairs.
		type pair = [2]int64
		set := func(rows []pair) map[pair]bool {
			s := map[pair]bool{}
			for _, p := range rows {
				s[p] = true
			}
			return s
		}
		memberships := set(rRows) // (a, m): segment 0's rows
		lastRows := map[pair]bool{}
		for p := range memberships {
			lastRows[pair{p[1], p[0]}] = true // (m, b): the last segment's rows
		}
		var body map[pair]bool
		src := "Nodes(ID) :- Actor(ID).\n"
		if shape < 2 {
			src += "Edges(A, B) :- R(A, M), R(B, M).\n"
			body = map[pair]bool{}
			for a := range memberships {
				for b := range memberships {
					if a[1] == b[1] {
						body[pair{a[0], b[0]}] = true
					}
				}
			}
		} else {
			src += "Edges(A, B) :- R(A, M), T(M, N), R(B, N).\n"
			body = map[pair]bool{}
			for a := range memberships {
				for mn := range set(tRows) {
					for b := range memberships {
						if a[1] == mn[0] && mn[1] == b[1] {
							body[pair{a[0], b[0]}] = true
						}
					}
				}
			}
		}
		wantEdges := map[[2]int64]struct{}{}
		for p := range body {
			if vertex(p[0]) && vertex(p[1]) && (selfLoops || p[0] != p[1]) {
				wantEdges[p] = struct{}{}
			}
		}
		// count splits a segment's distinct rows into wired and skipped:
		// ok says whether a row's real endpoints are vertices.
		count := func(rows map[pair]bool, ok func(pair) bool) (wired, skipped int64) {
			for p := range rows {
				if ok(p) {
					wired++
				} else {
					skipped++
				}
			}
			return wired, skipped
		}
		both := func(p pair) bool { return vertex(p[0]) && vertex(p[1]) }
		first := func(p pair) bool { return vertex(p[0]) }
		second := func(p pair) bool { return vertex(p[1]) }
		var wantRep, wantSkipped int64
		exact := true
		switch shape {
		case 0, 2: // one direct segment: the body's rows
			wantRep, wantSkipped = count(body, both)
		case 1, 3: // segment 0, (shape 3) the interior T rows, the last segment
			w0, s0 := count(memberships, first)
			w1, s1 := count(lastRows, second)
			wantRep, wantSkipped = w0+w1, s0+s1
			if shape == 3 {
				wantRep += int64(len(set(tRows)))
			}
		default:
			exact = false
		}

		label := fmt.Sprintf("shape %d selfLoops %t R %v T %v", shape, selfLoops, rRows, tRows)
		for _, oracle := range []bool{false, true} {
			opts := DefaultOptions()
			opts.ForceExpand = shape == 0 || shape == 2
			opts.ForceCondensed = shape == 1 || shape == 3
			opts.SelfLoops = selfLoops
			opts.SkipPreprocess = true
			if oracle {
				opts.ExecOpts = relstore.MaterializingOracle(opts.ExecOpts)
			}
			res, err := Extract(db, mustParse(t, src), opts)
			if err != nil {
				t.Fatalf("%s oracle=%t: %v", label, oracle, err)
			}
			if got := res.Graph.EdgeSetByID(); !maps.Equal(got, wantEdges) {
				t.Fatalf("%s oracle=%t: logical edges %v, want %v", label, oracle, got, wantEdges)
			}
			if st := res.Stats; exact && (st.RepEdges != wantRep || st.SkippedRows != wantSkipped) {
				t.Fatalf("%s oracle=%t: %d rep edges, %d skipped rows; want %d, %d",
					label, oracle, st.RepEdges, st.SkippedRows, wantRep, wantSkipped)
			}
		}
		// Step 6 changes the representation, never the logical edges.
		opts := DefaultOptions()
		opts.ForceCondensed = shape == 1 || shape == 3
		opts.SelfLoops = selfLoops
		res, err := Extract(db, mustParse(t, src), opts)
		if err != nil {
			t.Fatalf("%s with Step 6: %v", label, err)
		}
		if got := res.Graph.EdgeSetByID(); !maps.Equal(got, wantEdges) {
			t.Fatalf("%s with Step 6: logical edges %v, want %v", label, got, wantEdges)
		}
	})
}
