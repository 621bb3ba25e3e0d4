package graphgen

// Bodies whose atoms share no variable — two independent components, or a
// variable-free guard atom — have one meaning, the cross product of their
// components, whichever entry point evaluates them. Before the single
// conjunctive evaluator, Extract and ExtractLive rejected them ("rule body
// is disconnected") while ExtractProgram accepted the very same body as
// soon as a comparison routed it through the recursive evaluator.

import (
	"fmt"
	"maps"
	"testing"
)

type edge [2]int64

// edgesOf drains a graph's logical edges.
func edgesOf(g interface {
	Vertices() Iterator
	Neighbors(NodeID) Iterator
}) map[edge]bool {
	out := map[edge]bool{}
	for vs := g.Vertices(); ; {
		v, ok := vs.Next()
		if !ok {
			return out
		}
		for ns := g.Neighbors(v); ; {
			w, ok := ns.Next()
			if !ok {
				break
			}
			out[edge{int64(v), int64(w)}] = true
		}
	}
}

func TestDisconnectedBodyAgreesAcrossEntryPoints(t *testing.T) {
	// rows reads a table back as int64 tuples for the nested-loop oracles.
	rows := func(db *DB, name string) [][]int64 {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int64
		for _, r := range tbl.Rows {
			tuple := make([]int64, len(r))
			for i, v := range r {
				tuple[i] = v.I
			}
			out = append(out, tuple)
		}
		return out
	}
	cases := []struct {
		name string
		// body is the Edges rule body; comparison, when set, is appended
		// for ExtractProgram only (the extraction DSL has no comparisons).
		body, comparison string
		oracle           func(db *DB, compared bool) map[edge]bool
	}{
		{"disconnected", "R(A, X), S(B, Y)", "X < Y", func(db *DB, compared bool) map[edge]bool {
			out := map[edge]bool{}
			for _, r := range rows(db, "R") {
				for _, s := range rows(db, "S") {
					if !compared || r[1] < s[1] {
						out[edge{r[0], s[0]}] = true
					}
				}
			}
			return out
		}},
		{"ground guard", "R(A, B), Flag(1)", "A < B", func(db *DB, compared bool) map[edge]bool {
			out := map[edge]bool{}
			for _, r := range rows(db, "R") {
				for _, f := range rows(db, "Flag") {
					if f[0] == 1 && (!compared || r[0] < r[1]) {
						out[edge{r[0], r[1]}] = true
					}
				}
			}
			return out
		}},
		{"guard first", "Flag(1), R(A, X), S(B, X)", "A != B", func(db *DB, compared bool) map[edge]bool {
			out := map[edge]bool{}
			for _, f := range rows(db, "Flag") {
				for _, r := range rows(db, "R") {
					for _, s := range rows(db, "S") {
						if f[0] == 1 && r[1] == s[1] && (!compared || r[0] != s[0]) {
							out[edge{r[0], s[0]}] = true
						}
					}
				}
			}
			return out
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			node, _ := db.Create("Node", Column{Name: "id", Type: Int})
			r, _ := db.Create("R", Column{Name: "a", Type: Int}, Column{Name: "x", Type: Int})
			s, _ := db.Create("S", Column{Name: "b", Type: Int}, Column{Name: "y", Type: Int})
			flag, _ := db.Create("Flag", Column{Name: "v", Type: Int})
			for id := int64(1); id <= 5; id++ {
				node.Insert(IntVal(id))
			}
			for _, p := range [][2]int64{{1, 2}, {2, 3}, {4, 2}, {1, 2}} { // one duplicate row
				r.Insert(IntVal(p[0]), IntVal(p[1]))
			}
			for _, p := range [][2]int64{{3, 2}, {5, 4}, {2, 3}} {
				s.Insert(IntVal(p[0]), IntVal(p[1]))
			}
			flag.Insert(IntVal(1))
			flag.Insert(IntVal(7))

			query := fmt.Sprintf("Nodes(ID) :- Node(ID).\nEdges(A, B) :- %s.\n", c.body)
			compared := fmt.Sprintf("Nodes(ID) :- Node(ID).\nEdges(A, B) :- %s, %s.\n", c.body, c.comparison)
			engine := NewEngine(db)
			live, err := engine.ExtractLive(query)
			if err != nil {
				t.Fatalf("ExtractLive: %v", err)
			}
			defer live.Close()

			// drop removes self edges, which extraction does not keep.
			drop := func(es map[edge]bool) map[edge]bool {
				maps.DeleteFunc(es, func(e edge, _ bool) bool { return e[0] == e[1] })
				return es
			}
			check := func(step string) {
				t.Helper()
				want := drop(c.oracle(db, false))
				fresh, err := engine.Extract(query)
				if err != nil {
					t.Fatalf("%s: Extract: %v", step, err)
				}
				program, err := engine.ExtractProgram(query)
				if err != nil {
					t.Fatalf("%s: ExtractProgram: %v", step, err)
				}
				if err := live.Flush(); err != nil {
					t.Fatalf("%s: live flush: %v", step, err)
				}
				for name, got := range map[string]map[edge]bool{
					"Extract": edgesOf(fresh), "ExtractProgram": edgesOf(program), "ExtractLive": edgesOf(live),
				} {
					if !maps.Equal(got, want) {
						t.Fatalf("%s: %s has edges %v, nested-loop oracle has %v", step, name, got, want)
					}
				}
				if n := live.MaintenanceStats().Rebuilds; n != 0 {
					t.Fatalf("%s: live session fell back to %d rebuilds", step, n)
				}
				withComp, err := engine.ExtractProgram(compared)
				if err != nil {
					t.Fatalf("%s: ExtractProgram with %s: %v", step, c.comparison, err)
				}
				if got, want := edgesOf(withComp), drop(c.oracle(db, true)); !maps.Equal(got, want) {
					t.Fatalf("%s: with %s: edges %v, oracle %v", step, c.comparison, got, want)
				}
			}
			check("initial")
			if len(c.oracle(db, false)) == 0 {
				t.Fatal("the initial database extracts no edges: the comparison would be vacuous")
			}
			// Inserts and deletes on every component, including the guard
			// losing and regaining its support.
			steps := []struct {
				name string
				do   func() error
			}{
				{"insert R(5,4)", func() error { return r.Insert(IntVal(5), IntVal(4)) }},
				{"insert S(1,2)", func() error { return s.Insert(IntVal(1), IntVal(2)) }},
				{"delete R(1,2)", func() error { _, err := r.Delete(IntVal(1), IntVal(2)); return err }},
				{"insert Flag(1) again", func() error { return flag.Insert(IntVal(1)) }},
				{"delete Flag(1)", func() error { _, err := flag.Delete(IntVal(1)); return err }},
				{"delete Flag(1), the last", func() error { _, err := flag.Delete(IntVal(1)); return err }},
				{"delete S(3,2)", func() error { _, err := s.Delete(IntVal(3), IntVal(2)); return err }},
				{"insert Flag(1) back", func() error { return flag.Insert(IntVal(1)) }},
				{"delete R(1,2), the duplicate", func() error { _, err := r.Delete(IntVal(1), IntVal(2)); return err }},
			}
			for _, st := range steps {
				if err := st.do(); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				check("after " + st.name)
			}
		})
	}
}
