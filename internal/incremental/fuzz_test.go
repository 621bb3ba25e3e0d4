package incremental

import (
	"fmt"
	"testing"

	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// fuzzQuery is a two-layer co-occurrence graph: X and Y are connected when
// X is a member of group A, A links to group B, and Y is a member of B.
// Under ForceCondensed both joins are large, so A and B become two layers
// of virtual nodes and Link rows are virtual-to-virtual edges.
const fuzzQuery = `
Nodes(ID, Name) :- Person(ID, Name).
Edges(X, Y) :- Member(X, A), Link(A, B), Member(Y, B).
`

// FuzzLiveView decodes its input into a sequence of tuple inserts, deletes,
// re-inserts of the last deleted tuple and node-table changes on the
// fuzzQuery schema, two bytes per op. The high bit of an op's first byte
// ends a batch: the live graph flushes, its view must equal a from-scratch
// Freeze (and the previous view must be unchanged), and its logical edges
// must equal a fresh extraction's.
func FuzzLiveView(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x80, 0x11, 0x01, 0x00, 0x83, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // long inputs add run time, not shapes
		}
		db := relstore.NewDB()
		person, _ := db.Create("Person",
			relstore.Column{Name: "id", Type: relstore.Int},
			relstore.Column{Name: "name", Type: relstore.String})
		member, _ := db.Create("Member",
			relstore.Column{Name: "person", Type: relstore.Int},
			relstore.Column{Name: "grp", Type: relstore.Int})
		link, _ := db.Create("Link",
			relstore.Column{Name: "a", Type: relstore.Int},
			relstore.Column{Name: "b", Type: relstore.Int})
		personRow := func(id int64) []relstore.Value {
			return []relstore.Value{relstore.IntVal(id), relstore.StrVal(fmt.Sprintf("p%d", id))}
		}
		var persons [7]bool
		for id := 1; id <= 5; id++ {
			person.Insert(personRow(int64(id))...)
			persons[id] = true
		}
		for i := int64(0); i < 8; i++ {
			member.Insert(relstore.IntVal(1+i%5), relstore.IntVal(10+i%3))
			link.Insert(relstore.IntVal(10+i%3), relstore.IntVal(10+(i*2)%4))
		}
		prog, err := datalog.Parse(fuzzQuery)
		if err != nil {
			t.Fatal(err)
		}
		opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
		lv, err := New(db, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer lv.Close()
		var views viewHistory
		var lastTable *relstore.Table
		var lastRow []relstore.Value
		deleteAt := func(tbl *relstore.Table, at byte) {
			if tbl.NumRows() == 0 {
				return
			}
			row := append([]relstore.Value(nil), tbl.Rows[int(at)%tbl.NumRows()]...)
			if ok, err := tbl.Delete(row...); err != nil || !ok {
				t.Fatalf("delete %v: ok=%v err=%v", row, ok, err)
			}
			lastTable, lastRow = tbl, row
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			var err error
			switch op & 0x7f % 6 {
			case 0: // persons 1..6 (6 is not a vertex until inserted), groups 10..13
				err = member.Insert(relstore.IntVal(int64(1+arg%6)), relstore.IntVal(int64(10+arg/6%4)))
			case 1:
				err = link.Insert(relstore.IntVal(int64(10+arg%4)), relstore.IntVal(int64(10+arg/4%4)))
			case 2:
				deleteAt(member, arg)
			case 3:
				deleteAt(link, arg)
			case 4: // re-insert the tuple deleted last
				if lastTable != nil {
					err = lastTable.Insert(lastRow...)
					lastTable = nil
				}
			case 5: // a node-table change: add or drop a person
				id := 1 + arg%6
				if persons[id] {
					_, err = person.Delete(personRow(int64(id))...)
				} else {
					err = person.Insert(personRow(int64(id))...)
				}
				persons[id] = !persons[id]
			}
			if err != nil {
				t.Fatal(err)
			}
			if op&0x80 != 0 {
				step := fmt.Sprintf("after op %d", i/2)
				views.check(t, lv, step)
				checkEquivalence(t, lv, db, prog, opts, step)
			}
		}
		views.check(t, lv, "final")
		checkEquivalence(t, lv, db, prog, opts, "final")
	})
}
