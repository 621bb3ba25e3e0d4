package extract

import (
	"strings"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/relstore"
)

// TestLoadNodesSemantics pins what a Nodes rule leaves in the graph: which
// vertices it adds, in which slot order, and which property values win when
// one ID has several rows. Per ID, the last of its distinct rows in
// first-occurrence order wins, so (1,a),(1,b),(1,a) leaves b and a row
// identical to an earlier one changes nothing. Each case runs on the
// streaming pipeline and under relstore.MaterializingOracle.
func TestLoadNodesSemantics(t *testing.T) {
	type row = []relstore.Value
	i, s := relstore.IntVal, relstore.StrVal
	cases := []struct {
		name   string
		tables map[string][]row
		prog   string
		want   string // per slot: "ID key=value ..." in key order, one line each
		err    string
	}{
		{
			name:   "conflicting rows: the last distinct row wins",
			tables: map[string][]row{"P": {{i(1), s("a")}, {i(2), s("x")}, {i(1), s("b")}, {i(1), s("a")}}},
			prog:   "Nodes(ID, Name) :- P(ID, Name).",
			want:   "1 Name=b\n2 Name=x\n",
		},
		{
			name:   "a repeat of an earlier row changes nothing",
			tables: map[string][]row{"P": {{i(1), s("a")}, {i(1), s("b")}, {i(1), s("c")}, {i(1), s("b")}, {i(1), s("a")}, {i(3), s("z")}, {i(3), s("z")}}},
			prog:   "Nodes(ID, Name) :- P(ID, Name).",
			want:   "1 Name=c\n3 Name=z\n",
		},
		{
			name:   "identical repeated rows",
			tables: map[string][]row{"P": {{i(5), s("e")}, {i(4), s("d")}, {i(5), s("e")}, {i(4), s("d")}, {i(5), s("e")}}},
			prog:   "Nodes(ID, Name) :- P(ID, Name).",
			want:   "5 Name=e\n4 Name=d\n",
		},
		{
			name:   "an Int and a String that print alike are distinct rows",
			tables: map[string][]row{"P": {{i(1), i(5)}, {i(1), s("x")}, {i(1), s("5")}}},
			prog:   "Nodes(ID, V) :- P(ID, V).",
			want:   "1 V=5\n",
		},
		{
			name:   "a vertex first seen after the column types mixed",
			tables: map[string][]row{"P": {{i(1), i(5)}, {i(2), s("x")}, {i(2), i(7)}, {i(2), s("x")}}},
			prog:   "Nodes(ID, V) :- P(ID, V).",
			want:   "1 V=5\n2 V=7\n",
		},
		{
			name:   "a repeat of a row that printed like the winner changes nothing",
			tables: map[string][]row{"P": {{i(1), i(5)}, {i(1), s("5")}, {i(1), s("x")}, {i(1), s("5")}}},
			prog:   "Nodes(ID, V) :- P(ID, V).",
			want:   "1 V=x\n",
		},
		{
			name: "two rules share IDs: each rule's last distinct row wins over the earlier rule",
			tables: map[string][]row{
				"Instructor": {{i(1), s("ann")}, {i(2), s("bob")}},
				"Student":    {{i(2), s("bobby")}, {i(3), s("cat")}, {i(2), s("rob")}, {i(2), s("bobby")}, {i(1), s("ann")}},
			},
			prog: "Nodes(ID, Name) :- Instructor(ID, Name).\nNodes(ID, Name) :- Student(ID, Name).",
			want: "1 Name=ann\n2 Name=rob\n3 Name=cat\n",
		},
		{
			name: "the second rule's first row for a shared ID always sets it",
			tables: map[string][]row{
				"Instructor": {{i(1), s("ann")}, {i(1), s("amy")}},
				"Student":    {{i(1), s("ann")}},
			},
			prog: "Nodes(ID, Name) :- Instructor(ID, Name).\nNodes(ID, Name) :- Student(ID, Name).",
			want: "1 Name=ann\n",
		},
		{
			name: "a projection that drops a column: rows equal on the kept columns are one row",
			tables: map[string][]row{"Person": {
				{i(1), s("ann"), s("NZ")}, {i(1), s("ann"), s("UK")}, {i(2), s("bob"), s("US")},
				{i(1), s("amy"), s("UK")}, {i(1), s("ann"), s("FR")},
			}},
			prog: "Nodes(ID, Name) :- Person(ID, Name, Country).",
			want: "1 Name=amy\n2 Name=bob\n",
		},
		{
			name: "several property columns",
			tables: map[string][]row{"Person": {
				{i(7), s("ann"), s("NZ")}, {i(7), s("ann"), s("UK")}, {i(7), s("ann"), s("NZ")},
			}},
			prog: "Nodes(ID, Name, Country) :- Person(ID, Name, Country).",
			want: "7 Name=ann Country=UK\n",
		},
		{
			name: "a join body repeats IDs",
			tables: map[string][]row{
				"Author":    {{i(1), s("ann")}, {i(2), s("bob")}},
				"AuthorPub": {{i(1), i(10)}, {i(1), i(11)}, {i(2), i(10)}},
			},
			prog: "Nodes(ID, Name) :- Author(ID, Name), AuthorPub(ID, P).",
			want: "1 Name=ann\n2 Name=bob\n",
		},
		{
			name:   "no properties",
			tables: map[string][]row{"P": {{i(3), s("c")}, {i(1), s("a")}, {i(3), s("d")}}},
			prog:   "Nodes(ID) :- P(ID, Name).",
			want:   "3\n1\n",
		},
		{
			name:   "a non-Int ID is an error",
			tables: map[string][]row{"P": {{i(1), s("a")}, {s("two"), s("b")}}},
			prog:   "Nodes(ID, Name) :- P(ID, Name).",
			err:    "node ID attribute must be an integer column",
		},
	}
	for _, c := range cases {
		for _, materialize := range []bool{false, true} {
			db := relstore.NewDB()
			for name, rows := range c.tables {
				cols := make([]relstore.Column, len(rows[0]))
				for k := range cols {
					cols[k] = relstore.Column{Name: string(rune('a' + k)), Type: rows[0][k].T}
				}
				tab, err := db.Create(name, cols...)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					if err := tab.Insert(r...); err != nil {
						t.Fatal(err)
					}
				}
			}
			opts := DefaultOptions()
			if materialize {
				opts.ExecOpts = relstore.MaterializingOracle(opts.ExecOpts)
			}
			g := core.New(core.CDUP)
			var err error
			for _, rule := range mustParse(t, c.prog+"\nEdges(A, B) :- P0(A, B).").Nodes {
				if err = LoadNodes(db, g, rule, opts); err != nil {
					break
				}
			}
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Errorf("%s (materialize %v): error %v, want one containing %q", c.name, materialize, err, c.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (materialize %v): %v", c.name, materialize, err)
			}
			if got := nodeDump(g); got != c.want {
				t.Errorf("%s (materialize %v):\n got  %q\n want %q", c.name, materialize, got, c.want)
			}
		}
	}
}

// nodeDump lists g's real slots in order, each as its ID and its
// properties in the graph's key order.
func nodeDump(g *core.Graph) string {
	var sb strings.Builder
	for r := int32(0); int(r) < g.NumRealSlots(); r++ {
		sb.WriteString(relstore.IntVal(g.RealID(r)).String())
		g.ForEachProperty(r, func(k, v string) bool {
			sb.WriteString(" " + k + "=" + v)
			return true
		})
		sb.WriteString("\n")
	}
	return sb.String()
}
