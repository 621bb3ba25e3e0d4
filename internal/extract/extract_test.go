package extract

import (
	"errors"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// dblpDB builds a toy DBLP-like database: 6 authors, 4 pubs.
func dblpDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	author, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ap, _ := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	names := []string{"ann", "bob", "cat", "dan", "eve", "fay"}
	for i, n := range names {
		author.Insert(relstore.IntVal(int64(i+1)), relstore.StrVal(n))
	}
	pubs := map[int64][]int64{
		100: {1, 2, 3},
		200: {1, 4},
		300: {3, 4, 5},
		400: {6},
	}
	for pid, authors := range pubs {
		for _, aid := range authors {
			ap.Insert(relstore.IntVal(aid), relstore.IntVal(pid))
		}
	}
	return db
}

const coauthors = `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
`

func mustParse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expectedCoauthorEdges is the hand-computed co-author edge set (no self
// loops, both directions).
func expectedCoauthorEdges() map[[2]int64]struct{} {
	pairs := [][2]int64{{1, 2}, {1, 3}, {2, 3}, {1, 4}, {3, 4}, {3, 5}, {4, 5}}
	set := make(map[[2]int64]struct{})
	for _, p := range pairs {
		set[[2]int64{p[0], p[1]}] = struct{}{}
		set[[2]int64{p[1], p[0]}] = struct{}{}
	}
	return set
}

func TestExtractCondensedCoauthors(t *testing.T) {
	db := dblpDB(t)
	opts := DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	res, err := Extract(db, mustParse(t, coauthors), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.NumRealNodes() != 6 {
		t.Fatalf("real nodes = %d, want 6", g.NumRealNodes())
	}
	if g.NumVirtualNodes() != 4 {
		t.Fatalf("virtual nodes = %d, want 4 (one per pub)", g.NumVirtualNodes())
	}
	if !g.Symmetric {
		t.Fatal("co-author chain should be detected as symmetric")
	}
	want := expectedCoauthorEdges()
	got := g.EdgeSetByID()
	if len(got) != len(want) {
		t.Fatalf("edges = %d, want %d: %v", len(got), len(want), got)
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			t.Fatalf("missing edge %v", e)
		}
	}
	// Properties from the Nodes statement.
	if name, ok := g.PropertyOf(1, "Name"); !ok || name != "ann" {
		t.Fatalf("property Name of node 1 = %q, %v", name, ok)
	}
	if res.Stats.LargeOutputJoins != 1 {
		t.Fatalf("large joins = %d, want 1", res.Stats.LargeOutputJoins)
	}
}

func TestExtractExpandedMatchesCondensed(t *testing.T) {
	db := dblpDB(t)
	condOpts := DefaultOptions()
	condOpts.ForceCondensed = true
	condOpts.SkipPreprocess = true
	cond, err := Extract(db, mustParse(t, coauthors), condOpts)
	if err != nil {
		t.Fatal(err)
	}
	expOpts := DefaultOptions()
	expOpts.ForceExpand = true
	exp, err := Extract(db, mustParse(t, coauthors), expOpts)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Graph.NumVirtualNodes() != 0 {
		t.Fatalf("forced expansion still has %d virtual nodes", exp.Graph.NumVirtualNodes())
	}
	cset, eset := cond.Graph.EdgeSetByID(), exp.Graph.EdgeSetByID()
	if len(cset) != len(eset) {
		t.Fatalf("condensed %d edges, expanded %d", len(cset), len(eset))
	}
	for e := range cset {
		if _, ok := eset[e]; !ok {
			t.Fatalf("edge %v missing from expansion", e)
		}
	}
}

func TestPlannerSelectivityDecision(t *testing.T) {
	// A key-foreign-key join (high distinct count) must be executed by
	// the database; the pub self-join (low distinct count, large output)
	// must be postponed. We build a DB where AuthorPub has very few
	// distinct pids so the self-join blows up.
	db := relstore.NewDB()
	author, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ap, _ := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	for i := int64(1); i <= 40; i++ {
		author.Insert(relstore.IntVal(i), relstore.StrVal("x"))
		ap.Insert(relstore.IntVal(i), relstore.IntVal(i%2)) // 2 giant pubs
	}
	res, err := Extract(db, mustParse(t, coauthors), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LargeOutputJoins != 1 || res.Stats.DatabaseJoins != 0 {
		t.Fatalf("stats = %+v, want the self-join postponed", res.Stats)
	}
	// 40*40/2 paths condensed into 2 virtual nodes with 80 edges.
	if res.Graph.NumVirtualNodes() != 2 {
		t.Fatalf("virtual nodes = %d, want 2", res.Graph.NumVirtualNodes())
	}
}

func TestPlannerHandsSmallJoinsToDatabase(t *testing.T) {
	// Unique pids: each pub has exactly one author, so the self-join is
	// small-output and the planner should expand it directly.
	db := relstore.NewDB()
	author, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ap, _ := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	for i := int64(1); i <= 30; i++ {
		author.Insert(relstore.IntVal(i), relstore.StrVal("x"))
		ap.Insert(relstore.IntVal(i), relstore.IntVal(1000+i))
	}
	res, err := Extract(db, mustParse(t, coauthors), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LargeOutputJoins != 0 {
		t.Fatalf("large joins = %d, want 0", res.Stats.LargeOutputJoins)
	}
	if res.Graph.NumVirtualNodes() != 0 {
		t.Fatalf("virtual nodes = %d, want 0", res.Graph.NumVirtualNodes())
	}
}

const tpchQuery = `
Nodes(ID, Name) :- Customer(ID, Name).
Edges(ID1, ID2) :- Orders(ok1, ID1), LineItem(ok1, pk), Orders(ok2, ID2), LineItem(ok2, pk).
`

func tpchDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	cust, _ := db.Create("Customer",
		relstore.Column{Name: "custkey", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	orders, _ := db.Create("Orders",
		relstore.Column{Name: "orderkey", Type: relstore.Int},
		relstore.Column{Name: "custkey", Type: relstore.Int})
	li, _ := db.Create("LineItem",
		relstore.Column{Name: "orderkey", Type: relstore.Int},
		relstore.Column{Name: "partkey", Type: relstore.Int})
	for c := int64(1); c <= 5; c++ {
		cust.Insert(relstore.IntVal(c), relstore.StrVal("c"))
	}
	// order o belongs to customer o%5+1; order o has items o%3 and o%4.
	for o := int64(1); o <= 12; o++ {
		orders.Insert(relstore.IntVal(o), relstore.IntVal(o%5+1))
		li.Insert(relstore.IntVal(o), relstore.IntVal(o%3))
		li.Insert(relstore.IntVal(o), relstore.IntVal(100+o%4))
	}
	return db
}

func TestExtractMultiLayerTPCH(t *testing.T) {
	db := tpchDB(t)
	opts := DefaultOptions()
	opts.ForceCondensed = true // postpone all three joins: 3-layer condensed graph
	opts.SkipPreprocess = true
	cond, err := Extract(db, mustParse(t, tpchQuery), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cond.Stats.LargeOutputJoins != 3 {
		t.Fatalf("large joins = %d, want 3", cond.Stats.LargeOutputJoins)
	}
	if got := cond.Graph.MaxLayer(); got != 3 {
		t.Fatalf("MaxLayer = %d, want 3", got)
	}
	if err := cond.Graph.VerifyDAG(); err != nil {
		t.Fatal(err)
	}
	expOpts := DefaultOptions()
	expOpts.ForceExpand = true
	exp, err := Extract(db, mustParse(t, tpchQuery), expOpts)
	if err != nil {
		t.Fatal(err)
	}
	cset, eset := cond.Graph.EdgeSetByID(), exp.Graph.EdgeSetByID()
	if len(cset) != len(eset) {
		t.Fatalf("condensed %d edges, expanded %d", len(cset), len(eset))
	}
	for e := range cset {
		if _, ok := eset[e]; !ok {
			t.Fatalf("edge %v missing", e)
		}
	}
}

const bipartite = `
Nodes(ID, Name) :- Instructor(ID, Name).
Nodes(ID, Name) :- Student(ID, Name).
Edges(ID1, ID2) :- TaughtCourse(ID1, c), TookCourse(ID2, c).
`

func TestExtractHeterogeneousBipartite(t *testing.T) {
	db := relstore.NewDB()
	inst, _ := db.Create("Instructor",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	stud, _ := db.Create("Student",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	taught, _ := db.Create("TaughtCourse",
		relstore.Column{Name: "iid", Type: relstore.Int},
		relstore.Column{Name: "cid", Type: relstore.Int})
	took, _ := db.Create("TookCourse",
		relstore.Column{Name: "sid", Type: relstore.Int},
		relstore.Column{Name: "cid", Type: relstore.Int})
	inst.Insert(relstore.IntVal(1), relstore.StrVal("prof1"))
	inst.Insert(relstore.IntVal(2), relstore.StrVal("prof2"))
	for s := int64(100); s < 104; s++ {
		stud.Insert(relstore.IntVal(s), relstore.StrVal("s"))
	}
	taught.Insert(relstore.IntVal(1), relstore.IntVal(7))
	taught.Insert(relstore.IntVal(2), relstore.IntVal(8))
	took.Insert(relstore.IntVal(100), relstore.IntVal(7))
	took.Insert(relstore.IntVal(101), relstore.IntVal(7))
	took.Insert(relstore.IntVal(102), relstore.IntVal(8))
	took.Insert(relstore.IntVal(103), relstore.IntVal(8))

	opts := DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	res, err := Extract(db, mustParse(t, bipartite), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.Symmetric {
		t.Fatal("bipartite graph must not be marked symmetric")
	}
	if g.NumRealNodes() != 6 {
		t.Fatalf("real nodes = %d, want 6", g.NumRealNodes())
	}
	// Directed edges instructor -> student only.
	got := g.EdgeSetByID()
	want := map[[2]int64]struct{}{
		{1, 100}: {}, {1, 101}: {}, {2, 102}: {}, {2, 103}: {},
	}
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			t.Fatalf("missing %v", e)
		}
	}
}

func TestExtractUnionOfEdgesStatements(t *testing.T) {
	// Two Edges statements: co-authors UNION explicit follows — the union
	// semantics of Section 4.2 ("the final constructed graph would be the
	// union of the graphs constructed for each of them").
	db := dblpDB(t)
	follows, _ := db.Create("Follows",
		relstore.Column{Name: "src", Type: relstore.Int},
		relstore.Column{Name: "dst", Type: relstore.Int})
	follows.Insert(relstore.IntVal(6), relstore.IntVal(1)) // 6 otherwise isolated
	follows.Insert(relstore.IntVal(1), relstore.IntVal(2)) // already a co-author pair
	src := `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
Edges(A, B) :- Follows(A, B).
`
	opts := DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	res, err := Extract(db, mustParse(t, src), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// Union adds 6 -> 1 on top of the co-author edges.
	want := expectedCoauthorEdges()
	want[[2]int64{6, 1}] = struct{}{}
	got := g.EdgeSetByID()
	if len(got) != len(want) {
		t.Fatalf("edges = %d, want %d", len(got), len(want))
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			t.Fatalf("missing edge %v", e)
		}
	}
	if g.Symmetric {
		t.Fatal("union with a directed rule must not be marked symmetric")
	}
	// The duplicated pair (1,2) — covered by both statements — must be
	// deduplicated by the C-DUP iterator and removable by BITMAP-2.
	if err := g.VerifyDAG(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractCase2Fallback(t *testing.T) {
	// Triangle query: cyclic, so Case 2 (full expansion).
	src := `
Nodes(ID) :- Node(ID).
Edges(A, B) :- Rel(A, X), Rel(B, X), Rel2(A, B).
`
	db := relstore.NewDB()
	node, _ := db.Create("Node", relstore.Column{Name: "id", Type: relstore.Int})
	rel, _ := db.Create("Rel",
		relstore.Column{Name: "a", Type: relstore.Int},
		relstore.Column{Name: "x", Type: relstore.Int})
	rel2, _ := db.Create("Rel2",
		relstore.Column{Name: "a", Type: relstore.Int},
		relstore.Column{Name: "b", Type: relstore.Int})
	for i := int64(1); i <= 4; i++ {
		node.Insert(relstore.IntVal(i))
		rel.Insert(relstore.IntVal(i), relstore.IntVal(1)) // everyone shares x=1
	}
	rel2.Insert(relstore.IntVal(1), relstore.IntVal(2))
	rel2.Insert(relstore.IntVal(3), relstore.IntVal(4))
	res, err := Extract(db, mustParse(t, src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Case2Rules != 1 {
		t.Fatalf("Case2Rules = %d, want 1", res.Stats.Case2Rules)
	}
	got := res.Graph.EdgeSetByID()
	want := map[[2]int64]struct{}{{1, 2}: {}, {3, 4}: {}}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestExtractMaxEdgesGuard(t *testing.T) {
	db := dblpDB(t)
	opts := DefaultOptions()
	opts.ForceExpand = true
	opts.MaxEdges = 3
	_, err := Extract(db, mustParse(t, coauthors), opts)
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestExtractPreprocessing(t *testing.T) {
	db := dblpDB(t)
	opts := DefaultOptions()
	opts.ForceCondensed = true // then preprocessing may inline tiny pubs
	res, err := Extract(db, mustParse(t, coauthors), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Pubs 200 (2 authors) and 400 (1 author) qualify for inlining.
	if res.Stats.PreprocessExpanded != 2 {
		t.Fatalf("preprocess expanded = %d, want 2", res.Stats.PreprocessExpanded)
	}
	want := expectedCoauthorEdges()
	got := res.Graph.EdgeSetByID()
	if len(got) != len(want) {
		t.Fatalf("edges = %d, want %d", len(got), len(want))
	}
}

func TestExtractErrors(t *testing.T) {
	db := dblpDB(t)
	// Unknown table.
	src := `Nodes(ID) :- Missing(ID). Edges(A,B) :- AuthorPub(A,P), AuthorPub(B,P).`
	if _, err := Extract(db, mustParse(t, src), DefaultOptions()); err == nil {
		t.Fatal("expected unknown-table error")
	}
	// Atom wider than the table.
	src2 := `Nodes(ID) :- Author(ID, N, X, Y). Edges(A,B) :- AuthorPub(A,P), AuthorPub(B,P).`
	if _, err := Extract(db, mustParse(t, src2), DefaultOptions()); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestExtractSelfLoopsOption(t *testing.T) {
	db := dblpDB(t)
	opts := DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	opts.SelfLoops = true
	res, err := Extract(db, mustParse(t, coauthors), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.ExistsEdge(1, 1) {
		t.Fatal("self loop 1->1 missing with SelfLoops enabled")
	}
}

// oldStringID is the FNV-1a hash extraction once mapped String endpoints
// through into the vertex ID space, so that a string endpoint wired to
// whichever vertex its hash collided with.
func oldStringID(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// TestStringEndpointsAreSkipped pins that an edge row whose endpoint is not
// an Int is a skipped row, on the direct and the condensed path, even when
// a vertex's ID is the string's old hash (AsID("alice") was
// -6155642456901235291).
func TestStringEndpointsAreSkipped(t *testing.T) {
	if oldStringID("alice") != -6155642456901235291 {
		t.Fatalf("oldStringID(alice) = %d", oldStringID("alice"))
	}
	db := relstore.NewDB()
	people, _ := db.Create("People", relstore.Column{Name: "id", Type: relstore.Int})
	knows, _ := db.Create("Knows",
		relstore.Column{Name: "a", Type: relstore.String},
		relstore.Column{Name: "b", Type: relstore.String})
	likes, _ := db.Create("Likes",
		relstore.Column{Name: "person", Type: relstore.String},
		relstore.Column{Name: "topic", Type: relstore.Int})
	for _, name := range []string{"alice", "bob"} {
		people.Insert(relstore.IntVal(oldStringID(name)))
		likes.Insert(relstore.StrVal(name), relstore.IntVal(1))
	}
	knows.Insert(relstore.StrVal("alice"), relstore.StrVal("bob"))
	for _, c := range []struct {
		name, src string
		skipped   int64
	}{
		{"direct", "Nodes(ID) :- People(ID).\nEdges(A, B) :- Knows(A, B).", 1},
		{"condensed", "Nodes(ID) :- People(ID).\nEdges(A, B) :- Likes(A, T), Likes(B, T).", 4},
	} {
		opts := DefaultOptions()
		opts.ForceCondensed = true
		opts.SkipPreprocess = true
		res, err := Extract(db, mustParse(t, c.src), opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := res.Graph
		if res.Stats.SkippedRows != c.skipped || g.LogicalEdges() != 0 || g.NumVirtualNodes() != 0 {
			t.Errorf("%s: %d skipped rows, %d logical edges, %d virtual nodes; want %d, 0, 0",
				c.name, res.Stats.SkippedRows, g.LogicalEdges(), g.NumVirtualNodes(), c.skipped)
		}
	}
}
