package incremental

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// logicalEdges drains a graph's logical edge set keyed by external IDs.
func logicalEdges(g *core.Graph) map[[2]int64]bool {
	out := make(map[[2]int64]bool)
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(t int32) bool {
			out[[2]int64{g.RealID(r), g.RealID(t)}] = true
			return true
		})
		return true
	})
	return out
}

// checkView asserts that the view FreezeVersioned hands out (after
// flushing pending deltas) is identical, array for array, to a
// from-scratch Freeze of the live graph at the same version, and returns
// both.
func checkView(t *testing.T, lv *Live, step string) (view, want *core.Frozen) {
	t.Helper()
	view, version, build := lv.FreezeVersioned()
	lv.mu.RLock()
	want, now := lv.g.Freeze(), lv.version
	lv.mu.RUnlock()
	if version != now {
		t.Fatalf("%s: view at version %d, graph at %d", step, version, now)
	}
	if d := view.Diff(want); d != "" {
		t.Fatalf("%s: %s view differs from Freeze in %s", step, build, d)
	}
	return view, want
}

// viewHistory checks a sequence of views: each against a fresh Freeze, and
// the one before it against the Freeze taken with it — deriving a view
// must leave the views handed out earlier as they were.
type viewHistory struct{ last, lastWant *core.Frozen }

func (h *viewHistory) check(t *testing.T, lv *Live, step string) {
	t.Helper()
	view, want := checkView(t, lv, step)
	if h.last != nil {
		if d := h.last.Diff(h.lastWant); d != "" {
			t.Fatalf("%s: taking a view changed the previous view's %s", step, d)
		}
	}
	h.last, h.lastWant = view, want
}

// checkEquivalence compares the live graph against a fresh extraction over
// the current database state, and its view against a fresh Freeze.
func checkEquivalence(t *testing.T, lv *Live, db *relstore.DB, prog *datalog.Program, opts extract.Options, step string) {
	t.Helper()
	if err := lv.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", step, err)
	}
	checkView(t, lv, step)
	fresh, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatalf("%s: fresh extract: %v", step, err)
	}
	want := logicalEdges(fresh.Graph)
	got := logicalEdges(lv.Snapshot())
	if len(got) != len(want) {
		t.Fatalf("%s: live has %d logical edges, fresh extract has %d", step, len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("%s: live graph is missing edge %v", step, e)
		}
	}
}

// checkBuild asserts that the live graph just after New is the graph
// Extract builds without Step 6 and auto-expansion, slot for slot: equal
// representation edges, virtual nodes and slots, virtual layers, and
// adjacency lists once a copy of the live graph is sorted the way Extract
// sorts its own.
func checkBuild(t *testing.T, lv *Live, db *relstore.DB, prog *datalog.Program, opts extract.Options) {
	t.Helper()
	opts.SkipPreprocess, opts.AutoExpandFactor = true, 0
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatalf("build: extract: %v", err)
	}
	want, got := res.Graph, lv.Snapshot()
	got.SortAdjacency()
	if got.RepEdges() != want.RepEdges() || got.NumVirtualNodes() != want.NumVirtualNodes() ||
		got.NumVirtualSlots() != want.NumVirtualSlots() || got.NumRealSlots() != want.NumRealSlots() {
		t.Fatalf("build: live has %d rep edges, %d virtual nodes in %d slots, %d real slots; Extract %d, %d in %d, %d",
			got.RepEdges(), got.NumVirtualNodes(), got.NumVirtualSlots(), got.NumRealSlots(),
			want.RepEdges(), want.NumVirtualNodes(), want.NumVirtualSlots(), want.NumRealSlots())
	}
	lists := func(name string, a, b []int32) {
		t.Helper()
		if !slices.Equal(a, b) {
			t.Fatalf("build: %s is %v live, %v in Extract", name, a, b)
		}
	}
	for r := int32(0); int(r) < got.NumRealSlots(); r++ {
		lists(fmt.Sprintf("OutVirtuals(%d)", r), got.OutVirtuals(r), want.OutVirtuals(r))
		lists(fmt.Sprintf("InVirtuals(%d)", r), got.InVirtuals(r), want.InVirtuals(r))
		lists(fmt.Sprintf("OutDirect(%d)", r), got.OutDirect(r), want.OutDirect(r))
		lists(fmt.Sprintf("InDirect(%d)", r), got.InDirect(r), want.InDirect(r))
	}
	for v := int32(0); int(v) < got.NumVirtualSlots(); v++ {
		if got.VirtLayer(v) != want.VirtLayer(v) || got.VirtAlive(v) != want.VirtAlive(v) {
			t.Fatalf("build: virtual %d is layer %d alive %v live, layer %d alive %v in Extract",
				v, got.VirtLayer(v), got.VirtAlive(v), want.VirtLayer(v), want.VirtAlive(v))
		}
		lists(fmt.Sprintf("VirtSources(%d)", v), got.VirtSources(v), want.VirtSources(v))
		lists(fmt.Sprintf("VirtTargets(%d)", v), got.VirtTargets(v), want.VirtTargets(v))
		lists(fmt.Sprintf("VirtInVirt(%d)", v), got.VirtInVirt(v), want.VirtInVirt(v))
		lists(fmt.Sprintf("VirtOutVirt(%d)", v), got.VirtOutVirt(v), want.VirtOutVirt(v))
		lists(fmt.Sprintf("VirtUndirected(%d)", v), got.VirtUndirected(v), want.VirtUndirected(v))
	}
}

// randomOps drives nOps random single-tuple inserts and deletes against the
// listed tables, drawing column values from small domains so that duplicate
// rows, shared join values, and deletes of multi-support pairs all occur.
// It verifies live-vs-fresh equivalence every checkEvery ops and at the end.
// After each op it also, at random, takes a view (which flushes) and checks
// it against Freeze and the previous view against the Freeze taken with
// it; or flushes without a view, so a later view covers the rows several
// flushes touched; or leaves the deltas pending for a batched flush.
func randomOps(t *testing.T, rng *rand.Rand, db *relstore.DB, prog *datalog.Program, opts extract.Options,
	tables []*relstore.Table, domains [][]int64, nOps, checkEvery int) {
	t.Helper()
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	checkBuild(t, lv, db, prog, opts)
	var views viewHistory
	sched := rand.New(rand.NewSource(int64(nOps)))
	for op := 1; op <= nOps; op++ {
		ti := rng.Intn(len(tables))
		tbl := tables[ti]
		if rng.Intn(2) == 0 || tbl.NumRows() == 0 {
			row := make([]relstore.Value, len(tbl.Cols))
			for c := range row {
				dom := domains[ti]
				row[c] = relstore.IntVal(dom[rng.Intn(len(dom))])
			}
			if err := tbl.Insert(row...); err != nil {
				t.Fatal(err)
			}
		} else {
			victim := append([]relstore.Value(nil), tbl.Rows[rng.Intn(tbl.NumRows())]...)
			if ok, err := tbl.Delete(victim...); err != nil || !ok {
				t.Fatalf("delete %v: ok=%v err=%v", victim, ok, err)
			}
		}
		step := fmt.Sprintf("after op %d", op)
		switch sched.Intn(3) {
		case 0:
			views.check(t, lv, step)
		case 1:
			if err := lv.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", step, err)
			}
		}
		if op%checkEvery == 0 {
			checkEquivalence(t, lv, db, prog, opts, step)
		}
	}
	checkEquivalence(t, lv, db, prog, opts, "final")
	if st := lv.Stats(); st.ViewsDerived == 0 {
		t.Fatalf("no view was derived (%d full, %d reused): the derivation went untested", st.ViewsFull, st.ViewsReused)
	}
}

// coauthorDB builds the co-authorship schema with a small value domain.
func coauthorDB(t *testing.T, rng *rand.Rand, nAuthors, nRows int) (*relstore.DB, *relstore.Table) {
	t.Helper()
	db := relstore.NewDB()
	author, err := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= nAuthors; a++ {
		author.Insert(relstore.IntVal(int64(a)), relstore.StrVal(fmt.Sprintf("a%d", a)))
	}
	for i := 0; i < nRows; i++ {
		ap.Insert(relstore.IntVal(int64(rng.Intn(nAuthors)+1)), relstore.IntVal(int64(rng.Intn(6)+1)))
	}
	return db, ap
}

const coauthorQuery = `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
`

// TestLiveEquivalenceCondensed is the randomized equivalence guarantee for
// condensed (C-DUP, virtual-node) extraction: after any applied
// insert/delete sequence the live graph's logical edges equal a fresh
// extraction's. It runs in -short mode (CI exercises it on every push).
func TestLiveEquivalenceCondensed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, ap := coauthorDB(t, rng, 12, 40)
	prog, err := datalog.Parse(coauthorQuery)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	domain := make([][]int64, 1)
	for v := int64(1); v <= 12; v++ {
		domain[0] = append(domain[0], v)
	}
	randomOps(t, rng, db, prog, opts, []*relstore.Table{ap}, domain, 80, 4)
}

// TestLiveEquivalenceExpanded covers the direct-edge path (every join
// handed to the database), including the self-join occurrence convention:
// AuthorPub appears twice in the single segment.
func TestLiveEquivalenceExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db, ap := coauthorDB(t, rng, 10, 30)
	prog, err := datalog.Parse(coauthorQuery)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2, ForceExpand: true}
	domain := make([][]int64, 1)
	for v := int64(1); v <= 10; v++ {
		domain[0] = append(domain[0], v)
	}
	randomOps(t, rng, db, prog, opts, []*relstore.Table{ap}, domain, 60, 4)
}

// TestLiveEquivalenceMultiLayer covers interior segments: a three-step
// chain under ForceCondensed gets two large joins, so the middle segment
// wires virtual-to-virtual edges.
func TestLiveEquivalenceMultiLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	r, _ := db.Create("R", relstore.Column{Name: "x", Type: relstore.Int}, relstore.Column{Name: "a", Type: relstore.Int})
	s, _ := db.Create("S", relstore.Column{Name: "a", Type: relstore.Int}, relstore.Column{Name: "b", Type: relstore.Int})
	u, _ := db.Create("U", relstore.Column{Name: "b", Type: relstore.Int}, relstore.Column{Name: "y", Type: relstore.Int})
	for p := 1; p <= 10; p++ {
		person.Insert(relstore.IntVal(int64(p)), relstore.StrVal(fmt.Sprintf("p%d", p)))
	}
	for i := 0; i < 20; i++ {
		r.Insert(relstore.IntVal(int64(rng.Intn(10)+1)), relstore.IntVal(int64(rng.Intn(4)+100)))
		s.Insert(relstore.IntVal(int64(rng.Intn(4)+100)), relstore.IntVal(int64(rng.Intn(4)+200)))
		u.Insert(relstore.IntVal(int64(rng.Intn(4)+200)), relstore.IntVal(int64(rng.Intn(10)+1)))
	}
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Person(ID, Name).
Edges(X, Y) :- R(X, A), S(A, B), U(B, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	domR := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 101, 102, 103}
	domS := []int64{100, 101, 102, 103, 200, 201, 202, 203}
	domU := []int64{200, 201, 202, 203, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	randomOps(t, rng, db, prog, opts,
		[]*relstore.Table{r, s, u}, [][]int64{domR, domS, domU}, 90, 5)
}

// TestLiveEquivalenceCase2 covers non-chain rules (full-expansion Case 2):
// both endpoints occur in two atoms, so the rule is evaluated as one
// general conjunctive query.
func TestLiveEquivalenceCase2(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	f, _ := db.Create("F", relstore.Column{Name: "x", Type: relstore.Int}, relstore.Column{Name: "y", Type: relstore.Int})
	gt, _ := db.Create("G", relstore.Column{Name: "x", Type: relstore.Int}, relstore.Column{Name: "y", Type: relstore.Int})
	for p := 1; p <= 8; p++ {
		person.Insert(relstore.IntVal(int64(p)), relstore.StrVal(fmt.Sprintf("p%d", p)))
	}
	for i := 0; i < 25; i++ {
		f.Insert(relstore.IntVal(int64(rng.Intn(8)+1)), relstore.IntVal(int64(rng.Intn(8)+1)))
		gt.Insert(relstore.IntVal(int64(rng.Intn(8)+1)), relstore.IntVal(int64(rng.Intn(8)+1)))
	}
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Person(ID, Name).
Edges(X, Y) :- F(X, Y), G(X, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2}
	dom := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	randomOps(t, rng, db, prog, opts,
		[]*relstore.Table{f, gt}, [][]int64{dom, dom}, 70, 5)
}

// TestLiveEquivalenceFiltered covers comparisons in live bodies. Y >= 5 is
// a selection inside segment 0 of a condensed chain; Y < Z binds one
// variable in each segment, so that rule plans Case 2. A selection is
// linear like the join it filters, so both rules keep exact deltas.
func TestLiveEquivalenceFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	apy, _ := db.Create("APY",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int},
		relstore.Column{Name: "year", Type: relstore.Int})
	for p := 1; p <= 10; p++ {
		person.Insert(relstore.IntVal(int64(p)), relstore.StrVal(fmt.Sprintf("p%d", p)))
	}
	for i := 0; i < 40; i++ {
		apy.Insert(relstore.IntVal(int64(rng.Intn(10)+1)), relstore.IntVal(int64(rng.Intn(6)+1)), relstore.IntVal(int64(rng.Intn(10)+1)))
	}
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Person(ID, Name).
Edges(A, B) :- APY(A, P, Y), APY(B, P, _), Y >= 5.
Edges(A, B) :- APY(A, P, Y), APY(B, P, Z), Y < Z.
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	for i, wantCase2 := range []bool{false, true} {
		plan, err := extract.PlanEdges(db, prog.Edges[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Case2 != wantCase2 || !wantCase2 && (len(plan.Segments) != 2 || len(plan.Segments[0].Comps) != 1) {
			t.Fatalf("rule %d: Case2 %v with segments %+v", i+1, plan.Case2, plan.Segments)
		}
	}
	dom := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	randomOps(t, rng, db, prog, opts, []*relstore.Table{apy}, [][]int64{dom}, 90, 4)
}

// TestLiveEquivalenceTripleSelfJoin covers a segment with three
// occurrences of one table: a single-tuple change then contributes through
// every occurrence, and the later (insert) or earlier (delete) ones expand
// into signed terms over the changed tuple — the case where a wrong sign or
// a missing term shows up as a support count that is off by one.
func TestLiveEquivalenceTripleSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	m, _ := db.Create("M", relstore.Column{Name: "a", Type: relstore.Int}, relstore.Column{Name: "b", Type: relstore.Int})
	for p := 1; p <= 6; p++ {
		person.Insert(relstore.IntVal(int64(p)), relstore.StrVal(fmt.Sprintf("p%d", p)))
	}
	for i := 0; i < 14; i++ {
		m.Insert(relstore.IntVal(int64(rng.Intn(6)+1)), relstore.IntVal(int64(rng.Intn(6)+1)))
	}
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Person(ID, Name).
Edges(X, Y) :- M(X, A), M(A, B), M(B, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	dom := []int64{1, 2, 3, 4, 5, 6}
	for _, opts := range []extract.Options{
		{LargeOutputFactor: 2, ForceExpand: true}, // one segment, three occurrences
		{LargeOutputFactor: 2, ForceCondensed: true},
	} {
		randomOps(t, rng, db, prog, opts, []*relstore.Table{m}, [][]int64{dom}, 90, 3)
	}
}

// TestLiveManyOccurrencesRebuilds pins the bound on the signed expansion: a
// segment holding one table more than maxOccurrences times answers a change
// to it with a rebuild instead of 2^k − 1 delta pipelines, and stays equal to
// a fresh extraction.
func TestLiveManyOccurrencesRebuilds(t *testing.T) {
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	m, _ := db.Create("M", relstore.Column{Name: "a", Type: relstore.Int}, relstore.Column{Name: "b", Type: relstore.Int})
	for p := int64(1); p <= 3; p++ {
		person.Insert(relstore.IntVal(p), relstore.StrVal(fmt.Sprintf("p%d", p)))
		m.Insert(relstore.IntVal(p), relstore.IntVal(p%3+1))
	}
	body := "M(X, A1)"
	for i := 1; i < maxOccurrences; i++ {
		body += fmt.Sprintf(", M(A%d, A%d)", i, i+1)
	}
	prog, err := datalog.Parse(fmt.Sprintf("Nodes(ID, Name) :- Person(ID, Name).\nEdges(X, Y) :- %s, M(A%d, Y).\n", body, maxOccurrences))
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2, ForceExpand: true}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	m.Insert(relstore.IntVal(1), relstore.IntVal(3))
	checkEquivalence(t, lv, db, prog, opts, "after insert")
	m.Delete(relstore.IntVal(2), relstore.IntVal(3))
	checkEquivalence(t, lv, db, prog, opts, "after delete")
	if got := lv.Stats().Rebuilds; got != 2 {
		t.Fatalf("rebuilds = %d, want one per change", got)
	}
}

// TestLiveEquivalenceConstantAndRepeatedVariable covers the atom shapes the
// delta plans must compile like extraction does: a constant selection (a
// changed tuple it rejects contributes nothing) and a variable repeated
// inside one atom (an equality filter, never an index path).
func TestLiveEquivalenceConstantAndRepeatedVariable(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	f, _ := db.Create("F", relstore.Column{Name: "x", Type: relstore.Int},
		relstore.Column{Name: "k", Type: relstore.Int}, relstore.Column{Name: "flag", Type: relstore.Int})
	g, _ := db.Create("G", relstore.Column{Name: "k1", Type: relstore.Int},
		relstore.Column{Name: "k2", Type: relstore.Int}, relstore.Column{Name: "y", Type: relstore.Int})
	for p := 1; p <= 4; p++ {
		person.Insert(relstore.IntVal(int64(p)), relstore.StrVal(fmt.Sprintf("p%d", p)))
	}
	dom := []int64{1, 2, 3, 4}
	for i := 0; i < 30; i++ {
		f.Insert(relstore.IntVal(dom[rng.Intn(4)]), relstore.IntVal(dom[rng.Intn(4)]), relstore.IntVal(dom[rng.Intn(2)]))
		g.Insert(relstore.IntVal(dom[rng.Intn(4)]), relstore.IntVal(dom[rng.Intn(4)]), relstore.IntVal(dom[rng.Intn(4)]))
	}
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Person(ID, Name).
Edges(X, Y) :- F(X, K, 1), G(K, K, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2}
	randomOps(t, rng, db, prog, opts, []*relstore.Table{f, g}, [][]int64{dom, dom}, 120, 5)
}

// TestLiveDuplicateSupport pins the dedup-contract preservation: a logical
// edge supported twice (duplicate tuple, or two shared join values)
// survives the deletion of one support.
func TestLiveDuplicateSupport(t *testing.T) {
	db := relstore.NewDB()
	author, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ap, _ := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	for a := 1; a <= 3; a++ {
		author.Insert(relstore.IntVal(int64(a)), relstore.StrVal(fmt.Sprintf("a%d", a)))
	}
	// Authors 1 and 2 share pubs 10 and 20; tuple (1, 10) is duplicated.
	for _, p := range [][2]int64{{1, 10}, {1, 10}, {2, 10}, {1, 20}, {2, 20}, {3, 20}} {
		ap.Insert(relstore.IntVal(p[0]), relstore.IntVal(p[1]))
	}
	prog, _ := datalog.Parse(coauthorQuery)
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	// Deleting one copy of the duplicated tuple must not remove 1<->2.
	if ok, _ := ap.Delete(relstore.IntVal(1), relstore.IntVal(10)); !ok {
		t.Fatal("delete failed")
	}
	if !lv.ExistsEdge(1, 2) {
		t.Fatal("edge 1->2 lost after deleting one of two duplicate supports")
	}
	// Deleting the second copy still leaves pub 20 connecting them.
	ap.Delete(relstore.IntVal(1), relstore.IntVal(10))
	if !lv.ExistsEdge(1, 2) {
		t.Fatal("edge 1->2 lost while pub 20 still connects the authors")
	}
	// Removing author 1 from pub 20 finally severs it, but 2<->3 stays.
	ap.Delete(relstore.IntVal(1), relstore.IntVal(20))
	if lv.ExistsEdge(1, 2) {
		t.Fatal("edge 1->2 survived the loss of its last support")
	}
	if !lv.ExistsEdge(2, 3) {
		t.Fatal("unrelated edge 2->3 was damaged by the deletion")
	}
	checkEquivalence(t, lv, db, prog, opts, "end")
}

// TestLiveNodeTableRebuild verifies the documented fallback: changes to a
// Nodes-rule table trigger a full re-extraction on the next read, including
// previously skipped edge rows that referenced the new node.
func TestLiveNodeTableRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db, ap := coauthorDB(t, rng, 6, 20)
	author, _ := db.Table("Author")
	prog, _ := datalog.Parse(coauthorQuery)
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	// Edge rows referencing a not-yet-existing author 99 are skipped...
	ap.Insert(relstore.IntVal(99), relstore.IntVal(3))
	checkEquivalence(t, lv, db, prog, opts, "dangling edge rows")
	// ...until the author appears, which must surface those edges.
	author.Insert(relstore.IntVal(99), relstore.StrVal("late"))
	checkEquivalence(t, lv, db, prog, opts, "after node insert")
	if lv.Stats().Rebuilds == 0 {
		t.Fatal("node-table change did not trigger a rebuild")
	}
	if n := lv.NumVertices(); n != 7 {
		t.Fatalf("vertices = %d, want 7", n)
	}
	// Node deletion also rebuilds.
	author.Delete(relstore.IntVal(99), relstore.StrVal("late"))
	checkEquivalence(t, lv, db, prog, opts, "after node delete")
}

// TestLiveViewBuilds walks a live graph through every way FreezeVersioned
// obtains a view: the first is frozen from scratch, a second call at the
// same version shares it, a flush that touches no vertex reuses it at the
// new version, a flush that does derives a new one, and a rebuild freezes
// from scratch again. Stats counts each build.
func TestLiveViewBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	db, ap := coauthorDB(t, rng, 8, 30)
	author, _ := db.Table("Author")
	prog, _ := datalog.Parse(coauthorQuery)
	lv, err := New(db, prog, extract.Options{LargeOutputFactor: 2, ForceCondensed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	var last *core.Frozen
	var lastVersion uint64
	step := func(name string, wantBuild ViewBuild, sameView bool) {
		t.Helper()
		f, version, build := lv.FreezeVersioned()
		if build != wantBuild {
			t.Fatalf("%s: view %s, want %s", name, build, wantBuild)
		}
		if (f == last) != sameView || (version == lastVersion) != (build == ViewShared) {
			t.Fatalf("%s: same view %v, version %d -> %d", name, f == last, lastVersion, version)
		}
		checkView(t, lv, name)
		last, lastVersion = f, version
	}
	step("first view", ViewFull, false)
	step("same version", ViewShared, true)
	ap.Insert(relstore.IntVal(99), relstore.IntVal(1)) // 99 is not an author
	step("no vertex touched", ViewReused, true)
	ap.Insert(relstore.IntVal(1), relstore.IntVal(7)) // a new publication
	ap.Delete(relstore.IntVal(99), relstore.IntVal(1))
	step("author 1 touched", ViewDerived, false)
	author.Insert(relstore.IntVal(99), relstore.StrVal("late"))
	step("after rebuild", ViewFull, false)
	st := lv.Stats()
	if st.ViewsFull != 2 || st.ViewsDerived != 1 || st.ViewsReused != 1 {
		t.Fatalf("stats: %d full, %d derived, %d reused; want 2, 1, 1", st.ViewsFull, st.ViewsDerived, st.ViewsReused)
	}
}

// TestLiveConcurrentReads races readers against update application: tuple
// mutations happen on one goroutine while others read. Run under -race (CI
// does) to validate the locking.
func TestLiveConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	db, ap := coauthorDB(t, rng, 10, 30)
	prog, _ := datalog.Parse(coauthorQuery)
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				u := int64(r.Intn(10) + 1)
				lv.Neighbors(u)
				lv.ExistsEdge(u, int64(r.Intn(10)+1))
				lv.NumVertices()
				lv.FreezeVersioned()
			}
		}(int64(w))
	}
	for op := 0; op < 200; op++ {
		if rng.Intn(2) == 0 || ap.NumRows() == 0 {
			ap.Insert(relstore.IntVal(int64(rng.Intn(10)+1)), relstore.IntVal(int64(rng.Intn(6)+1)))
		} else {
			victim := append([]relstore.Value(nil), ap.Rows[rng.Intn(ap.NumRows())]...)
			ap.Delete(victim...)
		}
	}
	close(done)
	wg.Wait()
	checkEquivalence(t, lv, db, prog, opts, "after concurrent run")
	if st := lv.Stats(); st.ViewsFull != 1 {
		t.Fatalf("%d full freezes without a rebuild, want 1", st.ViewsFull)
	}
}

// liveWorkloads are the large maintained datasets of the timing test and
// benchmark below: the co-author self-join on one attribute, and the same
// join on (publication, year) — a composite key, where the delta must still
// reach the table through an index bucket rather than a scan.
var liveWorkloads = []struct {
	name, table, query string
	db                 func() *relstore.DB
	row                func(i int) []relstore.Value // the i-th tuple to insert and delete
}{
	{"coauthors", "AuthorPub", datagen.QueryCoauthors,
		func() *relstore.DB { return datagen.DBLPLike(7, 2000, 8000) },
		func(i int) []relstore.Value {
			return []relstore.Value{relstore.IntVal(int64(i%2000 + 1)), relstore.IntVal(int64(1_000_000 + i%500 + 1))}
		}},
	{"two-column join", "AuthorPubYear", `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPubYear(ID1, P, Y), AuthorPubYear(ID2, P, Y).
`,
		func() *relstore.DB { return datagen.DBLPTemporal(7, 2000, 8000, 2000, 2009) },
		func(i int) []relstore.Value {
			return []relstore.Value{relstore.IntVal(int64(i%2000 + 1)), relstore.IntVal(int64(1_000_000 + i%500 + 1)), relstore.IntVal(int64(2000 + i%10))}
		}},
}

// TestLiveMaintenanceSpeedup demonstrates the point of the subsystem:
// single-tuple maintenance beats re-extraction by well over the 10x bar on
// a large dataset. Timing-sensitive, so it is skipped in -short mode.
func TestLiveMaintenanceSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	for _, w := range liveWorkloads {
		t.Run(w.name, func(t *testing.T) {
			db := w.db()
			tbl, _ := db.Table(w.table)
			prog, err := datalog.Parse(w.query)
			if err != nil {
				t.Fatal(err)
			}
			opts := extract.Options{LargeOutputFactor: 2}
			lv, err := New(db, prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer lv.Close()

			// Best of three fresh extractions: the best case for the competitor.
			var reextract time.Duration
			for i := 0; i < 3; i++ {
				start := time.Now()
				if _, err := extract.Extract(db, prog, opts); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); i == 0 || d < reextract {
					reextract = d
				}
			}

			const ops = 200
			start := time.Now()
			for i := 0; i < ops; i++ {
				row := w.row(i)
				tbl.Insert(row...)
				if err := lv.Flush(); err != nil {
					t.Fatal(err)
				}
				tbl.Delete(row...)
				if err := lv.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			perOp := time.Since(start) / (2 * ops)
			if perOp == 0 {
				perOp = time.Nanosecond
			}
			ratio := float64(reextract) / float64(perOp)
			t.Logf("re-extract %v vs %v per maintained update: %.0fx", reextract, perOp, ratio)
			if ratio < 10 {
				t.Fatalf("maintenance only %.1fx faster than re-extraction, want >= 10x", ratio)
			}
			checkEquivalence(t, lv, db, prog, opts, "after speedup run")
		})
	}
}

// BenchmarkLiveSingleTupleUpdate measures one maintained insert+delete
// round trip (flush included) on each large dataset.
func BenchmarkLiveSingleTupleUpdate(b *testing.B) {
	for _, w := range liveWorkloads {
		b.Run(w.name, func(b *testing.B) {
			db := w.db()
			tbl, _ := db.Table(w.table)
			prog, _ := datalog.Parse(w.query)
			lv, err := New(db, prog, extract.Options{LargeOutputFactor: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer lv.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := w.row(i)
				tbl.Insert(row...)
				lv.Flush()
				tbl.Delete(row...)
				lv.Flush()
			}
		})
	}
}

// BenchmarkReextractAfterUpdate is the baseline the subsystem replaces:
// a full extraction after each update.
func BenchmarkReextractAfterUpdate(b *testing.B) {
	db := datagen.DBLPLike(7, 2000, 8000)
	ap, _ := db.Table("AuthorPub")
	prog, _ := datalog.Parse(datagen.QueryCoauthors)
	opts := extract.Options{LargeOutputFactor: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aid := relstore.IntVal(int64(i%2000 + 1))
		pid := relstore.IntVal(int64(1_000_000 + i%500 + 1))
		ap.Insert(aid, pid)
		if _, err := extract.Extract(db, prog, opts); err != nil {
			b.Fatal(err)
		}
		ap.Delete(aid, pid)
	}
}

// TestLiveMaxEdges pins that the memory guard is honored at build time
// instead of being silently dropped.
func TestLiveMaxEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db, _ := coauthorDB(t, rng, 12, 40)
	prog, _ := datalog.Parse(coauthorQuery)
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true, MaxEdges: 1}
	if _, err := New(db, prog, opts); !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("New with MaxEdges=1 = %v, want core.ErrTooLarge", err)
	}
}

// TestLiveIndexedVsUnindexed maintains two live graphs over the same
// mutating database — one with the index-backed delta path (the default),
// one with relstore.IndexOff — and asserts after every batch of random updates that
// both match each other and a fresh extraction. This pins down that index
// maintenance under the change log keeps the delta evaluation exact:
// indexes are updated before subscribers run, so the indexed delta scans
// see the same post-change state the unindexed scans see.
func TestLiveIndexedVsUnindexed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db, ap := coauthorDB(t, rng, 10, 40)
	prog, err := datalog.Parse(coauthorQuery)
	if err != nil {
		t.Fatal(err)
	}
	indexedOpts := extract.Options{LargeOutputFactor: 2}
	scanOpts := extract.Options{LargeOutputFactor: 2, ExecOpts: relstore.ExecOpts{UseIndex: relstore.IndexOff}}
	indexed, err := New(db, prog, indexedOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer indexed.Close()
	unindexed, err := New(db, prog, scanOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer unindexed.Close()
	for op := 1; op <= 120; op++ {
		if rng.Intn(2) == 0 || ap.NumRows() == 0 {
			if err := ap.Insert(relstore.IntVal(int64(rng.Intn(10)+1)), relstore.IntVal(int64(rng.Intn(6)+1))); err != nil {
				t.Fatal(err)
			}
		} else {
			victim := append([]relstore.Value(nil), ap.Rows[rng.Intn(ap.NumRows())]...)
			if ok, err := ap.Delete(victim...); err != nil || !ok {
				t.Fatalf("delete: ok=%v err=%v", ok, err)
			}
		}
		if op%15 != 0 {
			continue
		}
		step := fmt.Sprintf("after op %d", op)
		checkEquivalence(t, indexed, db, prog, indexedOpts, step+" (indexed)")
		checkEquivalence(t, unindexed, db, prog, scanOpts, step+" (unindexed)")
		gi := logicalEdges(indexed.Snapshot())
		gu := logicalEdges(unindexed.Snapshot())
		if len(gi) != len(gu) {
			t.Fatalf("%s: indexed live has %d edges, unindexed has %d", step, len(gi), len(gu))
		}
		for e := range gu {
			if !gi[e] {
				t.Fatalf("%s: indexed live is missing edge %v", step, e)
			}
		}
		// The maintained index must keep agreeing with a fresh scan of
		// the mutated table.
		ix := ap.Index("pid")
		if ix == nil {
			t.Fatal("auto-created index on AuthorPub.pid is missing")
		}
		for pid := int64(1); pid <= 6; pid++ {
			var want int
			for _, row := range ap.Rows {
				if row[1].Equal(relstore.IntVal(pid)) {
					want++
				}
			}
			if got := len(ix.Lookup(relstore.IntVal(pid))); got != want {
				t.Fatalf("%s: index lookup pid=%d returns %d rows, scan finds %d", step, pid, got, want)
			}
		}
	}
}

// TestLiveStringEndpointsAreSkipped pins that inserting an edge row whose
// endpoints are strings adds no edge, on the direct and the condensed path,
// even when the vertices' IDs are the strings' old FNV-1a hashes (the one
// way a string could once wire to a vertex).
func TestLiveStringEndpointsAreSkipped(t *testing.T) {
	oldStringID := func(s string) int64 {
		var h int64 = 1469598103934665603
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
		return h
	}
	for _, c := range []struct {
		name, src string
		rows      [][2]relstore.Value
	}{
		{"direct", "Nodes(ID) :- People(ID).\nEdges(A, B) :- Knows(A, B).",
			[][2]relstore.Value{{relstore.StrVal("alice"), relstore.StrVal("bob")}}},
		{"condensed", "Nodes(ID) :- People(ID).\nEdges(A, B) :- Knows(A, T), Knows(B, T).",
			[][2]relstore.Value{{relstore.StrVal("alice"), relstore.StrVal("t")}, {relstore.StrVal("bob"), relstore.StrVal("t")}}},
	} {
		db := relstore.NewDB()
		people, _ := db.Create("People", relstore.Column{Name: "id", Type: relstore.Int})
		knows, _ := db.Create("Knows",
			relstore.Column{Name: "a", Type: relstore.String},
			relstore.Column{Name: "b", Type: relstore.String})
		people.Insert(relstore.IntVal(oldStringID("alice")))
		people.Insert(relstore.IntVal(oldStringID("bob")))
		prog, err := datalog.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := New(db, prog, extract.Options{ForceCondensed: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range c.rows {
			if err := knows.Insert(row[0], row[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := lv.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := lv.LogicalEdges(); n != 0 || lv.ExistsEdge(oldStringID("alice"), oldStringID("bob")) {
			t.Errorf("%s: %d logical edges after inserting string rows, want 0", c.name, n)
		}
		if st := lv.Stats(); st.Transitions == 0 {
			t.Errorf("%s: no support transition: the inserted rows never reached the wiring", c.name)
		}
		lv.Close()
	}
}
