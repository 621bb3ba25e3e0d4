package graphgen

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
)

// demoDB builds the toy DBLP database used across the public-API tests.
func demoDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	author, err := db.Create("Author", Column{Name: "id", Type: Int}, Column{Name: "name", Type: String})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := db.Create("AuthorPub", Column{Name: "aid", Type: Int}, Column{Name: "pid", Type: Int})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"ann", "bob", "cat", "dan", "eve"} {
		author.Insert(IntVal(int64(i+1)), StrVal(n))
	}
	for _, p := range [][2]int64{{1, 10}, {2, 10}, {3, 10}, {3, 20}, {4, 20}, {5, 30}} {
		ap.Insert(IntVal(p[0]), IntVal(p[1]))
	}
	return db
}

const demoQuery = `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
`

func TestEngineExtractAndAPI(t *testing.T) {
	g, err := NewEngine(demoDB(t), WithForceCondensed(), WithoutPreprocessing()).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.Representation() != CDUP {
		t.Fatalf("representation = %v", g.Representation())
	}
	if !g.ExistsEdge(1, 2) || g.ExistsEdge(1, 4) {
		t.Fatal("edge structure wrong")
	}
	var nbrs []NodeID
	it := g.Neighbors(3)
	for {
		id, ok := it.Next()
		if !ok {
			break
		}
		nbrs = append(nbrs, id)
	}
	if len(nbrs) != 3 { // 1, 2, 4
		t.Fatalf("neighbors(3) = %v", nbrs)
	}
	if name, ok := g.PropertyOf(2, "Name"); !ok || name != "bob" {
		t.Fatalf("PropertyOf = %q, %v", name, ok)
	}
	if g.ExtractionStats().LargeOutputJoins != 1 {
		t.Fatalf("stats = %+v", g.ExtractionStats())
	}
}

func TestGraphConversionsAgree(t *testing.T) {
	g, err := NewEngine(demoDB(t), WithForceCondensed(), WithoutPreprocessing()).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := g.LogicalEdges()
	wantPR := g.PageRank(10, 0.85)
	for _, rep := range []Representation{EXP, DEDUP1, DEDUP2, BITMAP, CDUP} {
		conv, err := g.As(rep)
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if conv.Representation() != rep {
			t.Fatalf("converted representation = %v, want %v", conv.Representation(), rep)
		}
		if got := conv.LogicalEdges(); got != wantEdges {
			t.Fatalf("%v: logical edges = %d, want %d", rep, got, wantEdges)
		}
		pr := conv.PageRank(10, 0.85)
		for id, want := range wantPR {
			if math.Abs(pr[id]-want) > 1e-9 {
				t.Fatalf("%v: pagerank(%d) = %g, want %g", rep, id, pr[id], want)
			}
		}
	}
}

func TestAsDedup1AllAlgorithms(t *testing.T) {
	g, err := NewEngine(demoDB(t), WithForceCondensed(), WithoutPreprocessing()).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := g.LogicalEdges()
	for _, alg := range []Dedup1Algorithm{GreedyVirtualFirst, NaiveVirtualFirst, NaiveRealFirst, GreedyRealFirst} {
		d, err := g.AsDedup1(alg, DedupOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if d.LogicalEdges() != want {
			t.Fatalf("%v: edges = %d, want %d", alg, d.LogicalEdges(), want)
		}
	}
}

// requireNoDeadVirtualSlots fails t when g keeps the slot of a removed
// virtual node: Extract drops the slots Step 6 empties.
func requireNoDeadVirtualSlots(t *testing.T, what string, g *core.Graph) {
	t.Helper()
	if g.NumVirtualSlots() != g.NumVirtualNodes() {
		t.Errorf("%s: %d virtual slots for %d live nodes", what, g.NumVirtualSlots(), g.NumVirtualNodes())
	}
}

func TestAnalysisEntryPoints(t *testing.T) {
	g, err := NewEngine(demoDB(t)).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireNoDeadVirtualSlots(t, "demo", g.Core())
	deg := g.Degrees()
	if deg[3] != 3 || deg[5] != 0 {
		t.Fatalf("degrees = %v", deg)
	}
	visited, depth := g.BFS(1)
	if visited != 4 || depth != 2 {
		t.Fatalf("BFS = %d/%d, want 4/2", visited, depth)
	}
	_, comps := g.ConnectedComponents()
	if comps != 2 { // {1,2,3,4} and {5}
		t.Fatalf("components = %d, want 2", comps)
	}
	if tri := g.CountTriangles(); tri != 1 { // {1,2,3}
		t.Fatalf("triangles = %d, want 1", tri)
	}
	labels, n := g.Communities(10, 1)
	if n <= 0 || len(labels) != g.NumVertices() {
		t.Fatalf("communities = %d over %d labels", n, len(labels))
	}
	cores := g.KCore()
	if cores[1] != 2 { // 1 sits in the {1,2,3} triangle
		t.Fatalf("kcore(1) = %d, want 2", cores[1])
	}
	if cc := g.ClusteringCoefficient(); cc <= 0 || cc > 1 {
		t.Fatalf("clustering coefficient = %g", cc)
	}
	hist := g.DegreeHistogram()
	if hist[3] != 1 { // vertex 3 has degree 3
		t.Fatalf("degree histogram = %v", hist)
	}
}

func TestSuggestPublicAPI(t *testing.T) {
	props, err := Suggest(demoDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(props) == 0 {
		t.Fatal("no proposals for the demo schema")
	}
	// The top proposal must be runnable end to end.
	g, err := NewEngine(demoDB(t)).Extract(props[0].Query)
	if err != nil {
		t.Fatalf("top proposal failed: %v\n%s", err, props[0].Query)
	}
	requireNoDeadVirtualSlots(t, "top proposal", g.Core())
	if g.NumVertices() == 0 {
		t.Fatal("proposal produced an empty graph")
	}
}

func TestVertexCentricViaPublicAPI(t *testing.T) {
	g, err := NewEngine(demoDB(t), WithForceCondensed(), WithoutPreprocessing()).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	vals, supersteps := g.RunVertexCentric(ComputeFunc(func(ctx *VertexContext) {
		ctx.SetValue(float64(ctx.Degree()))
		ctx.VoteToHalt()
	}), 2)
	if supersteps < 1 {
		t.Fatalf("supersteps = %d", supersteps)
	}
	if vals[3] != 3 {
		t.Fatalf("vertex-centric degree(3) = %v", vals[3])
	}
}

func TestMutationsViaPublicAPI(t *testing.T) {
	g, err := NewEngine(demoDB(t), WithForceCondensed(), WithoutPreprocessing()).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(100); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(100, 1); err != nil {
		t.Fatal(err)
	}
	if !g.ExistsEdge(100, 1) {
		t.Fatal("AddEdge failed")
	}
	if err := g.DeleteEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if g.ExistsEdge(1, 3) {
		t.Fatal("DeleteEdge failed")
	}
	if err := g.DeleteVertex(4); err != nil {
		t.Fatal(err)
	}
	g.Compact()
	if g.NumVertices() != 5 { // 1,2,3,5,100
		t.Fatalf("vertices = %d, want 5", g.NumVertices())
	}
}

func TestSerializationViaPublicAPI(t *testing.T) {
	g, err := NewEngine(demoDB(t)).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireNoDeadVirtualSlots(t, "demo", g.Core())
	var el, js bytes.Buffer
	if err := g.WriteEdgeList(&el); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if el.Len() == 0 || js.Len() == 0 {
		t.Fatal("empty serialization")
	}
}

func TestValidateClassifiesRules(t *testing.T) {
	ok, err := Validate(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 1 || !ok[0] {
		t.Fatalf("Validate = %v, want [true]", ok)
	}
	cyclic := `
Nodes(ID) :- R(ID).
Edges(A, B) :- R(A, X), S(X, B), T(A, B).
`
	ok, err = Validate(cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if ok[0] {
		t.Fatal("cyclic rule classified as Case 1")
	}
	if _, err := Validate("garbage("); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestMaxEdgesGuardViaPublicAPI(t *testing.T) {
	db := datagen.TPCHLike(1, 30, 200, 3, 4)
	_, err := NewEngine(db, WithForceExpand(), WithMaxEdges(50)).Extract(datagen.QuerySamePart)
	if err == nil {
		t.Fatal("expected the memory guard to trip")
	}
}

func TestExtractBatched(t *testing.T) {
	db := demoDB(t)
	engine := NewEngine(db, WithForceCondensed(), WithoutPreprocessing())
	queries := []string{demoQuery, demoQuery, demoQuery}
	// Unbounded budget: one batch.
	batches, err := engine.ExtractBatched(queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batches = %d/%v", len(batches), len(batches[0]))
	}
	// A budget that fits roughly one graph: three batches.
	size := batches[0][0].MemBytes()
	batches, err = engine.ExtractBatched(queries, size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	// A budget below a single graph: error.
	if _, err := engine.ExtractBatched(queries, 16); err == nil {
		t.Fatal("expected over-budget error")
	}
	// A broken query surfaces with its index.
	if _, err := engine.ExtractBatched([]string{demoQuery, "broken("}, 0); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCondensedSerializationPublicAPI(t *testing.T) {
	g, err := NewEngine(demoDB(t), WithForceCondensed(), WithoutPreprocessing()).Extract(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := g.As(DEDUP1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteCondensed(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCondensed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Representation() != DEDUP1 {
		t.Fatalf("representation = %v", back.Representation())
	}
	if back.LogicalEdges() != d1.LogicalEdges() {
		t.Fatalf("edges = %d, want %d", back.LogicalEdges(), d1.LogicalEdges())
	}
	// LoadEdgeList round trip.
	var el bytes.Buffer
	if err := g.WriteEdgeList(&el); err != nil {
		t.Fatal(err)
	}
	exp, err := LoadEdgeList(&el)
	if err != nil {
		t.Fatal(err)
	}
	if exp.LogicalEdges() != g.LogicalEdges() {
		t.Fatalf("edge list round trip: %d vs %d", exp.LogicalEdges(), g.LogicalEdges())
	}
}

func TestWrapCoreAndUnsupported(t *testing.T) {
	g := WrapCore(datagen.Condensed(datagen.CondensedConfig{
		Seed: 1, RealNodes: 10, VirtualNodes: 4, MeanSize: 3, StdDev: 1,
	}))
	if g.Core() == nil {
		t.Fatal("Core accessor broken")
	}
	if _, err := g.As(Representation(99)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// twoCliques builds the C-DUP graph over vertices 1-5 with virtual nodes
// {1,2,3} and {1,3,4}: 1 and 3 share both, and 5 is isolated.
func twoCliques() *Graph {
	c := core.New(core.CDUP)
	c.Symmetric = true
	for id := int64(1); id <= 5; id++ {
		c.AddRealNode(id)
	}
	for _, members := range [][]int64{{1, 2, 3}, {1, 3, 4}} {
		v := c.AddVirtualNode(1)
		for _, id := range members {
			r, _ := c.RealIndex(id)
			c.AddMember(v, r)
		}
	}
	return WrapCore(c)
}

// neighborLists drains every vertex's neighbor iterator, keeping repeats.
func neighborLists(g *Graph) map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID)
	for vs := g.Vertices(); ; {
		u, ok := vs.Next()
		if !ok {
			return out
		}
		out[u] = []NodeID{}
		for it := g.Neighbors(u); ; {
			w, ok := it.Next()
			if !ok {
				break
			}
			out[u] = append(out[u], w)
		}
		slices.Sort(out[u])
	}
}

// TestBitmapCompactKeepsNeighborsExactlyOnce pins that Compact on a BITMAP
// graph renumbers and packs its masks instead of dropping them: with the
// masks gone, the shared member 3 was reached from 1 through both virtual
// nodes, and Neighbors(1) gave [2 3 3 4].
func TestBitmapCompactKeepsNeighborsExactlyOnce(t *testing.T) {
	for _, dead := range [][]NodeID{{5}, {2}, {3}, {2, 5}} {
		bmp, err := twoCliques().As(BITMAP)
		if err != nil {
			t.Fatal(err)
		}
		oracle := twoCliques()
		for _, id := range dead {
			if err := bmp.DeleteVertex(id); err != nil {
				t.Fatal(err)
			}
			if err := oracle.DeleteVertex(id); err != nil {
				t.Fatal(err)
			}
		}
		bmp.Compact()
		oracle.Compact()
		exp, err := oracle.As(EXP)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := neighborLists(bmp), neighborLists(exp); !maps.EqualFunc(got, want, slices.Equal) {
			t.Errorf("delete %v: BITMAP neighbors after Compact %v, EXP %v", dead, got, want)
		}
		if err := bmp.Core().VerifyNoDuplicates(); err != nil {
			t.Errorf("delete %v: %v", dead, err)
		}
	}
}

// TestAsCDUPDropsMasks pins that converting a BITMAP graph to C-DUP gives a
// C-DUP graph with no masks and the same logical edges.
func TestAsCDUPDropsMasks(t *testing.T) {
	bmp, err := twoCliques().As(BITMAP)
	if err != nil {
		t.Fatal(err)
	}
	if bmp.Core().NumBitmaps() == 0 {
		t.Fatal("BITMAP conversion attached no masks")
	}
	cdup, err := bmp.As(CDUP)
	if err != nil {
		t.Fatal(err)
	}
	if rep, n := cdup.Representation(), cdup.Core().NumBitmaps(); rep != CDUP || n != 0 {
		t.Fatalf("As(CDUP) of BITMAP: %v with %d masks, want C-DUP with none", rep, n)
	}
	if got, want := neighborLists(cdup), neighborLists(bmp); !maps.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("As(CDUP) neighbors %v, BITMAP %v", got, want)
	}
	if bmp.Representation() != BITMAP || bmp.Core().NumBitmaps() == 0 {
		t.Fatal("As(CDUP) modified its receiver")
	}
}
