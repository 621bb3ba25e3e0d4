package dedup

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphgen/internal/core"
)

// randomSymmetric builds a random single-layer symmetric C-DUP graph:
// nReal real nodes, nVirt virtual nodes whose member sets are random subsets
// (sizes in [2, maxSize]). Heavy overlap is likely, so duplication abounds.
func randomSymmetric(seed int64, nReal, nVirt, maxSize int) *core.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := core.New(core.CDUP)
	g.Symmetric = true
	for i := 0; i < nReal; i++ {
		g.AddRealNode(int64(i + 1))
	}
	for v := 0; v < nVirt; v++ {
		size := 2 + rng.Intn(maxSize-1)
		if size > nReal {
			size = nReal
		}
		vn := g.AddVirtualNode(1)
		perm := rng.Perm(nReal)
		for _, r := range perm[:size] {
			g.AddMember(vn, int32(r))
		}
	}
	g.SortAdjacency()
	return g
}

// randomMultiLayer builds a random 2-layer condensed graph: sources connect
// to layer-1 virtual nodes, which connect to layer-2 virtual nodes and to
// real targets, which layer-2 nodes also have.
func randomMultiLayer(seed int64, nReal, nV1, nV2 int) *core.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := core.New(core.CDUP)
	for i := 0; i < nReal; i++ {
		g.AddRealNode(int64(i + 1))
	}
	v2s := make([]int32, nV2)
	for i := range v2s {
		v2s[i] = g.AddVirtualNode(2)
		for k := 0; k < 1+rng.Intn(4); k++ {
			g.ConnectVirtToReal(v2s[i], int32(rng.Intn(nReal)))
		}
	}
	for i := 0; i < nV1; i++ {
		v1 := g.AddVirtualNode(1)
		for k := 0; k < 1+rng.Intn(3); k++ {
			g.ConnectRealToVirt(int32(rng.Intn(nReal)), v1)
		}
		for k := 0; k < 1+rng.Intn(2); k++ {
			g.ConnectVirtToVirt(v1, v2s[rng.Intn(nV2)])
		}
		if rng.Intn(2) == 0 {
			g.ConnectVirtToReal(v1, int32(rng.Intn(nReal)))
		}
	}
	g.SortAdjacency()
	return g
}

type convert struct {
	name string
	fn   func(*core.Graph, Options) (*core.Graph, Stats, error)
}

func allConverters() []convert {
	return []convert{
		{"BITMAP-1", func(g *core.Graph, _ Options) (*core.Graph, Stats, error) { return Bitmap1(g) }},
		{"BITMAP-2", func(g *core.Graph, _ Options) (*core.Graph, Stats, error) { return Bitmap2(g) }},
		{"DEDUP1-NaiveVNF", Dedup1NaiveVirtualFirst},
		{"DEDUP1-NaiveRNF", Dedup1NaiveRealFirst},
		{"DEDUP1-GreedyRNF", Dedup1GreedyRealFirst},
		{"DEDUP1-GreedyVNF", Dedup1GreedyVirtualFirst},
		{"DEDUP2-Greedy", Dedup2Greedy},
	}
}

// assertEquivalent checks the paper's central correctness property: the
// converted representation has exactly the logical edge set of the input
// C-DUP graph and is free of duplicate paths.
func assertEquivalent(t *testing.T, name string, in, out *core.Graph) {
	t.Helper()
	want := in.EdgeSetByID()
	got := out.EdgeSetByID()
	if len(want) != len(got) {
		t.Fatalf("%s: edge count %d, want %d", name, len(got), len(want))
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			t.Fatalf("%s: lost edge %v", name, e)
		}
	}
	if err := out.VerifyNoDuplicates(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestAllConvertersEquivalenceSingleLayer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		g := randomSymmetric(seed, 30, 18, 8)
		for _, c := range allConverters() {
			out, st, err := c.fn(g, Options{Seed: seed})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			assertEquivalent(t, c.name, g, out)
			if st.RepEdgesBefore == 0 {
				t.Fatalf("%s: stats not populated", c.name)
			}
			// The input must not have been mutated.
			if err := checkStillCDUP(g); err != nil {
				t.Fatalf("seed %d %s mutated input: %v", seed, c.name, err)
			}
		}
	}
}

func checkStillCDUP(g *core.Graph) error {
	if g.Mode() != core.CDUP {
		return errMode
	}
	return nil
}

var errMode = &modeError{}

type modeError struct{}

func (*modeError) Error() string { return "input mode changed" }

func TestBitmapEquivalenceMultiLayer(t *testing.T) {
	for _, seed := range []int64{5, 11, 13} {
		g := randomMultiLayer(seed, 20, 10, 6)
		for _, c := range allConverters()[:2] { // BITMAP-1, BITMAP-2
			out, _, err := c.fn(g, Options{Seed: seed})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			assertEquivalent(t, c.name, g, out)
		}
	}
}

func TestDedup1RejectsMultiLayer(t *testing.T) {
	g := randomMultiLayer(3, 10, 5, 3)
	for _, c := range allConverters()[2:] {
		if _, _, err := c.fn(g, Options{}); err != ErrUnsupported {
			t.Fatalf("%s: err = %v, want ErrUnsupported", c.name, err)
		}
	}
}

func TestDedup1RejectsAsymmetric(t *testing.T) {
	g := core.New(core.CDUP)
	a := g.AddRealNode(1)
	bb := g.AddRealNode(2)
	v := g.AddVirtualNode(1)
	g.ConnectRealToVirt(a, v)
	g.ConnectVirtToReal(v, bb) // I(V) = {a}, O(V) = {b}: asymmetric
	for _, c := range allConverters()[2:] {
		if _, _, err := c.fn(g, Options{}); err != ErrUnsupported {
			t.Fatalf("%s: err = %v, want ErrUnsupported", c.name, err)
		}
	}
}

func TestSelfLoopGraphs(t *testing.T) {
	g := randomSymmetric(2, 15, 8, 5)
	g.SelfLoops = true
	// DEDUP-1/DEDUP-2 cannot deduplicate self loops; they must refuse.
	for _, c := range allConverters()[2:] {
		if _, _, err := c.fn(g, Options{}); err != ErrUnsupported {
			t.Fatalf("%s: err = %v, want ErrUnsupported", c.name, err)
		}
	}
	// The BITMAP algorithms handle them exactly.
	for _, c := range allConverters()[:2] {
		out, _, err := c.fn(g, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertEquivalent(t, c.name+"/selfloops", g, out)
	}
}

func TestOrderingsAllValid(t *testing.T) {
	g := randomSymmetric(9, 25, 15, 7)
	for _, ord := range []Ordering{OrderRandom, OrderSizeAsc, OrderSizeDesc} {
		for _, c := range allConverters()[2:] {
			out, _, err := c.fn(g, Options{Ordering: ord, Seed: 9})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, ord, err)
			}
			assertEquivalent(t, c.name+"/"+ord.String(), g, out)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := randomSymmetric(21, 20, 12, 6)
	a, _, err := Dedup1GreedyVirtualFirst(g, Options{Ordering: OrderRandom, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Dedup1GreedyVirtualFirst(g, Options{Ordering: OrderRandom, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.RepEdges() != b.RepEdges() || a.NumVirtualNodes() != b.NumVirtualNodes() {
		t.Fatalf("same seed produced different graphs: %d/%d edges, %d/%d virtuals",
			a.RepEdges(), b.RepEdges(), a.NumVirtualNodes(), b.NumVirtualNodes())
	}
}

func TestDedup2Invariants(t *testing.T) {
	for _, seed := range []int64{4, 8, 15, 16, 23} {
		g := randomSymmetric(seed, 24, 14, 6)
		out, _, err := Dedup2Greedy(g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.VerifyDedup2Invariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBitmap2NeverLosesVirtualOutEdges(t *testing.T) {
	// BITMAP-2 may delete real->virtual edges but must never delete a
	// virtual node's outgoing edges (another origin may need them).
	g := randomSymmetric(6, 20, 12, 6)
	out, _, err := Bitmap2(g)
	if err != nil {
		t.Fatal(err)
	}
	var before, after int64
	g.ForEachVirtual(func(v int32) bool {
		before += int64(len(g.VirtTargets(v)))
		return true
	})
	out.ForEachVirtual(func(v int32) bool {
		after += int64(len(out.VirtTargets(v)))
		return true
	})
	if before != after {
		t.Fatalf("virtual out-edges changed: %d -> %d", before, after)
	}
}

func TestBitmap1KeepsEdgeStructure(t *testing.T) {
	g := randomSymmetric(10, 20, 12, 6)
	out, st, err := Bitmap1(g)
	if err != nil {
		t.Fatal(err)
	}
	if out.RepEdges() != g.RepEdges() {
		t.Fatalf("BITMAP-1 changed edges: %d -> %d", g.RepEdges(), out.RepEdges())
	}
	if st.BitmapsCreated == 0 {
		t.Fatal("BITMAP-1 created no bitmaps")
	}
	// BITMAP-2 initializes no more bitmaps than BITMAP-1 (set cover).
	out2, st2, err := Bitmap2(g)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BitmapsCreated > st.BitmapsCreated {
		t.Fatalf("BITMAP-2 created more bitmaps (%d) than BITMAP-1 (%d)",
			st2.BitmapsCreated, st.BitmapsCreated)
	}
	if out2.RepEdges() > out.RepEdges() {
		t.Fatalf("BITMAP-2 has more edges (%d) than BITMAP-1 (%d)",
			out2.RepEdges(), out.RepEdges())
	}
}

// TestQuickEquivalence drives the equivalence property through testing/quick
// with generated seeds and shapes.
func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64, nR, nV uint8) bool {
		nReal := 5 + int(nR%40)
		nVirt := 2 + int(nV%20)
		g := randomSymmetric(seed, nReal, nVirt, 6)
		want := g.EdgeSetByID()
		for _, c := range allConverters() {
			out, _, err := c.fn(g, Options{Seed: seed})
			if err != nil {
				t.Logf("%s: %v", c.name, err)
				return false
			}
			got := out.EdgeSetByID()
			if len(got) != len(want) {
				t.Logf("%s: %d edges, want %d (seed %d, %d/%d)", c.name, len(got), len(want), seed, nReal, nVirt)
				return false
			}
			for e := range want {
				if _, ok := got[e]; !ok {
					t.Logf("%s: lost %v", c.name, e)
					return false
				}
			}
			if err := out.VerifyNoDuplicates(); err != nil {
				t.Logf("%s: %v", c.name, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDirectEdgeInputs checks the algorithms on graphs that mix virtual
// paths with pre-existing direct edges, including direct edges duplicating
// a virtual path (which NormalizeDirects must collapse).
func TestDirectEdgeInputs(t *testing.T) {
	for _, seed := range []int64{3, 12, 27} {
		g := randomSymmetric(seed, 25, 12, 6)
		// Symmetric direct edges: some duplicating virtual paths, some new.
		addDirect := func(u, w int32) {
			g.AddDirectEdgeIdx(u, w)
			g.AddDirectEdgeIdx(w, u)
		}
		v0 := int32(-1)
		g.ForEachVirtual(func(v int32) bool { v0 = v; return false })
		members := g.VirtTargets(v0)
		if len(members) >= 2 {
			addDirect(members[0], members[1]) // duplicates the path via v0
		}
		addDirect(0, 24) // likely a brand-new logical edge
		for _, c := range allConverters() {
			out, _, err := c.fn(g, Options{Seed: seed})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			assertEquivalent(t, c.name+"/directs", g, out)
		}
	}
}

func TestDedup2OnVirtualFreeGraph(t *testing.T) {
	// A graph with only direct edges (the planner expanded everything):
	// DEDUP-2 must carry them through unchanged.
	g := core.New(core.CDUP)
	g.Symmetric = true
	for i := int64(1); i <= 4; i++ {
		g.AddRealNode(i)
	}
	g.AddDirectEdgeIdx(0, 1)
	g.AddDirectEdgeIdx(1, 0)
	g.AddDirectEdgeIdx(2, 3)
	g.AddDirectEdgeIdx(3, 2)
	out, _, err := Dedup2Greedy(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "DEDUP2/direct-only", g, out)
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	empty := core.New(core.CDUP)
	for _, c := range allConverters() {
		out, _, err := c.fn(empty, Options{})
		if err != nil {
			t.Fatalf("%s on empty graph: %v", c.name, err)
		}
		if out.NumRealNodes() != 0 {
			t.Fatalf("%s: empty graph gained nodes", c.name)
		}
	}
	// A graph with isolated real nodes and one unshared virtual node.
	g := core.New(core.CDUP)
	g.Symmetric = true
	for i := int64(1); i <= 5; i++ {
		g.AddRealNode(i)
	}
	v := g.AddVirtualNode(1)
	g.AddMember(v, 0)
	g.AddMember(v, 1)
	for _, c := range allConverters() {
		out, _, err := c.fn(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertEquivalent(t, c.name, g, out)
	}
}
