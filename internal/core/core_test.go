package core

import (
	"slices"
	"sort"
	"testing"
)

// buildOverlap returns a single-layer symmetric condensed graph with two
// overlapping virtual nodes: V1 = {1,2,3}, V2 = {1,3,4}. The pair (1,3) has
// two paths, so the graph is duplicated.
func buildOverlap(mode Mode) *Graph {
	g := New(mode)
	g.Symmetric = true
	for id := int64(1); id <= 4; id++ {
		g.AddRealNode(id)
	}
	v1 := g.AddVirtualNode(1)
	v2 := g.AddVirtualNode(1)
	for _, id := range []int64{1, 2, 3} {
		r, _ := g.RealIndex(id)
		g.AddMember(v1, r)
	}
	for _, id := range []int64{1, 3, 4} {
		r, _ := g.RealIndex(id)
		g.AddMember(v2, r)
	}
	g.SortAdjacency()
	return g
}

func neighborsOf(t *testing.T, g *Graph, id int64) []int64 {
	t.Helper()
	var out []int64
	it := g.Neighbors(id)
	for {
		n, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCDUPNeighborsDeduplicateOnTheFly(t *testing.T) {
	g := buildOverlap(CDUP)
	got := neighborsOf(t, g, 1)
	want := []int64{2, 3, 4}
	if !equalIDs(got, want) {
		t.Fatalf("neighbors(1) = %v, want %v", got, want)
	}
	if got := neighborsOf(t, g, 2); !equalIDs(got, []int64{1, 3}) {
		t.Fatalf("neighbors(2) = %v, want [1 3]", got)
	}
}

func TestCDUPSelfLoops(t *testing.T) {
	g := buildOverlap(CDUP)
	g.SelfLoops = true
	got := neighborsOf(t, g, 1)
	want := []int64{1, 2, 3, 4}
	if !equalIDs(got, want) {
		t.Fatalf("with self loops, neighbors(1) = %v, want %v", got, want)
	}
}

func TestVerifyNoDuplicatesDetectsDuplication(t *testing.T) {
	g := buildOverlap(DEDUP1) // claims DEDUP-1 but has duplicate paths
	if err := g.VerifyNoDuplicates(); err == nil {
		t.Fatal("expected duplicate detection on overlapping virtual nodes")
	}
	clean := New(DEDUP1)
	for id := int64(1); id <= 3; id++ {
		clean.AddRealNode(id)
	}
	v := clean.AddVirtualNode(1)
	for r := int32(0); r < 3; r++ {
		clean.AddMember(v, r)
	}
	if err := clean.VerifyNoDuplicates(); err != nil {
		t.Fatalf("clean graph reported duplicates: %v", err)
	}
}

func TestExistsEdge(t *testing.T) {
	g := buildOverlap(CDUP)
	cases := []struct {
		u, v int64
		want bool
	}{
		{1, 2, true}, {2, 1, true}, {1, 3, true}, {2, 4, false},
		{1, 1, false}, // self loops disabled
		{9, 1, false}, {1, 9, false},
	}
	for _, c := range cases {
		if got := g.ExistsEdge(c.u, c.v); got != c.want {
			t.Errorf("ExistsEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestLogicalAndRepEdgeCounts(t *testing.T) {
	g := buildOverlap(CDUP)
	// Logical undirected pairs: within {1,2,3} and {1,3,4}: (1,2),(1,3),
	// (2,3),(1,4),(3,4) -> 5 pairs -> 10 directed logical edges.
	if got := g.LogicalEdges(); got != 10 {
		t.Fatalf("LogicalEdges = %d, want 10", got)
	}
	// Physical: 3+3 members, each contributing an in and an out edge.
	if got := g.RepEdges(); got != 12 {
		t.Fatalf("RepEdges = %d, want 12", got)
	}
	paths, dupPairs := g.DuplicationStats()
	if paths != 12 { // 6 ordered pairs per virtual node (3 members each)
		t.Fatalf("paths = %d, want 12", paths)
	}
	if dupPairs != 2 { // (1,3) and (3,1)
		t.Fatalf("dupPairs = %d, want 2", dupPairs)
	}
}

func TestMultiLayerTraversal(t *testing.T) {
	// r1 -> A -> B -> r2 ; r1 -> C -> r2 : pair (r1, r2) duplicated.
	g := New(CDUP)
	r1 := g.AddRealNode(1)
	r2 := g.AddRealNode(2)
	a := g.AddVirtualNode(1)
	b := g.AddVirtualNode(2)
	c := g.AddVirtualNode(1)
	g.ConnectRealToVirt(r1, a)
	g.ConnectVirtToVirt(a, b)
	g.ConnectVirtToReal(b, r2)
	g.ConnectRealToVirt(r1, c)
	g.ConnectVirtToReal(c, r2)
	if got := neighborsOf(t, g, 1); !equalIDs(got, []int64{2}) {
		t.Fatalf("neighbors(1) = %v, want [2]", got)
	}
	if !g.ExistsEdge(1, 2) || g.ExistsEdge(2, 1) {
		t.Fatal("ExistsEdge wrong on multi-layer graph")
	}
	if g.MaxLayer() != 2 {
		t.Fatalf("MaxLayer = %d, want 2", g.MaxLayer())
	}
	if err := g.VerifyDAG(); err != nil {
		t.Fatalf("VerifyDAG: %v", err)
	}
	// In-neighbors of r2 must be {r1}, deduplicated.
	var ins []int64
	g.ForInNeighbors(r2, func(s int32) bool { ins = append(ins, g.RealID(s)); return true })
	if !equalIDs(ins, []int64{1}) {
		t.Fatalf("in-neighbors(2) = %v, want [1]", ins)
	}
}

func TestAddDeleteEdge(t *testing.T) {
	g := buildOverlap(CDUP)
	if err := g.AddEdge(2, 4); err != nil {
		t.Fatal(err)
	}
	if !g.ExistsEdge(2, 4) {
		t.Fatal("edge 2->4 missing after AddEdge")
	}
	// Delete a virtual-path edge: 1 -> 3 (exists through both V1 and V2).
	if err := g.DeleteEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if g.ExistsEdge(1, 3) {
		t.Fatal("edge 1->3 still present after DeleteEdge")
	}
	// All other logical out-edges of 1 must survive.
	if got := neighborsOf(t, g, 1); !equalIDs(got, []int64{2, 4}) {
		t.Fatalf("neighbors(1) = %v, want [2 4]", got)
	}
	// The reverse direction was not touched.
	if !g.ExistsEdge(3, 1) {
		t.Fatal("edge 3->1 should remain")
	}
	if err := g.DeleteEdge(1, 3); err == nil {
		t.Fatal("expected error deleting a missing edge")
	}
}

func TestLazyDeleteVertexAndCompact(t *testing.T) {
	g := buildOverlap(CDUP)
	if err := g.DeleteVertex(3); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	// 3 must vanish from every neighborhood even before Compact.
	if got := neighborsOf(t, g, 1); !equalIDs(got, []int64{2, 4}) {
		t.Fatalf("neighbors(1) = %v, want [2 4]", got)
	}
	if g.ExistsEdge(1, 3) || g.ExistsEdge(3, 1) {
		t.Fatal("edges to deleted vertex must not exist")
	}
	if g.DeletedFraction() == 0 {
		t.Fatal("DeletedFraction should be positive")
	}
	before := g.EdgeSetByID()
	g.Compact()
	if g.NumRealSlots() != 3 {
		t.Fatalf("NumRealSlots after Compact = %d, want 3", g.NumRealSlots())
	}
	after := g.EdgeSetByID()
	if len(before) != len(after) {
		t.Fatalf("edge set changed by Compact: %d vs %d", len(before), len(after))
	}
	for e := range before {
		if _, ok := after[e]; !ok {
			t.Fatalf("edge %v lost by Compact", e)
		}
	}
	if err := g.DeleteVertex(3); err == nil {
		t.Fatal("expected error deleting an already-deleted vertex")
	}
}

func TestExpandEquivalence(t *testing.T) {
	g := buildOverlap(CDUP)
	exp, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Mode() != EXP {
		t.Fatalf("mode = %v, want EXP", exp.Mode())
	}
	want := g.EdgeSetByID()
	got := exp.EdgeSetByID()
	if len(want) != len(got) {
		t.Fatalf("edge count mismatch: CDUP %d vs EXP %d", len(want), len(got))
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			t.Fatalf("edge %v missing in EXP", e)
		}
	}
	if err := exp.VerifyNoDuplicates(); err != nil {
		t.Fatal(err)
	}
}

func TestExpandBudget(t *testing.T) {
	g := buildOverlap(CDUP)
	if _, err := g.Expand(3); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestPreprocessExpandSmall(t *testing.T) {
	// Virtual node with 2 members: in*out = 4 > in+out+1 = 5? No: 4 <= 5,
	// so it must be expanded. A 3-member node (9 > 7) must stay.
	g := New(CDUP)
	g.Symmetric = true
	for id := int64(1); id <= 5; id++ {
		g.AddRealNode(id)
	}
	small := g.AddVirtualNode(1)
	g.AddMember(small, 0)
	g.AddMember(small, 1)
	big := g.AddVirtualNode(1)
	g.AddMember(big, 2)
	g.AddMember(big, 3)
	g.AddMember(big, 4)
	before := g.EdgeSetByID()
	n := g.PreprocessExpandSmall(2)
	if n != 1 {
		t.Fatalf("expanded %d virtual nodes, want 1", n)
	}
	if g.NumVirtualNodes() != 1 {
		t.Fatalf("NumVirtualNodes = %d, want 1", g.NumVirtualNodes())
	}
	after := g.EdgeSetByID()
	if len(before) != len(after) {
		t.Fatalf("preprocessing changed the logical edge set: %d vs %d", len(before), len(after))
	}
	// The expanded node's slot is dropped and the survivor renumbered.
	if g.NumVirtualSlots() != 1 || !slices.Equal(g.VirtSources(0), []int32{2, 3, 4}) || !slices.Equal(g.OutVirtuals(2), []int32{0}) {
		t.Fatalf("%d virtual slots, slot 0 sources %v, real 2's virtuals %v; want 1, [2 3 4], [0]",
			g.NumVirtualSlots(), g.VirtSources(0), g.OutVirtuals(2))
	}
}

// TestRemovedVirtualSlotIsReused checks that RemoveVirtualNode frees its
// slot and the next AddVirtualNode takes it back, empty, in its own layer
// and without the masks the removed node had.
func TestRemovedVirtualSlotIsReused(t *testing.T) {
	g := buildOverlap(CDUP)
	g.SetBitmap(0, 0, []uint64{1})
	g.RemoveVirtualNode(0)
	if g.NumVirtualSlots() != 2 || g.NumVirtualNodes() != 1 || g.VirtAlive(0) {
		t.Fatalf("after remove: %d slots, %d live, slot 0 alive %v", g.NumVirtualSlots(), g.NumVirtualNodes(), g.VirtAlive(0))
	}
	v := g.AddVirtualNode(2)
	if v != 0 || g.NumVirtualSlots() != 2 || g.NumVirtualNodes() != 2 || !g.VirtAlive(0) || g.VirtLayer(0) != 2 {
		t.Fatalf("AddVirtualNode = %d: %d slots, %d live, layer %d", v, g.NumVirtualSlots(), g.NumVirtualNodes(), g.VirtLayer(v))
	}
	if len(g.VirtSources(v))+len(g.VirtTargets(v)) != 0 || g.NumBitmaps() != 0 {
		t.Fatalf("reused slot holds sources %v, targets %v, %d masks", g.VirtSources(v), g.VirtTargets(v), g.NumBitmaps())
	}
	if w := g.AddVirtualNode(1); w != 2 {
		t.Fatalf("with no free slot AddVirtualNode = %d, want the new slot 2", w)
	}
}

func TestPropertiesAndVertexAPI(t *testing.T) {
	g := New(CDUP)
	if err := g.AddVertex(7); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(7); err == nil {
		t.Fatal("expected duplicate-vertex error")
	}
	if err := g.SetPropertyOf(7, "name", "alice"); err != nil {
		t.Fatal(err)
	}
	if v, ok := g.PropertyOf(7, "name"); !ok || v != "alice" {
		t.Fatalf("PropertyOf = %q, %v", v, ok)
	}
	if _, ok := g.PropertyOf(7, "missing"); ok {
		t.Fatal("unexpected property")
	}
	if err := g.SetPropertyOf(8, "k", "v"); err == nil {
		t.Fatal("expected missing-vertex error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildOverlap(CDUP)
	c := g.Clone()
	if err := c.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.ExistsEdge(1, 2) {
		t.Fatal("mutating the clone affected the original")
	}
	if c.ExistsEdge(1, 2) {
		t.Fatal("clone edge not deleted")
	}
}

func TestDedup2NeighborsAndInvariants(t *testing.T) {
	// Figure 6(c)-style DEDUP-2 graph: W1 = {u1,u2,u3}, W2 = {a,b,c},
	// W1 <-> W2. Every member of W1 must see the other members of W1 and
	// all of W2 (and vice versa).
	g := New(DEDUP2)
	g.Symmetric = true
	ids := []int64{1, 2, 3, 4, 5, 6} // u1,u2,u3,a,b,c
	for _, id := range ids {
		g.AddRealNode(id)
	}
	w1 := g.AddVirtualNode(1)
	w2 := g.AddVirtualNode(1)
	for r := int32(0); r < 3; r++ {
		g.AddMember(w1, r)
	}
	for r := int32(3); r < 6; r++ {
		g.AddMember(w2, r)
	}
	g.ConnectVirtUndirected(w1, w2)
	if err := g.VerifyDedup2Invariants(); err != nil {
		t.Fatal(err)
	}
	if got := neighborsOf(t, g, 1); !equalIDs(got, []int64{2, 3, 4, 5, 6}) {
		t.Fatalf("neighbors(1) = %v", got)
	}
	if got := neighborsOf(t, g, 4); !equalIDs(got, []int64{1, 2, 3, 5, 6}) {
		t.Fatalf("neighbors(4) = %v", got)
	}
	if !g.ExistsEdge(1, 6) || !g.ExistsEdge(6, 1) {
		t.Fatal("1-hop virtual reachability broken")
	}
	// 22 edges claim of Figure 6(c) scales here to: 6 member edges once
	// each for in+out... RepEdges counts 6 in + 6 out + 1 undirected = 13.
	if got := g.RepEdges(); got != 13 {
		t.Fatalf("RepEdges = %d, want 13", got)
	}
	// Logical: complete graph K6 = 30 directed edges.
	if got := g.LogicalEdges(); got != 30 {
		t.Fatalf("LogicalEdges = %d, want 30", got)
	}
}

func TestDedup2DeleteEdge(t *testing.T) {
	g := New(DEDUP2)
	g.Symmetric = true
	for id := int64(1); id <= 4; id++ {
		g.AddRealNode(id)
	}
	v := g.AddVirtualNode(1)
	for r := int32(0); r < 4; r++ {
		g.AddMember(v, r)
	}
	if err := g.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.ExistsEdge(1, 2) || g.ExistsEdge(2, 1) {
		t.Fatal("DEDUP-2 deletion is undirected; both directions must go")
	}
	for _, pair := range [][2]int64{{1, 3}, {1, 4}, {2, 3}, {3, 4}} {
		if !g.ExistsEdge(pair[0], pair[1]) {
			t.Fatalf("edge %v lost", pair)
		}
	}
	if err := g.VerifyNoDuplicates(); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenToSingleLayer(t *testing.T) {
	// r1,r2 -> A -> B -> r3,r4 ; r2 -> C(layer1) -> r4: mixed layers.
	g := New(CDUP)
	for i := int64(1); i <= 4; i++ {
		g.AddRealNode(i)
	}
	a := g.AddVirtualNode(1)
	b := g.AddVirtualNode(2)
	c := g.AddVirtualNode(1)
	g.ConnectRealToVirt(0, a)
	g.ConnectRealToVirt(1, a)
	g.ConnectVirtToVirt(a, b)
	g.ConnectVirtToReal(b, 2)
	g.ConnectVirtToReal(b, 3)
	g.ConnectRealToVirt(1, c)
	g.ConnectVirtToReal(c, 3)
	before := g.EdgeSetByID()
	if err := g.FlattenToSingleLayer(0); err != nil {
		t.Fatal(err)
	}
	if got := g.MaxLayer(); got > 1 {
		t.Fatalf("MaxLayer after flatten = %d", got)
	}
	if g.NumVirtualSlots() != g.NumVirtualNodes() {
		t.Fatalf("flatten left %d virtual slots for %d live nodes", g.NumVirtualSlots(), g.NumVirtualNodes())
	}
	after := g.EdgeSetByID()
	if len(before) != len(after) {
		t.Fatalf("flatten changed the edge set: %d vs %d", len(before), len(after))
	}
	for e := range before {
		if _, ok := after[e]; !ok {
			t.Fatalf("edge %v lost", e)
		}
	}
	// Budget trip leaves an equivalent graph behind.
	g2 := New(CDUP)
	for i := int64(1); i <= 30; i++ {
		g2.AddRealNode(i)
	}
	top := g2.AddVirtualNode(2)
	for r := int32(15); r < 30; r++ {
		g2.ConnectVirtToReal(top, r)
	}
	for r := int32(0); r < 15; r++ {
		v := g2.AddVirtualNode(1)
		g2.ConnectRealToVirt(r, v)
		g2.ConnectVirtToVirt(v, top)
	}
	want := g2.EdgeSetByID()
	if err := g2.FlattenToSingleLayer(10); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if g2.NumVirtualSlots() != g2.NumVirtualNodes() {
		t.Fatalf("partial flatten left %d virtual slots for %d live nodes", g2.NumVirtualSlots(), g2.NumVirtualNodes())
	}
	got := g2.EdgeSetByID()
	if len(want) != len(got) {
		t.Fatalf("partial flatten broke equivalence: %d vs %d", len(want), len(got))
	}
}

func TestIteratorContract(t *testing.T) {
	g := buildOverlap(CDUP)
	it := g.Vertices()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("vertex iterator yielded %d, want 4", n)
	}
	// Exhausted iterators stay exhausted.
	if _, ok := it.Next(); ok {
		t.Fatal("iterator restarted after exhaustion")
	}
	// Unknown vertex yields empty neighbor iterator.
	if _, ok := g.Neighbors(99).Next(); ok {
		t.Fatal("neighbors of unknown vertex should be empty")
	}
}
