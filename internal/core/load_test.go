package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// adjRows lists every adjacency row of g, real slots first, in a fixed
// order, so two graphs can be compared row for row.
func adjRows(g *Graph) [][]int32 {
	var rows [][]int32
	for r := range int32(len(g.realID)) {
		rows = append(rows, g.outVirt.row(r), g.inVirt.row(r), g.outReal.row(r), g.inReal.row(r))
	}
	for v := range int32(len(g.vLayer)) {
		rows = append(rows, g.vIn.row(v), g.vOut.row(v), g.vUndir.row(v), g.vInVirt.row(v), g.vOutVirt.row(v))
	}
	return rows
}

// checkLoaded compares got, built through Load, with want, the same nodes
// and edges added one call at a time: every row equal, got's arenas packed
// (no slack, every row at its length), the same virtual slots, layers and
// RepEdges, and got's MemBytes equal to that of want's packed Clone.
func checkLoaded(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVirtualSlots() != want.NumVirtualSlots() || got.NumVirtualNodes() != want.NumVirtualNodes() ||
		got.MaxLayer() != want.MaxLayer() || got.vOutSorted != want.vOutSorted {
		t.Fatalf("%d virtual slots, %d live, max layer %d, sorted %v; want %d, %d, %d, %v",
			got.NumVirtualSlots(), got.NumVirtualNodes(), got.MaxLayer(), got.vOutSorted,
			want.NumVirtualSlots(), want.NumVirtualNodes(), want.MaxLayer(), want.vOutSorted)
	}
	if !slices.Equal(got.vLayer, want.vLayer) {
		t.Fatalf("layers %v, want %v", got.vLayer, want.vLayer)
	}
	gr, wr := adjRows(got), adjRows(want)
	for i := range gr {
		if !slices.Equal(gr[i], wr[i]) {
			t.Fatalf("row %d: %v, one-at-a-time build %v", i, gr[i], wr[i])
		}
	}
	if err := packed(got); err != nil {
		t.Fatal(err)
	}
	if wantBytes := want.Clone().MemBytes(); got.RepEdges() != want.RepEdges() || got.MemBytes() != wantBytes {
		t.Fatalf("RepEdges %d MemBytes %d, want %d and %d", got.RepEdges(), got.MemBytes(), want.RepEdges(), wantBytes)
	}
}

// TestLoadDedup2MatchesNodeByNodeBuild loads what DEDUP-2's builder
// records — members added per virtual node, undirected neighbours half by
// half in an order of their own, symmetric direct edges — and checks it
// against the same structure added one node and one edge at a time
// through AddVirtualNode, AddMember, ConnectVirtUndirected and
// AddDirectEdgeIdx. An append to one loaded row, through the graph or to
// a returned row, must leave its neighbours in the shared arena alone.
func TestLoadDedup2MatchesNodeByNodeBuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nReal, nVirt := 1+rng.Intn(20), rng.Intn(12)
		members := make([][]int32, nVirt)
		for v := range members {
			for _, r := range rng.Perm(nReal)[:rng.Intn(nReal+1)] {
				members[v] = append(members[v], int32(r))
			}
		}
		reals := func() *Graph {
			g := New(DEDUP2)
			for i := 0; i < nReal; i++ {
				g.AddRealNode(int64(10 + i))
			}
			return g
		}
		want, got := reals(), reals()
		var b Batch
		for _, ms := range members {
			v := want.AddVirtualNode(1)
			b.AddVirtualNode(1)
			for _, r := range ms {
				want.AddMember(v, r)
				b.ConnectRealToVirt(r, v)
				b.ConnectVirtToReal(v, r)
			}
		}
		for k := rng.Intn(2*nVirt + 1); k > 0; k-- {
			v, w := int32(rng.Intn(nVirt)), int32(rng.Intn(nVirt))
			if v != w && !slices.Contains(want.VirtUndirected(v), w) {
				want.ConnectVirtUndirected(v, w)
			}
		}
		// The halves go in per node, in the order the rows hold them.
		for v := range int32(nVirt) {
			for _, w := range want.VirtUndirected(v) {
				b.AddUndirectedNeighbor(v, w)
			}
		}
		for k := rng.Intn(8); k > 0; k-- {
			x, y := int32(rng.Intn(nReal)), int32(rng.Intn(nReal))
			want.AddDirectEdgeIdx(x, y)
			want.AddDirectEdgeIdx(y, x)
			b.AddDirectEdgeIdx(x, y)
			b.AddDirectEdgeIdx(y, x)
		}
		got.Load(&b)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkLoaded(t, got, want) })

		before := make([][]int32, nVirt)
		for v := range before {
			before[v] = slices.Clone(got.VirtTargets(int32(v)))
		}
		for r := range int32(nReal) {
			got.AddDirectEdgeIdx(r, r)
			rowSink = append(got.OutVirtuals(r), -1)
		}
		for v := range before {
			rowSink = append(got.VirtSources(int32(v)), -1)
			if !slices.Equal(got.VirtTargets(int32(v)), before[v]) {
				t.Fatalf("seed %d: appending to other rows changed virtual node %d's members", seed, v)
			}
		}
	}
}

// liveFingerprint renders g with its removed virtual slots skipped and
// the live ones renumbered by rank, so that a graph and its
// compacted copy render alike.
func liveFingerprint(g *Graph) string {
	rank := make([]int32, len(g.vLayer))
	var n int32
	for v := range rank {
		rank[v] = n
		if !g.vDead[v] {
			n++
		}
	}
	var sb strings.Builder
	virt := func(row []int32) {
		for _, v := range row {
			fmt.Fprintf(&sb, " %d", rank[v])
		}
		sb.WriteString(" |")
	}
	real := func(row []int32) {
		fmt.Fprintf(&sb, " %v |", row)
	}
	for r := range int32(len(g.realID)) {
		fmt.Fprintf(&sb, "R%d:", g.realID[r])
		virt(g.OutVirtuals(r))
		virt(g.InVirtuals(r))
		real(g.OutDirect(r))
		real(g.InDirect(r))
		sb.WriteString("\n")
	}
	for v := range int32(len(g.vLayer)) {
		if g.vDead[v] {
			continue
		}
		fmt.Fprintf(&sb, "V%d L%d:", rank[v], g.vLayer[v])
		real(g.VirtSources(v))
		real(g.VirtTargets(v))
		virt(g.VirtInVirt(v))
		virt(g.VirtOutVirt(v))
		virt(g.VirtUndirected(v))
		sb.WriteString("\n")
	}
	return sb.String()
}

// neighborLists renders every live real node's logical out-neighbors.
func neighborLists(g *Graph) string {
	var sb strings.Builder
	g.ForEachReal(func(r int32) bool {
		fmt.Fprintf(&sb, "%d: %v\n", g.realID[r], g.NeighborsIdx(r))
		return true
	})
	return sb.String()
}

// FuzzLoad decodes random multi-layer graphs as sequences of edge
// additions, repeated pairs included, and adds each one both to a graph
// one call at a time and to a Batch that Load then writes: the two must
// agree row for row and in order, with zero arena slack after Load.
// Random RemoveVirtualNode steps then tombstone virtual nodes, and
// compactVirtual must drop exactly their slots without changing any
// logical neighbor list or the graph's live fingerprint, and leave a
// valid arena layout.
func FuzzLoad(f *testing.F) {
	f.Add([]byte{5, 4, 1, 1, 2, 0, 0, 1, 1, 0, 2, 1, 2, 0, 3, 2, 0, 1, 3, 2, 2, 0, 1, 2, 1, 3, 0, 0, 1, 9, 1, 2})
	f.Add([]byte{12, 8, 1, 2, 3, 1, 2, 3, 2, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 2, 0, 4, 3, 3, 3, 4, 4, 5, 1, 5, 2, 6, 2, 6, 7, 0, 7, 4, 4, 0, 2, 5, 3, 11, 2, 1, 7, 3})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 1, 2, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{7, 6, 1, 1, 2, 2, 3, 3, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2, 2, 1, 2, 3, 3, 2, 4, 5, 4, 5, 5, 4, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 3, 0, 0, 0, 2, 4, 1, 2, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nReal, nVirt := 1+next()%16, next()%12
		want, got := New(CDUP), New(CDUP)
		for i := 0; i < nReal; i++ {
			want.AddRealNode(int64(100 + i))
			got.AddRealNode(int64(100 + i))
		}
		var b Batch
		layers := make([]int32, nVirt)
		for v := range layers {
			layers[v] = 1 + int32(next()%3)
			want.AddVirtualNode(layers[v])
			b.AddVirtualNode(layers[v])
		}
		for n := next() % 64; n > 0; n-- {
			kind, x, y := next()%5, next(), next()
			r, s := int32(x%nReal), int32(y%nReal)
			if kind > 0 && nVirt == 0 {
				kind = 0
			}
			v, w := int32(x%max(nVirt, 1)), int32(y%max(nVirt, 1))
			switch kind {
			case 0:
				want.AddDirectEdgeIdx(r, s)
				b.AddDirectEdgeIdx(r, s)
			case 1:
				want.ConnectRealToVirt(r, w)
				b.ConnectRealToVirt(r, w)
			case 2:
				want.ConnectVirtToReal(v, s)
				b.ConnectVirtToReal(v, s)
			case 3:
				// Virtual edges run from a lower layer to a higher one.
				if layers[v] == layers[w] {
					continue
				}
				if layers[v] > layers[w] {
					v, w = w, v
				}
				want.ConnectVirtToVirt(v, w)
				b.ConnectVirtToVirt(v, w)
			case 4:
				want.ConnectVirtUndirected(v, w)
				b.AddUndirectedNeighbor(v, w)
				b.AddUndirectedNeighbor(w, v)
			}
		}
		got.Load(&b)
		checkLoaded(t, got, want)

		for _, x := range data {
			if nVirt > 0 {
				got.RemoveVirtualNode(int32(int(x) % nVirt))
			}
		}
		fp, nb := liveFingerprint(got), neighborLists(got)
		got.compactVirtual()
		if got.NumVirtualSlots() != got.NumVirtualNodes() {
			t.Fatalf("after compactVirtual: %d virtual slots for %d live nodes", got.NumVirtualSlots(), got.NumVirtualNodes())
		}
		if after := liveFingerprint(got); after != fp {
			t.Fatalf("compactVirtual changed the live graph:\n%s\nwas\n%s", after, fp)
		}
		if after := neighborLists(got); after != nb {
			t.Fatalf("compactVirtual changed the neighbors:\n%s\nwas\n%s", after, nb)
		}
		if err := got.VerifyLayout(); err != nil {
			t.Fatal(err)
		}
	})
}
