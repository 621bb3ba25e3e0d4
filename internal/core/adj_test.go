package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// This file checks the arena storage of adj.go: its layout after every
// kind of mutation (FuzzAdjacency, against a map-of-multisets model), the
// row contract the accessors give (cap == len, held rows keep their
// entries), and that Load, Clone and Expand leave no slack.

var rowSink []int32

// packed reports whether every kind of g is laid out as a fresh build
// leaves it: a valid layout, no slack, every row at its length and every
// arena at its exact size.
func packed(g *Graph) error {
	if err := g.VerifyLayout(); err != nil {
		return err
	}
	rk, vk := g.realKinds(), g.virtKinds()
	for i, a := range append(rk[:], vk[:]...) {
		if a.slack != 0 || len(a.arena) != cap(a.arena) {
			return fmt.Errorf("kind %d: slack %d, arena len %d cap %d", i, a.slack, len(a.arena), cap(a.arena))
		}
		for k, r := range a.recs {
			if r.len != r.cap {
				return fmt.Errorf("kind %d row %d: len %d cap %d", i, k, r.len, r.cap)
			}
		}
	}
	return nil
}

// accessors are the nine row accessors, the four real-node ones first.
var accessors = [...]struct {
	name string
	real bool
	row  func(g *Graph, k int32) []int32
}{
	{"OutVirtuals", true, (*Graph).OutVirtuals},
	{"OutDirect", true, (*Graph).OutDirect},
	{"InVirtuals", true, (*Graph).InVirtuals},
	{"InDirect", true, (*Graph).InDirect},
	{"VirtSources", false, (*Graph).VirtSources},
	{"VirtInVirt", false, (*Graph).VirtInVirt},
	{"VirtTargets", false, (*Graph).VirtTargets},
	{"VirtOutVirt", false, (*Graph).VirtOutVirt},
	{"VirtUndirected", false, (*Graph).VirtUndirected},
}

// deepRows is adjRows with every row copied.
func deepRows(g *Graph) [][]int32 {
	rows := adjRows(g)
	for i := range rows {
		rows[i] = slices.Clone(rows[i])
	}
	return rows
}

// TestAppendToReturnedRowLeavesGraphAlone appends to every row each of the
// nine accessors returns, on random condensed graphs built one edge at a
// time (so rows have spare capacity in the arena) with a ring of
// undirected virtual edges added (so all nine kinds hold rows): the
// graph's logical edges, RepEdges and every row must be unchanged.
func TestAppendToReturnedRowLeavesGraphAlone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomCondensed(seed, seed%2 == 1)
		for v := range int32(g.NumVirtualSlots()) {
			if w := (v + 1) % int32(g.NumVirtualSlots()); w != v {
				g.ConnectVirtUndirected(v, w)
			}
		}
		edges, rep, rows := g.EdgeSet(), g.RepEdges(), deepRows(g)
		for _, acc := range accessors {
			n := g.NumVirtualSlots()
			if acc.real {
				n = g.NumRealSlots()
			}
			for k := range int32(n) {
				row := acc.row(g, k)
				if len(row) != cap(row) {
					t.Fatalf("seed %d: %s(%d) has len %d cap %d", seed, acc.name, k, len(row), cap(row))
				}
				rowSink = append(row, -7, -7)
			}
			if !maps.Equal(g.EdgeSet(), edges) || g.RepEdges() != rep {
				t.Fatalf("seed %d: appending to %s rows changed the logical edges", seed, acc.name)
			}
			for i, row := range adjRows(g) {
				if !slices.Equal(row, rows[i]) {
					t.Fatalf("seed %d: appending to %s rows changed row %d: %v, was %v", seed, acc.name, i, row, rows[i])
				}
			}
		}
		if err := g.VerifyLayout(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestHeldRowKeepsEntries holds every virtual node's target row, taken
// before each step of a random sequence of pushes (some of which move a
// row to the arena's tail) and of virtual-node removals (some of which
// compact the arena into a fresh one) and re-adds: after the step, every
// held row must still read what it read when taken. The sequence is
// fixed, and the test checks that it both moves rows and compacts.
func TestHeldRowKeepsEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(CDUP)
	for i := range 64 {
		g.AddRealNode(int64(i))
	}
	for range 12 {
		g.ConnectVirtToReal(g.AddVirtualNode(1), 0)
	}
	type held struct{ row, want []int32 }
	moves, compactions := 0, 0
	for step := range 20000 {
		hs := make([]held, g.NumVirtualSlots())
		for v := range hs {
			row := g.VirtTargets(int32(v))
			hs[v] = held{row, slices.Clone(row)}
		}
		v := int32(rng.Intn(g.NumVirtualSlots()))
		slack, rec := g.vOut.slack, g.vOut.recs[v]
		if rng.Intn(40) == 0 {
			g.RemoveVirtualNode(v)
			g.AddVirtualNode(1)
			if g.vOut.slack < slack+int(rec.cap) {
				compactions++
			}
		} else {
			g.ConnectVirtToReal(v, int32(rng.Intn(64)))
			if g.vOut.recs[v].off != rec.off {
				moves++
			}
		}
		if err := g.VerifyLayout(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for k, h := range hs {
			if !slices.Equal(h.row, h.want) {
				t.Fatalf("step %d: held row %d reads %v, was %v", step, k, h.row, h.want)
			}
		}
	}
	t.Logf("%d moves, %d compactions", moves, compactions)
	if moves == 0 || compactions == 0 {
		t.Fatalf("%d moves and %d compactions; the sequence must do both", moves, compactions)
	}
	// A removal shifts the row it is taken from in place, as a Go slice
	// removal would.
	row := g.VirtTargets(0)
	want := slices.Clone(row[1:])
	g.DisconnectVirtToReal(0, row[0])
	if !slices.Equal(row[:len(want)], want) {
		t.Fatalf("removal: held row %v, want prefix %v", row, want)
	}
}

// TestClonePackedAfterChurn checks that a Clone of a graph whose arenas
// hold slack and spare capacity is packed, and equal row for row.
func TestClonePackedAfterChurn(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomCondensed(seed, seed%2 == 1)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 20 && g.NumVirtualNodes() > 0; k++ {
			if v := int32(rng.Intn(g.NumVirtualSlots())); g.VirtAlive(v) {
				g.RemoveVirtualNode(v)
			}
		}
		c := g.Clone()
		if err := packed(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gr, cr := adjRows(g), adjRows(c)
		for i := range gr {
			if !slices.Equal(gr[i], cr[i]) {
				t.Fatalf("seed %d row %d: clone %v, graph %v", seed, i, cr[i], gr[i])
			}
		}
	}
}

// adjModel is FuzzAdjacency's model: every row a multiset, keyed by kind
// and owner, owners and entries named by external ID (real nodes) or by a
// name given at creation (virtual nodes), so that the slot renumbering of
// Compact does not touch it.
type adjModel struct {
	rows  map[[2]int64]map[int64]int // {kind, owner} -> entry -> count
	vname []int64                    // virtual slot -> name, -1 when free
}

// Kind numbers follow VerifyLayout's order.
const (
	kOutVirt = iota
	kOutReal
	kInVirt
	kInReal
	kVIn
	kVInVirt
	kVOut
	kVOutVirt
	kVUndir
)

func (m *adjModel) add(kind int, owner, x int64) {
	key := [2]int64{int64(kind), owner}
	if m.rows[key] == nil {
		m.rows[key] = map[int64]int{}
	}
	m.rows[key][x]++
}

func (m *adjModel) remove(kind int, owner, x int64) {
	key := [2]int64{int64(kind), owner}
	if m.rows[key][x] > 0 {
		m.rows[key][x]--
		if m.rows[key][x] == 0 {
			delete(m.rows[key], x)
		}
	}
}

func (m *adjModel) row(kind int, owner int64) map[int64]int {
	return m.rows[[2]int64{int64(kind), owner}]
}

// removeVirtual mirrors Graph.RemoveVirtualNode on the model: every entry
// of v's rows takes one v out of its partner's row.
func (m *adjModel) removeVirtual(v int64) {
	partner := [...][2]int{{kVIn, kOutVirt}, {kVInVirt, kVOutVirt}, {kVOut, kInVirt}, {kVOutVirt, kVInVirt}, {kVUndir, kVUndir}}
	for _, p := range partner {
		for x, c := range maps.Clone(m.row(p[0], v)) {
			for range c {
				m.remove(p[1], x, v)
			}
		}
		delete(m.rows, [2]int64{int64(p[0]), v})
	}
}

// check compares every row of g, live or not, with the model.
func (m *adjModel) check(g *Graph) error {
	if err := g.VerifyLayout(); err != nil {
		return err
	}
	name := func(virt bool, e int32) int64 {
		if virt {
			return m.vname[e]
		}
		return g.realID[e]
	}
	entryVirt := [...]bool{true, false, true, false, false, true, false, true, true}
	for i, acc := range accessors {
		n, owner := g.NumVirtualSlots(), func(k int32) int64 { return m.vname[k] }
		if acc.real {
			n, owner = g.NumRealSlots(), func(k int32) int64 { return g.realID[k] }
		}
		for k := range int32(n) {
			got := map[int64]int{}
			for _, e := range acc.row(g, k) {
				got[name(entryVirt[i], e)]++
			}
			var want map[int64]int
			if acc.real || m.vname[k] >= 0 {
				want = m.row(i, owner(k))
			}
			if !maps.Equal(got, want) && len(got)+len(want) > 0 {
				return fmt.Errorf("%s(%d): %v, model %v", acc.name, k, got, want)
			}
		}
	}
	return nil
}

// FuzzAdjacency applies random sequences of AddMember, Connect*,
// Disconnect*, AddDirectEdgeIdx, RemoveDirectEdgeIdx, AddVirtualNode,
// RemoveVirtualNode, AddRealNode, DeleteVertexID, Compact, SortAdjacency
// and Clone to a graph and to a map-of-multisets model. After every step
// VerifyLayout must hold and every row must hold the model's entries;
// after a Clone the arenas must be packed.
func FuzzAdjacency(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 3, 3, 1, 4, 4})
	f.Add([]byte{1, 0, 0, 1, 1, 1, 0, 2, 2, 9, 0, 0, 12, 1, 0, 11, 0, 0, 13, 0, 0, 14, 0, 0})
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(fuzzAdjBody)
}

func fuzzAdjBody(t *testing.T, data []byte) {
	{
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		g := New(CDUP)
		m := &adjModel{rows: map[[2]int64]map[int64]int{}}
		nextID := int64(100)
		addReal := func() {
			g.AddRealNode(nextID)
			nextID++
		}
		nextName := int64(0)
		addVirtual := func() {
			v := g.AddVirtualNode(1)
			if int(v) == len(m.vname) {
				m.vname = append(m.vname, -1)
			}
			m.vname[v] = nextName
			nextName++
		}
		for range 4 {
			addReal()
		}
		addVirtual()
		// Every step checks every row, so the steps are capped to keep
		// long inputs from taking quadratic time.
		for step := 0; len(data) > 0 && step < 400; step++ {
			op, x, y := next()%17, next(), next()
			nr := int32(g.NumRealSlots())
			r, s := int32(x)%nr, int32(y)%nr
			v, w := none, none
			if nv := g.NumVirtualSlots(); nv > 0 {
				v, w = int32(x%nv), int32(y%nv)
				if !g.VirtAlive(v) || !g.VirtAlive(w) {
					v, w = none, none
				}
			}
			rid, sid := g.realID[r], g.realID[s]
			switch {
			case op == 0:
				addReal()
			case op == 1:
				addVirtual()
			case op == 2 && v != none:
				// A burst of members, so rows outgrow their capacity.
				for k := range int32(y % 24) {
					t := (r + k) % nr
					g.AddMember(v, t)
					m.add(kOutVirt, g.realID[t], m.vname[v])
					m.add(kVIn, m.vname[v], g.realID[t])
					m.add(kVOut, m.vname[v], g.realID[t])
					m.add(kInVirt, g.realID[t], m.vname[v])
				}
			case op == 3 && v != none:
				g.ConnectRealToVirt(s, v)
				m.add(kOutVirt, sid, m.vname[v])
				m.add(kVIn, m.vname[v], sid)
			case op == 4 && v != none:
				g.ConnectVirtToReal(v, s)
				m.add(kVOut, m.vname[v], sid)
				m.add(kInVirt, sid, m.vname[v])
			case op == 5 && v != none && v != w:
				g.ConnectVirtToVirt(v, w)
				m.add(kVOutVirt, m.vname[v], m.vname[w])
				m.add(kVInVirt, m.vname[w], m.vname[v])
			case op == 6 && v != none && v != w:
				g.ConnectVirtUndirected(v, w)
				m.add(kVUndir, m.vname[v], m.vname[w])
				m.add(kVUndir, m.vname[w], m.vname[v])
			case op == 7:
				g.AddDirectEdgeIdx(r, s)
				m.add(kOutReal, rid, sid)
				m.add(kInReal, sid, rid)
			case op == 8 && v != none:
				g.DisconnectRealToVirt(s, v)
				m.remove(kOutVirt, sid, m.vname[v])
				m.remove(kVIn, m.vname[v], sid)
			case op == 9 && v != none:
				g.DisconnectVirtToReal(v, s)
				m.remove(kVOut, m.vname[v], sid)
				m.remove(kInVirt, sid, m.vname[v])
			case op == 10 && v != none:
				g.DisconnectVirtToVirt(v, w)
				m.remove(kVOutVirt, m.vname[v], m.vname[w])
				m.remove(kVInVirt, m.vname[w], m.vname[v])
			case op == 11:
				g.RemoveDirectEdgeIdx(r, s)
				m.remove(kOutReal, rid, sid)
				m.remove(kInReal, sid, rid)
			case op == 12 && v != none:
				g.RemoveVirtualNode(v)
				m.removeVirtual(m.vname[v])
				m.vname[v] = -1
			case op == 13 && g.Alive(r) && g.NumRealNodes() > 1:
				if err := g.DeleteVertexID(rid); err != nil {
					t.Fatal(err)
				}
			case op == 14:
				m.compact(g)
				g.Compact()
			case op == 15:
				g.SortAdjacency()
			case op == 16:
				g = g.Clone()
				if err := packed(g); err != nil {
					t.Fatalf("step %d: Clone: %v", step, err)
				}
			}
			if err := m.check(g); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
		}
	}
}

// compact mirrors Graph.Compact on the model, before g runs it: the
// tombstoned reals' rows go, entries naming them go from every virtual
// node's and live real's rows, then each virtual node left without a
// source side or a target side is removed in slot order, and the free
// virtual slots are dropped.
func (m *adjModel) compact(g *Graph) {
	if g.numDead == 0 {
		return
	}
	dead := map[int64]bool{}
	for r, id := range g.realID {
		if g.dead[r] {
			dead[id] = true
		}
	}
	for key, row := range m.rows {
		kind, owner := int(key[0]), key[1]
		realOwner := kind <= kInReal
		if realOwner && dead[owner] {
			delete(m.rows, key)
			continue
		}
		if kind == kOutReal || kind == kInReal || kind == kVIn || kind == kVOut {
			for x := range row {
				if dead[x] {
					delete(row, x)
				}
			}
		}
	}
	empty := func(a, b int, v int64) bool { return len(m.row(a, v))+len(m.row(b, v)) == 0 }
	for k, v := range m.vname {
		if v >= 0 && (empty(kVIn, kVInVirt, v) || empty(kVOut, kVOutVirt, v)) {
			m.removeVirtual(v)
			m.vname[k] = -1
		}
	}
	m.vname = slices.DeleteFunc(m.vname, func(v int64) bool { return v < 0 })
}
