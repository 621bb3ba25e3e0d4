package incremental

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// checkCountState asserts the invariants of the support counts: every
// stored count is positive and reachable by its own probe, each live
// code's reference count equals the endpoint positions of the entries
// naming it (a live code nobody names is a leak), a free code has no
// references and is named by no entry, and the dictionary's maps hold
// exactly the live codes, once each.
func checkCountState(t *testing.T, lv *Live, step string) {
	t.Helper()
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	d := lv.codes
	named := make([]int32, len(d.refs))
	for ri, rs := range lv.rules {
		for si := range rs.counts {
			tab := &rs.counts[si]
			n := 0
			for i, c := range tab.counts {
				if c == 0 {
					continue
				}
				key := tab.keys[i]
				if c < 0 {
					t.Fatalf("%s: rule %d segment %d: pair %#x has count %d", step, ri, si, key, c)
				}
				if j := tab.find(key); j != i {
					t.Fatalf("%s: rule %d segment %d: pair %#x in slot %d, its probe stops at %d", step, ri, si, key, i, j)
				}
				in, out := key>>32, uint32(key)
				if in >= uint64(len(named)) || int(out) >= len(named) {
					t.Fatalf("%s: rule %d segment %d: pair %#x names a code past the dictionary's %d", step, ri, si, key, len(named))
				}
				named[in]++
				named[out]++
				n++
			}
			if n != tab.n {
				t.Fatalf("%s: rule %d segment %d holds %d entries, counts %d", step, ri, si, n, tab.n)
			}
		}
	}
	free := make(map[uint32]bool)
	for _, c := range d.free {
		if free[c] {
			t.Fatalf("%s: code %d is on the free list twice", step, c)
		}
		free[c] = true
	}
	for c, r := range d.refs {
		switch {
		case free[uint32(c)] && (r != 0 || named[c] != 0):
			t.Fatalf("%s: free code %d has %d references, %d entry endpoints name it", step, c, r, named[c])
		case !free[uint32(c)] && (r != named[c] || r <= 0):
			t.Fatalf("%s: code %d has %d references, %d entry endpoints name it", step, c, r, named[c])
		}
	}
	mapped := make(map[uint32]bool)
	mapCode := func(c uint32) {
		if free[c] || mapped[c] || int(c) >= len(d.refs) {
			t.Fatalf("%s: the dictionary maps a value to code %d: free %v, mapped before %v", step, c, free[c], mapped[c])
		}
		mapped[c] = true
	}
	for _, c := range d.ints {
		mapCode(c)
	}
	for _, c := range d.strs {
		mapCode(c)
	}
	if len(mapped) != d.live() {
		t.Fatalf("%s: the dictionary maps %d values, %d codes are live", step, len(mapped), d.live())
	}
}

// TestPairCountsRange feeds one table net changes at both edges of the
// int32 range: a change that would leave it is refused and leaves the
// count as it was.
func TestPairCountsRange(t *testing.T) {
	var tab pairCounts
	k := uint64(3)<<32 | 7
	if _, _, ok := tab.add(k, -1); ok || tab.n != 0 {
		t.Fatalf("an absent pair went below zero: ok %v, %d entries", ok, tab.n)
	}
	if old, now, ok := tab.add(k, math.MaxInt32); !ok || old != 0 || now != math.MaxInt32 {
		t.Fatalf("add MaxInt32 = %d, %d, %v", old, now, ok)
	}
	for _, dn := range []int64{1, math.MaxInt32, -math.MaxInt32 - 1, math.MinInt64} {
		if _, _, ok := tab.add(k, dn); ok || tab.get(k) != math.MaxInt32 || tab.n != 1 {
			t.Fatalf("add %d to MaxInt32: ok %v, count %d, %d entries", dn, ok, tab.get(k), tab.n)
		}
	}
	if old, now, ok := tab.add(k, -math.MaxInt32); !ok || old != math.MaxInt32 || now != 0 || tab.n != 0 || tab.get(k) != 0 {
		t.Fatalf("add -MaxInt32 = %d, %d, %v with %d entries left", old, now, ok, tab.n)
	}
}

// TestPairCountsMatchesMap runs random changes over a small key space,
// where probe runs are long and deletes shift entries back, against a Go
// map.
func TestPairCountsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab pairCounts
	model := make(map[uint64]int32)
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = uint64(rng.Intn(8))<<32 | uint64(rng.Intn(8))
	}
	for op := 0; op < 20000; op++ {
		k := keys[rng.Intn(len(keys))]
		dn := int64(rng.Intn(5) - 2)
		old, now, ok := tab.add(k, dn)
		if want := int64(model[k]) + dn; ok != (want >= 0) || old != model[k] || ok && int64(now) != want {
			t.Fatalf("op %d: add(%#x, %d) = %d, %d, %v; model count %d", op, k, dn, old, now, ok, model[k])
		}
		if ok {
			if now == 0 {
				delete(model, k)
			} else {
				model[k] = now
			}
		}
		if tab.n != len(model) {
			t.Fatalf("op %d: %d entries, model %d", op, tab.n, len(model))
		}
		for _, k := range keys {
			if tab.get(k) != model[k] {
				t.Fatalf("op %d: get(%#x) = %d, model %d", op, k, tab.get(k), model[k])
			}
		}
	}
	if 2*tab.n > len(tab.keys) {
		t.Fatalf("%d entries in %d slots: more than half full", tab.n, len(tab.keys))
	}
}

// knowsDB is SNB at scale factor sf; knows is its Knows table.
func knowsDB(t *testing.T, sf float64) (db *relstore.DB, knows *relstore.Table, prog *datalog.Program) {
	t.Helper()
	db = datagen.SNB(datagen.SNBConfig{Seed: 1, ScaleFactor: sf})
	knows, err := db.Table("Knows")
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = datalog.Parse(datagen.QueryKnows); err != nil {
		t.Fatal(err)
	}
	return db, knows, prog
}

// TestLiveCountStateBytes builds the served SNB SF 1 Knows session, drops
// its count state and reads what the heap gave back: at most 2 MiB (the
// Value-keyed maps held 5 MB), and within 15 % of what Stats prices the
// state at. Its entries are the distinct Knows rows.
func TestLiveCountStateBytes(t *testing.T) {
	db, knows, prog := knowsDB(t, 1)
	lv, err := New(db, prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	distinct := make(map[[2]int64]bool)
	for _, row := range knows.Rows {
		distinct[[2]int64{row[0].I, row[1].I}] = true
	}
	st := lv.Stats()
	if st.CountEntries != int64(len(distinct)) {
		t.Fatalf("%d count entries, %d distinct Knows rows", st.CountEntries, len(distinct))
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	lv.mu.Lock()
	for _, rs := range lv.rules {
		rs.counts = nil
	}
	lv.codes = nil
	lv.mu.Unlock()
	delta := before - heap()
	runtime.KeepAlive(lv)
	t.Logf("%d entries: count state %d B on the heap, Stats prices %d B", st.CountEntries, delta, st.CountBytes)
	if delta > 2<<20 {
		t.Errorf("count state holds %d B, want <= %d", delta, 2<<20)
	}
	if math.Abs(float64(st.CountBytes-delta)) > 0.15*float64(delta) {
		t.Errorf("Stats.CountBytes = %d, the heap gave back %d B: more than 15 %% apart", st.CountBytes, delta)
	}
}

// TestLiveSkippedPairChurn repeats the served mutation a thousand times:
// insert a Knows row whose endpoints are not persons (a skipped pair),
// flush, delete it, flush. Each round codes two endpoints and frees them
// again, so the dictionary and the tables end where they started.
func TestLiveSkippedPairChurn(t *testing.T) {
	db, knows, prog := knowsDB(t, 0.1)
	opts := extract.Options{}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	state := func() (live, codes int, entries int64) {
		if err := lv.Flush(); err != nil {
			t.Fatal(err)
		}
		st := lv.Stats()
		lv.mu.RLock()
		defer lv.mu.RUnlock()
		return lv.codes.live(), len(lv.codes.refs), st.CountEntries
	}
	live0, codes0, entries0 := state()
	for i := int64(0); i < 1000; i++ {
		row := []relstore.Value{relstore.IntVal(900_000_000 + i%7), relstore.IntVal(900_100_000 + i%11)}
		if err := knows.Insert(row...); err != nil {
			t.Fatal(err)
		}
		if live, _, entries := state(); live != live0+2 || entries != entries0+1 {
			t.Fatalf("round %d: %d live codes, %d entries after the insert; %d, %d before", i, live, entries, live0, entries0)
		}
		if ok, _ := knows.Delete(row...); !ok {
			t.Fatal("delete failed")
		}
		state()
	}
	live, codes, entries := state()
	if live != live0 || codes > codes0+2 || entries != entries0 {
		t.Fatalf("after 1000 rounds: %d live codes of %d, %d entries; %d of %d and %d at the start",
			live, codes, entries, live0, codes0, entries0)
	}
	if st := lv.Stats(); st.Rebuilds != 0 || st.SkippedRows != 1000 {
		t.Fatalf("%d rebuilds, %d skipped rows; want 0 and one per insert", st.Rebuilds, st.SkippedRows)
	}
	checkEquivalence(t, lv, db, prog, opts, "after churn")
}

// TestLiveIntAndStringEndpoints joins on Int 5 in one rule and on String
// "5" in another: they are two endpoints with two codes, and the live
// graph equals a fresh extraction after the rows of either are deleted.
func TestLiveIntAndStringEndpoints(t *testing.T) {
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ip, _ := db.Create("IP", relstore.Column{Name: "person", Type: relstore.Int}, relstore.Column{Name: "grp", Type: relstore.Int})
	sp, _ := db.Create("SP", relstore.Column{Name: "person", Type: relstore.Int}, relstore.Column{Name: "tag", Type: relstore.String})
	for p := int64(1); p <= 4; p++ {
		person.Insert(relstore.IntVal(p), relstore.StrVal(fmt.Sprintf("p%d", p)))
	}
	ipRows := [][]relstore.Value{{relstore.IntVal(1), relstore.IntVal(5)}, {relstore.IntVal(2), relstore.IntVal(5)}, {relstore.IntVal(3), relstore.IntVal(6)}}
	spRows := [][]relstore.Value{{relstore.IntVal(3), relstore.StrVal("5")}, {relstore.IntVal(4), relstore.StrVal("5")}, {relstore.IntVal(1), relstore.StrVal("x")}}
	for i := range ipRows {
		ip.Insert(ipRows[i]...)
		sp.Insert(spRows[i]...)
	}
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Person(ID, Name).
Edges(A, B) :- IP(A, G), IP(B, G).
Edges(A, B) :- SP(A, T), SP(B, T).
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{LargeOutputFactor: 2, ForceCondensed: true}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	coded := func() (intCode, strCode uint32, intOK, strOK bool) {
		lv.mu.RLock()
		defer lv.mu.RUnlock()
		intCode, intOK = lv.codes.lookup(relstore.IntVal(5))
		strCode, strOK = lv.codes.lookup(relstore.StrVal("5"))
		return
	}
	checkEquivalence(t, lv, db, prog, opts, "build")
	if ic, sc, iok, sok := coded(); !iok || !sok || ic == sc {
		t.Fatalf("Int 5 coded %d (%v), String \"5\" coded %d (%v): want two codes", ic, iok, sc, sok)
	}
	for _, row := range ipRows[:2] {
		ip.Delete(row...)
	}
	checkEquivalence(t, lv, db, prog, opts, "Int 5 deleted")
	if _, _, iok, sok := coded(); iok || !sok {
		t.Fatalf("after deleting the Int 5 rows: Int 5 coded %v, String \"5\" coded %v", iok, sok)
	}
	for _, row := range spRows[:2] {
		sp.Delete(row...)
	}
	checkEquivalence(t, lv, db, prog, opts, "String \"5\" deleted")
	if _, _, _, sok := coded(); sok {
		t.Fatal("String \"5\" still coded after its rows were deleted")
	}
}

// TestLiveCountOutOfRange drives a flush past both edges of a count's
// range by setting counts under the live session: the flush applies
// nothing and reports the failure, and the next change rebuilds.
func TestLiveCountOutOfRange(t *testing.T) {
	db := relstore.NewDB()
	person, _ := db.Create("Person", relstore.Column{Name: "id", Type: relstore.Int})
	knows, _ := db.Create("Knows", relstore.Column{Name: "a", Type: relstore.Int}, relstore.Column{Name: "b", Type: relstore.Int})
	for p := int64(1); p <= 4; p++ {
		person.Insert(relstore.IntVal(p))
	}
	knows.Insert(relstore.IntVal(1), relstore.IntVal(2))
	knows.Insert(relstore.IntVal(2), relstore.IntVal(3))
	prog, err := datalog.Parse("Nodes(ID) :- Person(ID).\nEdges(A, B) :- Knows(A, B).")
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{}
	lv, err := New(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	// setCount moves the stored count of (a, b) by dn behind the
	// maintenance's back.
	setCount := func(a, b int64, dn int64) {
		lv.mu.Lock()
		defer lv.mu.Unlock()
		in, _ := lv.codes.lookup(relstore.IntVal(a))
		out, _ := lv.codes.lookup(relstore.IntVal(b))
		if _, _, ok := lv.rules[0].counts[0].add(uint64(in)<<32|uint64(out), dn); !ok {
			t.Fatalf("setting the count of (%d, %d)", a, b)
		}
	}
	for _, c := range []struct {
		name   string
		a, b   int64
		dn     int64
		change func() error
	}{
		{"past MaxInt32", 1, 2, math.MaxInt32 - 1, func() error { return knows.Insert(relstore.IntVal(1), relstore.IntVal(2)) }},
		{"below zero", 2, 3, -1, func() error { _, err := knows.Delete(relstore.IntVal(2), relstore.IntVal(3)); return err }},
	} {
		rebuilds := lv.Stats().Rebuilds
		edges := liveEdges(lv)
		setCount(c.a, c.b, c.dn)
		if err := c.change(); err != nil {
			t.Fatal(err)
		}
		if err := lv.Flush(); !errors.Is(err, errCountRange) || !errors.Is(lv.Err(), errCountRange) {
			t.Fatalf("%s: Flush = %v, Err = %v; want the count range error", c.name, err, lv.Err())
		}
		if got := liveEdges(lv); len(got) != len(edges) {
			t.Fatalf("%s: the failed flush changed the graph: %d edges, %d before", c.name, len(got), len(edges))
		}
		// The next change, to any table the program reads, rebuilds.
		if err := knows.Insert(relstore.IntVal(3), relstore.IntVal(4)); err != nil {
			t.Fatal(err)
		}
		if st := lv.Stats(); st.Rebuilds != rebuilds+1 || lv.Err() != nil {
			t.Fatalf("%s: %d rebuilds after the next change, err %v; want %d, nil", c.name, st.Rebuilds, lv.Err(), rebuilds+1)
		}
		checkEquivalence(t, lv, db, prog, opts, c.name)
	}
}
