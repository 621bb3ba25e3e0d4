package graphgen

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"graphgen/internal/datagen"
	"graphgen/internal/graphapi"
)

// TestExtractLive walks the public live-maintenance workflow: extract once,
// mutate the relational tables, read the graph without re-extracting.
func TestExtractLive(t *testing.T) {
	db := demoDB(t)
	ap, err := db.Table("AuthorPub")
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(db, WithForceCondensed())
	lg, err := engine.ExtractLive(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	if !lg.ExistsEdge(1, 2) || lg.ExistsEdge(1, 4) {
		t.Fatal("initial live graph does not match the extraction")
	}
	if n := lg.NumVertices(); n != 5 {
		t.Fatalf("vertices = %d, want 5", n)
	}
	if name, ok := lg.PropertyOf(1, "Name"); !ok || name != "ann" {
		t.Fatalf("PropertyOf(1) = %q, %v", name, ok)
	}

	// A tuple insert shows up on the next read, no re-extraction.
	if err := ap.Insert(IntVal(1), IntVal(20)); err != nil {
		t.Fatal(err)
	}
	if lg.Pending() == 0 {
		t.Fatal("insert queued no deltas")
	}
	if !lg.ExistsEdge(1, 4) {
		t.Fatal("edge 1->4 missing after shared-pub insert")
	}
	// A delete severs only edges that lost their last support.
	if ok, err := ap.Delete(IntVal(1), IntVal(20)); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if lg.ExistsEdge(1, 4) {
		t.Fatal("edge 1->4 survived losing its only support")
	}
	if !lg.ExistsEdge(1, 2) {
		t.Fatal("unrelated edge 1->2 was damaged")
	}

	// The live graph rejects direct mutation: updates flow through tables.
	if err := lg.AddEdge(1, 5); !errors.Is(err, ErrLiveMutation) {
		t.Fatalf("AddEdge = %v, want ErrLiveMutation", err)
	}
	if err := lg.DeleteVertex(1); !errors.Is(err, ErrLiveMutation) {
		t.Fatalf("DeleteVertex = %v, want ErrLiveMutation", err)
	}

	// Snapshot detaches: analysis and conversion work on the copy while
	// the live graph keeps tracking.
	snap := lg.Snapshot()
	if _, err := snap.As(DEDUP1); err != nil {
		t.Fatal(err)
	}
	ap.Insert(IntVal(5), IntVal(10))
	if !lg.ExistsEdge(1, 5) {
		t.Fatal("live graph missed the post-snapshot insert")
	}
	if snap.ExistsEdge(1, 5) {
		t.Fatal("snapshot is not detached from maintenance")
	}
	if lg.MaintenanceStats().Transitions == 0 {
		t.Fatal("no maintenance transitions recorded")
	}

	// After a mutation batch, every read answers what the same read on a
	// snapshot answers. The first read flushes the batch.
	ap.Insert(IntVal(2), IntVal(30))
	ap.Insert(IntVal(1), IntVal(40))
	ap.Insert(IntVal(3), IntVal(40))
	ap.Insert(IntVal(9), IntVal(10)) // 9 is no vertex: the row is skipped
	ap.Delete(IntVal(3), IntVal(20))
	if lg.Pending() == 0 {
		t.Fatal("mutation batch queued no deltas")
	}
	checkLiveReads(t, lg)

	// Close freezes the graph.
	lg.Close()
	ap.Insert(IntVal(4), IntVal(30))
	if lg.ExistsEdge(4, 5) {
		t.Fatal("closed live graph kept maintaining")
	}

	// Iterator-shaped reads satisfy the graph API.
	ids := graphapi.ToList(lg.Vertices())
	if len(ids) != 5 {
		t.Fatalf("Vertices yielded %d ids, want 5", len(ids))
	}
	if n := graphapi.Count(lg.Neighbors(3)); n == 0 {
		t.Fatal("Neighbors(3) is empty")
	}
}

// graphEdges drains the logical edge set through the Graph API.
func graphEdges(g graphapi.Graph) map[[2]NodeID]bool {
	out := make(map[[2]NodeID]bool)
	for vs := g.Vertices(); ; {
		v, ok := vs.Next()
		if !ok {
			return out
		}
		for ns := g.Neighbors(v); ; {
			w, ok := ns.Next()
			if !ok {
				break
			}
			out[[2]NodeID{v, w}] = true
		}
	}
}

// TestExtractLiveFiltered: a year-filtered co-authorship query extracts
// condensed through Extract and ExtractLive alike, and the live graph
// equals a fresh Extract after inserts and deletes. A negated atom cannot
// be maintained, so ExtractLive rejects it at the atom's position.
func TestExtractLiveFiltered(t *testing.T) {
	db := datagen.DBLPTemporal(2, 2000, 3000, 2000, 2019)
	engine := NewEngine(db, WithForceCondensed())
	q := "Nodes(ID, N) :- Author(ID, N).\n" +
		"Edges(A, B) :- AuthorPubYear(A, P, Y), AuthorPubYear(B, P, _), Y >= 2010.\n"
	lg, err := engine.ExtractLive(q)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	apy, err := db.Table("AuthorPubYear")
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		g, err := engine.Extract(q)
		if err != nil {
			t.Fatal(err)
		}
		requireNoDeadVirtualSlots(t, "fresh", g.Core())
		snap := lg.Snapshot()
		if g.NumVirtualNodes() == 0 || snap.NumVirtualNodes() == 0 {
			t.Fatalf("step %d: virtual nodes: Extract %d, ExtractLive %d", step, g.NumVirtualNodes(), snap.NumVirtualNodes())
		}
		want, got := graphEdges(g), graphEdges(lg)
		if len(got) != len(want) {
			t.Fatalf("step %d: live %d logical edges, fresh %d", step, len(got), len(want))
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("step %d: live graph lacks %v", step, e)
			}
		}
		// Two authors of a new 2015 paper, then the loss of an old row.
		pid := IntVal(int64(2_000_000 + step))
		apy.Insert(IntVal(int64(3+step)), pid, IntVal(2015))
		apy.Insert(IntVal(int64(700+step)), pid, IntVal(2015))
		if ok, err := apy.Delete(apy.Rows[step]...); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
	}

	_, err = engine.ExtractLive("Nodes(ID, N) :- Author(ID, N).\n" +
		"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), !Retracted(P).\n")
	if err == nil || !strings.Contains(err.Error(), "line 2 col 65: negated atom !Retracted(P)") {
		t.Fatalf("negated live body: err = %v, want the atom's line and column", err)
	}
}

// checkLiveReads checks every read of lg against the same read on
// lg.Snapshot(), for each vertex, each vertex pair and an unknown ID. The
// live reads run first, so the first of them applies any pending deltas.
func checkLiveReads(t *testing.T, lg *LiveGraph) {
	t.Helper()
	const unknown = NodeID(-1)
	edges := lg.LogicalEdges()
	ids := graphapi.ToList(lg.Vertices())
	n := lg.NumVertices()
	snap, version := lg.SnapshotWithVersion()
	want := lg.Snapshot()
	if version != lg.Version() {
		t.Fatalf("SnapshotWithVersion at version %d, Version %d", version, lg.Version())
	}
	if w := want.LogicalEdges(); edges != w || snap.LogicalEdges() != w {
		t.Fatalf("LogicalEdges: live %d, SnapshotWithVersion %d, Snapshot %d", edges, snap.LogicalEdges(), w)
	}
	if w := graphapi.ToList(want.Vertices()); !slices.Equal(ids, w) || n != want.NumVertices() {
		t.Fatalf("Vertices: live %v (NumVertices %d), Snapshot %v (%d)", ids, n, w, want.NumVertices())
	}
	for _, u := range append(slices.Clone(ids), unknown) {
		w := graphapi.ToList(want.Neighbors(u))
		if got := graphapi.ToList(lg.Neighbors(u)); !slices.Equal(got, w) {
			t.Fatalf("Neighbors(%d): live %v, Snapshot %v", u, got, w)
		}
		if got := graphapi.ToList(snap.Neighbors(u)); !slices.Equal(got, w) {
			t.Fatalf("Neighbors(%d): SnapshotWithVersion %v, Snapshot %v", u, got, w)
		}
		for _, key := range []string{"Name", "unset"} {
			gv, gok := lg.PropertyOf(u, key)
			if wv, wok := want.PropertyOf(u, key); gv != wv || gok != wok {
				t.Fatalf("PropertyOf(%d, %s): live %q %v, Snapshot %q %v", u, key, gv, gok, wv, wok)
			}
		}
		for _, v := range append(slices.Clone(ids), unknown) {
			if got, w := lg.ExistsEdge(u, v), want.ExistsEdge(u, v); got != w || snap.ExistsEdge(u, v) != w {
				t.Fatalf("ExistsEdge(%d, %d): live %v, SnapshotWithVersion %v, Snapshot %v", u, v, got, snap.ExistsEdge(u, v), w)
			}
		}
	}
}
