package extract

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/obs"
	"graphgen/internal/relstore"
)

// repeatedDB is a bag database: Cast repeats (actor, movie) rows, and
// actor 99, repeated too, is no vertex; Cast3's role column makes its
// (actor, movie) projection repeat; Friend repeats a pair and names 99.
func repeatedDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	ints := func(name string, cols ...string) *relstore.Table {
		var cs []relstore.Column
		for _, c := range cols {
			cs = append(cs, relstore.Column{Name: c, Type: relstore.Int})
		}
		tbl, err := db.Create(name, cs...)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	insert := func(tbl *relstore.Table, vals ...relstore.Value) {
		if err := tbl.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	actor := ints("Actor", "id")
	for id := int64(1); id <= 6; id++ {
		insert(actor, relstore.IntVal(id))
	}
	cast := ints("Cast", "actor", "movie")
	for _, r := range [][2]int64{
		{1, 10}, {2, 10}, {1, 10}, {3, 10}, {2, 10}, {99, 10}, {99, 10},
		{3, 20}, {4, 20}, {3, 20}, {5, 20}, {99, 20},
		{6, 30}, {6, 30}, {1, 30},
	} {
		insert(cast, relstore.IntVal(r[0]), relstore.IntVal(r[1]))
	}
	cast3, err := db.Create("Cast3",
		relstore.Column{Name: "actor", Type: relstore.Int},
		relstore.Column{Name: "movie", Type: relstore.Int},
		relstore.Column{Name: "role", Type: relstore.String})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		a, m int64
		role string
	}{
		{1, 10, "lead"}, {1, 10, "extra"}, {2, 10, "lead"}, {2, 10, "double"}, {3, 10, "lead"},
		{99, 10, "extra"}, {99, 10, "lead"}, {4, 20, "lead"}, {5, 20, "lead"}, {5, 20, "extra"},
	} {
		insert(cast3, relstore.IntVal(r.a), relstore.IntVal(r.m), relstore.StrVal(r.role))
	}
	friend := ints("Friend", "a", "b")
	for _, r := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {1, 2}, {4, 5}, {5, 99}, {99, 1}} {
		insert(friend, relstore.IntVal(r[0]), relstore.IntVal(r[1]))
	}
	return db
}

// graphDump renders g slot by slot: every real slot's ID and adjacency,
// every virtual slot's liveness, layer and adjacency, as stored — so it
// pins virtual-node numbering and list order too.
func graphDump(g *core.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sym=%t reals=%d virts=%d slots=%d rep=%d\n",
		g.Symmetric, g.NumRealNodes(), g.NumVirtualNodes(), g.NumVirtualSlots(), g.RepEdges())
	for r := int32(0); int(r) < g.NumRealSlots(); r++ {
		fmt.Fprintf(&sb, "N %d ov=%v or=%v iv=%v ir=%v\n", g.RealID(r),
			g.OutVirtuals(r), g.OutDirect(r), g.InVirtuals(r), g.InDirect(r))
	}
	for v := int32(0); int(v) < g.NumVirtualSlots(); v++ {
		fmt.Fprintf(&sb, "V %d alive=%t layer=%d src=%v tgt=%v ovv=%v ivv=%v und=%v\n", v, g.VirtAlive(v),
			g.VirtLayer(v), g.VirtSources(v), g.VirtTargets(v), g.VirtOutVirt(v), g.VirtInVirt(v), g.VirtUndirected(v))
	}
	return sb.String()
}

func graphFingerprint(g *core.Graph) string {
	h := sha256.Sum256([]byte(graphDump(g)))
	return fmt.Sprintf("%x", h[:8])
}

// TestExtractRepeatedRows pins what Extract makes of segment streams that
// repeat rows, streaming and under the materializing oracle: the graph,
// RepEdges, SkippedRows (each distinct skipped row once per segment) and
// PeakIntermediateRows equal the values extraction had when each segment
// was a relational DISTINCT. It also checks the MaxEdges boundary of a
// direct plan over repeated rows.
func TestExtractRepeatedRows(t *testing.T) {
	db := repeatedDB(t)
	const coactors = "Nodes(ID) :- Actor(ID).\nEdges(A, B) :- Cast(A, M), Cast(B, M).\n"
	const roles = "Nodes(ID) :- Actor(ID).\nEdges(A, B) :- Cast3(A, M, R), Cast3(B, M, S).\n"
	// Under the default planner the Cast-Cast join is large and the
	// Cast-Friend one is not: the last segment joins two atoms.
	const friends = "Nodes(ID) :- Actor(ID).\nEdges(A, B) :- Cast(A, M), Cast(X, M), Friend(X, B).\n"
	type want struct {
		fp                 string
		rep, skipped       int64
		peak, oraclePeak   int64
		segments, maxAtoms int
	}
	for _, c := range []struct {
		name, src       string
		condensed, skip bool
		want            want
	}{
		{"bag co-actors, condensed", coactors, true, true,
			want{"26b5533916c07f58", 16, 4, 10, 25, 2, 1}},
		{"bag co-actors, condensed, Step 6", coactors, true, false,
			want{"17ff35fc1293e0e7", 16, 4, 10, 25, 2, 1}},
		{"bag co-actors, direct", coactors, false, true,
			want{"5271eb29c933e8de", 20, 11, 46, 114, 1, 2}},
		{"projection repeats, condensed", roles, true, true,
			want{"d45e5191e0394074", 10, 2, 6, 16, 2, 1}},
		{"projection repeats, direct", roles, false, true,
			want{"96fe66a4dc327196", 13, 7, 26, 78, 1, 2}},
		{"multi-atom segment", friends, true, true,
			want{"68369074336ea108", 16, 3, 24, 25, 2, 2}},
		{"multi-atom segment, direct", friends, false, true,
			want{"1d80a4e1a8314b0b", 20, 9, 60, 123, 1, 3}},
	} {
		prog := mustParse(t, c.src)
		opts := DefaultOptions()
		opts.ForceExpand = !c.condensed
		opts.SkipPreprocess = c.skip
		plan, err := PlanEdges(db, prog.Edges[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		maxAtoms := 0
		for _, s := range plan.Segments {
			maxAtoms = max(maxAtoms, len(s.Atoms))
		}
		if len(plan.Segments) != c.want.segments || maxAtoms != c.want.maxAtoms {
			t.Fatalf("%s: %d segments of up to %d atoms, want %d of up to %d",
				c.name, len(plan.Segments), maxAtoms, c.want.segments, c.want.maxAtoms)
		}
		for _, oracle := range []bool{false, true} {
			label := fmt.Sprintf("%s oracle=%t", c.name, oracle)
			o := opts
			wantPeak := c.want.peak
			if oracle {
				o.ExecOpts = relstore.MaterializingOracle(o.ExecOpts)
				wantPeak = c.want.oraclePeak
			}
			res, err := Extract(db, prog, o)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := res.Stats
			if fp := graphFingerprint(res.Graph); fp != c.want.fp || st.RepEdges != c.want.rep ||
				st.SkippedRows != c.want.skipped || st.PeakIntermediateRows != wantPeak {
				t.Errorf("%s: fingerprint %s, %d rep edges, %d skipped rows, peak %d; want %s, %d, %d, %d\n%s",
					label, fp, st.RepEdges, st.SkippedRows, st.PeakIntermediateRows,
					c.want.fp, c.want.rep, c.want.skipped, wantPeak, graphDump(res.Graph))
			}
		}
	}
	checkMaxEdgesBoundary(t, db)
}

// checkMaxEdgesBoundary: the edge budget of a direct plan counts distinct
// edges, not the rows its segment streams. A budget equal to the distinct
// count passes although the stream repeats rows; one less fails.
func checkMaxEdgesBoundary(t *testing.T, db *relstore.DB) {
	t.Helper()
	prog := mustParse(t, "Nodes(ID) :- Actor(ID).\nEdges(A, B) :- Cast(A, M), Cast(B, M), A != B.\n")
	opts := DefaultOptions()
	opts.ForceExpand = true
	opts.Trace = obs.NewTrace()
	res, err := Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := res.Stats.RepEdges
	var rows int64
	opts.Trace.Finish().Walk(func(s *obs.Span) {
		if s.Op == "segment" {
			rows += s.Rows
		}
	})
	if edges == 0 || rows <= edges {
		t.Fatalf("%d distinct edges from %d streamed rows: the segment must repeat rows", edges, rows)
	}
	opts.Trace = nil
	for _, budget := range []int64{edges, edges - 1} {
		opts.MaxEdges = budget
		_, err := Extract(db, prog, opts)
		if tooLarge := errors.Is(err, core.ErrTooLarge); tooLarge != (budget < edges) || (err != nil && !tooLarge) {
			t.Errorf("budget %d for %d distinct edges: err = %v", budget, edges, err)
		}
	}
}
