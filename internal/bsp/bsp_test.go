package bsp

import (
	"errors"
	"math"
	"testing"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
)

func reps(t *testing.T, seed int64) map[string]*core.Graph {
	t.Helper()
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: seed, RealNodes: 50, VirtualNodes: 20, MeanSize: 6, StdDev: 2,
	})
	out := map[string]*core.Graph{"C-DUP": g}
	exp, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	out["EXP"] = exp
	d1, _, err := dedup.Dedup1GreedyVirtualFirst(g, dedup.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out["DEDUP-1"] = d1
	bm, _, err := dedup.Bitmap2(g)
	if err != nil {
		t.Fatal(err)
	}
	out["BITMAP"] = bm
	d2, _, err := dedup.Dedup2Greedy(g, dedup.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out["DEDUP-2"] = d2
	return out
}

func TestBSPDegreeMatchesSequential(t *testing.T) {
	rs := reps(t, 31)
	for name, g := range rs {
		if name == "C-DUP" {
			continue // duplicate-sensitive
		}
		res, err := Degree(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := algo.Degrees(g)
		g.ForEachReal(func(r int32) bool {
			if int(res.Values[r]) != want[r] {
				t.Fatalf("%s: degree(%d) = %v, want %d", name, g.RealID(r), res.Values[r], want[r])
			}
			return true
		})
		if name != "EXP" && res.Messages == 0 {
			t.Fatalf("%s: no messages counted", name)
		}
		if name == "EXP" && res.Messages != 0 {
			t.Fatalf("EXP degree should be message-free, got %d", res.Messages)
		}
	}
}

func TestBSPDegreeRejectsCDUP(t *testing.T) {
	rs := reps(t, 33)
	if _, err := Degree(rs["C-DUP"]); !errors.Is(err, ErrNeedsDedup) {
		t.Fatalf("err = %v, want ErrNeedsDedup", err)
	}
	if _, err := PageRank(rs["C-DUP"], 3, 0.85); !errors.Is(err, ErrNeedsDedup) {
		t.Fatalf("err = %v, want ErrNeedsDedup", err)
	}
}

func TestBSPPageRankMatchesSequential(t *testing.T) {
	rs := reps(t, 35)
	const iters = 6
	ref := algo.PageRank(rs["EXP"], iters, 0.85)
	refByID := make(map[int64]float64)
	rs["EXP"].ForEachReal(func(r int32) bool {
		refByID[rs["EXP"].RealID(r)] = ref[r]
		return true
	})
	for name, g := range rs {
		if name == "C-DUP" {
			continue
		}
		res, err := PageRank(g, iters, 0.85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g.ForEachReal(func(r int32) bool {
			want := refByID[g.RealID(r)]
			if math.Abs(res.Values[r]-want) > 1e-9 {
				t.Fatalf("%s: pagerank(%d) = %g, want %g", name, g.RealID(r), res.Values[r], want)
			}
			return true
		})
	}
}

func TestBSPPageRankSupersteps(t *testing.T) {
	rs := reps(t, 37)
	const iters = 4
	exp, err := PageRank(rs["EXP"], iters, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := PageRank(rs["DEDUP-1"], iters, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// Condensed representations need twice the supersteps (Section 6.4).
	if d1.Supersteps < 2*exp.Supersteps-2 {
		t.Fatalf("DEDUP-1 supersteps = %d, EXP = %d; expected ~2x", d1.Supersteps, exp.Supersteps)
	}
}

func TestBSPComponentsAllRepresentations(t *testing.T) {
	rs := reps(t, 39)
	_, want := algo.ConnectedComponents(rs["EXP"])
	for name, g := range rs {
		res, err := Components(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		distinct := make(map[float64]struct{})
		g.ForEachReal(func(r int32) bool {
			distinct[res.Values[r]] = struct{}{}
			return true
		})
		if len(distinct) != want {
			t.Fatalf("%s: components = %d, want %d", name, len(distinct), want)
		}
	}
}

func TestBSPMessageAggregationBound(t *testing.T) {
	// With aggregation, one PageRank round on DEDUP-1 sends at most
	// ~2x the representation's physical edges.
	rs := reps(t, 41)
	g := rs["DEDUP-1"]
	res, err := PageRank(g, 1, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	bound := 3 * g.RepEdges() // 2x for the round + degree precompute
	if res.Messages > bound {
		t.Fatalf("messages = %d exceeds aggregation bound %d", res.Messages, bound)
	}
}

func TestBSPMemoryAndPeakQueue(t *testing.T) {
	rs := reps(t, 43)
	res, err := PageRank(rs["DEDUP-1"], 2, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakQueueLen == 0 || res.MemBytes == 0 {
		t.Fatalf("accounting missing: peak=%d mem=%d", res.PeakQueueLen, res.MemBytes)
	}
}

func TestBSPMultiLayerPageRank(t *testing.T) {
	// Multi-layer condensed graph: BITMAP PageRank must match EXP.
	g := core.New(core.CDUP)
	for i := int64(1); i <= 8; i++ {
		g.AddRealNode(i)
	}
	v1 := g.AddVirtualNode(1)
	v2 := g.AddVirtualNode(1)
	w := g.AddVirtualNode(2)
	for r := int32(0); r < 4; r++ {
		g.ConnectRealToVirt(r, v1)
	}
	for r := int32(2); r < 6; r++ {
		g.ConnectRealToVirt(r, v2)
	}
	g.ConnectVirtToVirt(v1, w)
	g.ConnectVirtToVirt(v2, w)
	for r := int32(4); r < 8; r++ {
		g.ConnectVirtToReal(w, r)
	}
	g.ConnectVirtToReal(v1, 0)
	g.SortAdjacency()

	bm, _, err := dedup.Bitmap2(g)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 5
	want, err := PageRank(exp, iters, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PageRank(bm, iters, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	wantByID := make(map[int64]float64)
	exp.ForEachReal(func(r int32) bool {
		wantByID[exp.RealID(r)] = want.Values[r]
		return true
	})
	bm.ForEachReal(func(r int32) bool {
		if math.Abs(got.Values[r]-wantByID[bm.RealID(r)]) > 1e-9 {
			t.Fatalf("pagerank(%d) = %g, want %g", bm.RealID(r), got.Values[r], wantByID[bm.RealID(r)])
		}
		return true
	})
}
