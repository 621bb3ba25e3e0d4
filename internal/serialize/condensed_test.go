package serialize

import (
	"bytes"
	"strings"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
)

func roundTrip(t *testing.T, g *core.Graph) *core.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCondensed(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCondensed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func assertSameLogicalGraph(t *testing.T, a, b *core.Graph) {
	t.Helper()
	ea, eb := a.EdgeSetByID(), b.EdgeSetByID()
	if len(ea) != len(eb) {
		t.Fatalf("edge sets differ: %d vs %d", len(ea), len(eb))
	}
	for e := range ea {
		if _, ok := eb[e]; !ok {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestCondensedRoundTripCDUP(t *testing.T) {
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: 8, RealNodes: 30, VirtualNodes: 15, MeanSize: 5, StdDev: 2,
	})
	g.SetProperty(0, "Name", "n0")
	back := roundTrip(t, g)
	if back.Mode() != core.CDUP || !back.Symmetric {
		t.Fatalf("header lost: mode=%v sym=%v", back.Mode(), back.Symmetric)
	}
	if back.NumVirtualNodes() != g.NumVirtualNodes() {
		t.Fatalf("virtual nodes: %d vs %d", back.NumVirtualNodes(), g.NumVirtualNodes())
	}
	if v, ok := back.Property(0, "Name"); !ok || v != "n0" {
		t.Fatalf("property lost: %q %v", v, ok)
	}
	assertSameLogicalGraph(t, g, back)
}

func TestCondensedRoundTripDedup1(t *testing.T) {
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: 9, RealNodes: 25, VirtualNodes: 12, MeanSize: 5, StdDev: 2,
	})
	d1, _, err := dedup.Dedup1GreedyVirtualFirst(g, dedup.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, d1)
	if back.Mode() != core.DEDUP1 {
		t.Fatalf("mode = %v", back.Mode())
	}
	// The reloaded DEDUP-1 graph must still be duplicate-free.
	if err := back.VerifyNoDuplicates(); err != nil {
		t.Fatal(err)
	}
	assertSameLogicalGraph(t, d1, back)
}

func TestCondensedRoundTripDedup2(t *testing.T) {
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: 10, RealNodes: 25, VirtualNodes: 12, MeanSize: 5, StdDev: 2,
	})
	d2, _, err := dedup.Dedup2Greedy(g, dedup.Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, d2)
	if back.Mode() != core.DEDUP2 {
		t.Fatalf("mode = %v", back.Mode())
	}
	if err := back.VerifyDedup2Invariants(); err != nil {
		t.Fatal(err)
	}
	assertSameLogicalGraph(t, d2, back)
}

func TestCondensedBitmapDowngradesToCDUP(t *testing.T) {
	g := datagen.Condensed(datagen.CondensedConfig{
		Seed: 11, RealNodes: 20, VirtualNodes: 10, MeanSize: 5, StdDev: 2,
	})
	bm, _, err := dedup.Bitmap2(g)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, bm)
	// Masks are not portable; the structure reloads as C-DUP.
	if back.Mode() != core.CDUP {
		t.Fatalf("mode = %v, want C-DUP", back.Mode())
	}
	assertSameLogicalGraph(t, bm, back)
}

func TestCondensedMultiLayerRoundTrip(t *testing.T) {
	g := core.New(core.CDUP)
	for i := int64(1); i <= 4; i++ {
		g.AddRealNode(i)
	}
	a := g.AddVirtualNode(1)
	b := g.AddVirtualNode(2)
	g.ConnectRealToVirt(0, a)
	g.ConnectVirtToVirt(a, b)
	g.ConnectVirtToReal(b, 2)
	g.AddDirectEdgeIdx(1, 3)
	back := roundTrip(t, g)
	if back.MaxLayer() != 2 {
		t.Fatalf("MaxLayer = %d", back.MaxLayer())
	}
	assertSameLogicalGraph(t, g, back)
}

func TestCondensedReadErrors(t *testing.T) {
	cases := []string{
		"N 1\n",                         // node before header
		"G 0 false\n",                   // short header
		"G 0 false false\nV x 1\n",      // bad tag
		"G 0 false false\nS 0 5\n",      // unknown endpoints
		"G 0 false false\nZ 1 2\n",      // unknown record
		"G 0 false false\nN abc\n",      // bad id
		"G 0 false false\nN 1 broken\n", // bad property
		"",                              // empty
	}
	for i, src := range cases {
		if _, err := ReadCondensed(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestCondensedRejectsWhitespaceProps(t *testing.T) {
	g := core.New(core.CDUP)
	r := g.AddRealNode(1)
	g.SetProperty(r, "name", "has space")
	var buf bytes.Buffer
	if err := WriteCondensed(&buf, g); err == nil {
		t.Fatal("expected whitespace-property error")
	}
}
