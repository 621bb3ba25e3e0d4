package dedup

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"graphgen/internal/bitset"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
)

// fingerprint hashes the complete physical state of g — every adjacency
// list in stored order and every bitmap bit — so two graphs share a
// fingerprint only if a conversion produced them edge for edge.
func fingerprint(g *core.Graph) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	list := func(s []int32) {
		put(int64(len(s)))
		for _, e := range s {
			put(int64(e))
		}
	}
	put(int64(g.Mode()))
	put(int64(g.NumRealSlots()))
	for r := int32(0); int(r) < g.NumRealSlots(); r++ {
		put(g.RealID(r))
		list(g.OutVirtuals(r))
		list(g.OutDirect(r))
		list(g.InVirtuals(r))
		list(g.InDirect(r))
	}
	put(int64(g.NumVirtualSlots()))
	for v := int32(0); int(v) < g.NumVirtualSlots(); v++ {
		if !g.VirtAlive(v) {
			put(-1)
			continue
		}
		put(int64(g.VirtLayer(v)))
		list(g.VirtSources(v))
		list(g.VirtInVirt(v))
		list(g.VirtTargets(v))
		list(g.VirtOutVirt(v))
		list(g.VirtUndirected(v))
		type ob struct {
			origin int32
			bits   []int64
		}
		var obs []ob
		g.ForEachBitmap(v, func(origin int32, b *bitset.Set) {
			bits := []int64{int64(b.Len())}
			for i := 0; i < b.Len(); i++ {
				if b.Get(i) {
					bits = append(bits, int64(i))
				}
			}
			obs = append(obs, ob{origin, bits})
		})
		sort.Slice(obs, func(i, j int) bool { return obs[i].origin < obs[j].origin })
		put(int64(len(obs)))
		for _, o := range obs {
			put(int64(o.origin))
			for _, b := range o.bits {
				put(b)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type goldenRow struct {
	repEdges    int64
	virtuals    int
	bitmaps     int
	fingerprint string
}

func rowOf(g *core.Graph) goldenRow {
	return goldenRow{g.RepEdges(), g.NumVirtualNodes(), g.NumBitmaps(), fingerprint(g)}
}

// TestGoldenConversions pins the exact output of the conversions whose
// builders keep their working sets in mark sets and dense counters. The
// values were recorded at the last commit that used hash sets for them
// (b560ce6); a builder change that alters a tie-break, a visit order or a
// coverage decision moves a fingerprint.
func TestGoldenConversions(t *testing.T) {
	inputs := []struct {
		name string
		g    *core.Graph
	}{
		{"condensed-7", datagen.Condensed(datagen.CondensedConfig{Seed: 7, RealNodes: 600, VirtualNodes: 220, MeanSize: 9, StdDev: 4})},
		{"condensed-19", datagen.Condensed(datagen.CondensedConfig{Seed: 19, RealNodes: 1500, VirtualNodes: 300, MeanSize: 14, StdDev: 6})},
		{"multilayer-5", randomMultiLayer(5, 300, 140, 60)},
	}
	want := map[string]goldenRow{
		"condensed-7/DEDUP-2":   {5226, 361, 0, "25a8dc077d0351dd"},
		"condensed-7/BITMAP-2":  {3185, 220, 1332, "10d4ffc484283448"},
		"condensed-7/BITMAP-1":  {3706, 220, 1853, "7fbe2c5d9fb31151"},
		"condensed-19/DEDUP-2":  {15995, 733, 0, "158739db7bb53353"},
		"condensed-19/BITMAP-2": {6974, 300, 2973, "a7efa98710e8b856"},
		"condensed-19/BITMAP-1": {8002, 300, 4001, "5b1ae824227bfa35"},
		"multilayer-5/BITMAP-2": {665, 200, 511, "218b767b3c4fbb2f"},
		"multilayer-5/BITMAP-1": {665, 200, 511, "d42c3fbcbac7606e"},
	}
	convs := []convert{
		{"DEDUP-2", Dedup2Greedy},
		{"BITMAP-2", Bitmap2},
		{"BITMAP-1", func(g *core.Graph, o Options) (*core.Graph, Stats, error) { return Bitmap1(g, o) }},
	}
	seen := 0
	for _, in := range inputs {
		for _, c := range convs {
			key := in.name + "/" + c.name
			w, ok := want[key]
			if !ok {
				continue // DEDUP-2 does not take multi-layer input
			}
			seen++
			for _, workers := range []int{1, 4} {
				out, _, err := c.fn(in.g, Options{Seed: 3, Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				assertEquivalent(t, key, in.g, out)
				if got := rowOf(out); got != w {
					t.Errorf("%s workers=%d:\n got  %#v\n want %#v", key, workers, got, w)
				}
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("ran %d golden rows, want %d", seen, len(want))
	}
}
