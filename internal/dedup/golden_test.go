package dedup

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
)

// fingerprint hashes the complete physical state of g — every adjacency
// list in stored order and every bitmap bit — so two graphs share a
// fingerprint only if a conversion produced them edge for edge.
func fingerprint(g *core.Graph) string { return hashGraph(g, false) }

// liveFingerprint is fingerprint with tombstoned virtual slots skipped and
// the live ones renumbered by rank, so a graph and its virtual-compacted
// copy share it. On a graph without tombstoned virtual slots it equals
// fingerprint.
func liveFingerprint(g *core.Graph) string { return hashGraph(g, true) }

func hashGraph(g *core.Graph, live bool) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	// rank renumbers virtual IDs: the identity, or the live rank.
	rank := make([]int32, g.NumVirtualSlots())
	var n int32
	for v := range rank {
		rank[v] = int32(v)
		if live {
			rank[v] = n
			if g.VirtAlive(int32(v)) {
				n++
			}
		}
	}
	list := func(s []int32) {
		put(int64(len(s)))
		for _, e := range s {
			put(int64(e))
		}
	}
	virtList := func(s []int32) {
		put(int64(len(s)))
		for _, e := range s {
			put(int64(rank[e]))
		}
	}
	put(int64(g.Mode()))
	put(int64(g.NumRealSlots()))
	for r := int32(0); int(r) < g.NumRealSlots(); r++ {
		put(g.RealID(r))
		virtList(g.OutVirtuals(r))
		list(g.OutDirect(r))
		virtList(g.InVirtuals(r))
		list(g.InDirect(r))
	}
	if live {
		put(int64(g.NumVirtualNodes()))
	} else {
		put(int64(g.NumVirtualSlots()))
	}
	for v := int32(0); int(v) < g.NumVirtualSlots(); v++ {
		if !g.VirtAlive(v) {
			if !live {
				put(-1)
			}
			continue
		}
		put(int64(g.VirtLayer(v)))
		list(g.VirtSources(v))
		virtList(g.VirtInVirt(v))
		list(g.VirtTargets(v))
		virtList(g.VirtOutVirt(v))
		virtList(g.VirtUndirected(v))
		type ob struct {
			origin int32
			bits   []int64
		}
		var obs []ob
		n := len(g.VirtTargets(v)) // every mask spans the node's targets
		g.ForEachBitmap(v, func(origin int32, b []uint64) {
			bits := []int64{int64(n)}
			for i := 0; i < n; i++ {
				if b[i>>6]&(1<<(i&63)) != 0 {
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
// coverage decision moves a fingerprint. The DEDUP-2 rows were re-recorded
// when its output lost its dead virtual slots; TestDedup2OnlyCompacts
// shows that the live part did not move.
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
		"condensed-7/DEDUP-2":   {5226, 361, 0, "f6d07f60ba716d0f"},
		"condensed-7/BITMAP-2":  {3185, 220, 1332, "10d4ffc484283448"},
		"condensed-7/BITMAP-1":  {3706, 220, 1853, "7fbe2c5d9fb31151"},
		"condensed-19/DEDUP-2":  {15995, 733, 0, "6fe5a4116863ef1b"},
		"condensed-19/BITMAP-2": {6974, 300, 2973, "a7efa98710e8b856"},
		"condensed-19/BITMAP-1": {8002, 300, 4001, "5b1ae824227bfa35"},
		"multilayer-5/BITMAP-2": {665, 200, 511, "218b767b3c4fbb2f"},
		"multilayer-5/BITMAP-1": {665, 200, 511, "d42c3fbcbac7606e"},
	}
	convs := []convert{
		{"DEDUP-2", Dedup2Greedy},
		{"BITMAP-2", func(g *core.Graph, _ Options) (*core.Graph, Stats, error) { return Bitmap2(g) }},
		{"BITMAP-1", func(g *core.Graph, _ Options) (*core.Graph, Stats, error) { return Bitmap1(g) }},
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
			out, _, err := c.fn(in.g, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			assertEquivalent(t, key, in.g, out)
			if got := rowOf(out); got != w {
				t.Errorf("%s:\n got  %#v\n want %#v", key, got, w)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("ran %d golden rows, want %d", seen, len(want))
	}
}

// TestDedup2OnlyCompacts pins DEDUP-2's output to that of the builder that
// kept its working state in the output graph (353f877), with that output's
// dead virtual slots dropped and the live ones renumbered by rank: the live
// fingerprints and the number of virtual nodes the greedy created were
// recorded there. The builder now emits only live nodes, so its plain
// fingerprint must equal its live one. The co-actor graph is the input of
// the benchmark's dedup-analytics workload, where 6 754 of the 15 906
// slots the old builder returned were dead.
func TestDedup2OnlyCompacts(t *testing.T) {
	prog, err := datalog.Parse(datagen.QueryCoactors)
	if err != nil {
		t.Fatal(err)
	}
	coactors, err := extract.Extract(datagen.IMDBLike(2, 16000, 2600), prog, extract.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		g       *core.Graph
		opts    Options
		live    string
		created int64
		direct  int64
	}{
		{"condensed-7", datagen.Condensed(datagen.CondensedConfig{Seed: 7, RealNodes: 600, VirtualNodes: 220, MeanSize: 9, StdDev: 4}), Options{Seed: 3}, "f6d07f60ba716d0f", 599, 0},
		{"condensed-19", datagen.Condensed(datagen.CondensedConfig{Seed: 19, RealNodes: 1500, VirtualNodes: 300, MeanSize: 14, StdDev: 6}), Options{Seed: 3}, "6fe5a4116863ef1b", 1280, 0},
		{"coactors", coactors.Graph, Options{}, "ac4f429a97887eaf", 15906, 80},
	} {
		out, st, err := Dedup2Greedy(c.g, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := liveFingerprint(out); got != c.live {
			t.Errorf("%s: live fingerprint %s, want %s", c.name, got, c.live)
		}
		if fp, live := fingerprint(out), liveFingerprint(out); fp != live {
			t.Errorf("%s: fingerprint %s != live fingerprint %s", c.name, fp, live)
		}
		if out.NumVirtualSlots() != out.NumVirtualNodes() {
			t.Errorf("%s: %d virtual slots for %d live nodes", c.name, out.NumVirtualSlots(), out.NumVirtualNodes())
		}
		if st.VirtualNodesCreated != c.created || st.DirectEdgesAdded != c.direct {
			t.Errorf("%s: created %d virtual nodes and %d direct edges, want %d and %d",
				c.name, st.VirtualNodesCreated, st.DirectEdgesAdded, c.created, c.direct)
		}
	}
}
