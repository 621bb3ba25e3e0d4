package graphgen

// Property-style tests on the quick-scale small datasets: the serial
// Step-6 preprocessing pass keeps the logical graph and leaves no dead
// virtual slot, and the BSP analytics produce output identical to the
// serial run (one worker) for any worker count; PageRank alone is compared
// under a float tolerance because parallel message merging reorders float
// summation.

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"testing"

	"graphgen/internal/bsp"
	"graphgen/internal/core"
	"graphgen/internal/dedup"
	"graphgen/internal/experiments"
)

// equivWorkers are the BSP worker counts checked against the serial
// baseline.
var equivWorkers = []int{2, 4, 7}

// coreFingerprint renders the complete structure of a condensed graph —
// nodes, properties, every adjacency list, and the BITMAP masks — in a
// canonical order, so two graphs are structurally identical iff their
// fingerprints match.
func coreFingerprint(g *core.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%v self=%t sym=%t reals=%d virts=%d rep=%d\n",
		g.Mode(), g.SelfLoops, g.Symmetric, g.NumRealNodes(), g.NumVirtualNodes(), g.RepEdges())
	sortedCopy := func(s []int32) []int32 {
		c := append([]int32(nil), s...)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		return c
	}
	for r := int32(0); int(r) < g.NumRealSlots(); r++ {
		if !g.Alive(r) {
			continue
		}
		fmt.Fprintf(&sb, "N %d", g.RealID(r))
		props := map[string]string{}
		var keys []string
		g.ForEachProperty(r, func(k, v string) bool {
			props[k] = v
			keys = append(keys, k)
			return true
		})
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%s", k, props[k])
		}
		fmt.Fprintf(&sb, " | ov=%v or=%v iv=%v ir=%v\n",
			sortedCopy(g.OutVirtuals(r)), sortedCopy(g.OutDirect(r)),
			sortedCopy(g.InVirtuals(r)), sortedCopy(g.InDirect(r)))
	}
	for v := int32(0); int(v) < g.NumVirtualSlots(); v++ {
		if !g.VirtAlive(v) {
			continue
		}
		fmt.Fprintf(&sb, "V %d layer=%d src=%v tgt=%v ovv=%v ivv=%v und=%v\n",
			v, g.VirtLayer(v), sortedCopy(g.VirtSources(v)), sortedCopy(g.VirtTargets(v)),
			sortedCopy(g.VirtOutVirt(v)), sortedCopy(g.VirtInVirt(v)), sortedCopy(g.VirtUndirected(v)))
		type ob struct {
			origin int32
			bits   string
		}
		var masks []ob
		n := len(g.VirtTargets(v)) // every mask spans the node's targets
		g.ForEachBitmap(v, func(origin int32, b []uint64) {
			var bits strings.Builder
			for i := 0; i < n; i++ {
				if b[i>>6]&(1<<(i&63)) != 0 {
					bits.WriteByte('1')
				} else {
					bits.WriteByte('0')
				}
			}
			masks = append(masks, ob{origin, bits.String()})
		})
		sort.Slice(masks, func(i, j int) bool { return masks[i].origin < masks[j].origin })
		for _, m := range masks {
			fmt.Fprintf(&sb, "B %d %d %s\n", v, m.origin, m.bits)
		}
	}
	return sb.String()
}

// experimentsSmall extracts the quick-scale small datasets of the
// paper's evaluation into C-DUP graphs, keyed by dataset name.
func experimentsSmall() ([]string, map[string]*core.Graph) {
	s := experiments.Scale{Quick: true}
	dbs, condensed := experiments.SmallDatasets(s)
	graphs := make(map[string]*core.Graph)
	for _, d := range dbs {
		g, _, err := experiments.ExtractCondensed(d)
		if err != nil {
			panic(err)
		}
		graphs[d.Name] = g
	}
	for name, g := range condensed {
		graphs[name] = g
	}
	return []string{"DBLP", "IMDB", "Synthetic_1", "Synthetic_2"}, graphs
}

// TestPreprocessInlinesAndCompacts runs the Step-6 pass on each dataset:
// some virtual node must be inlined, the logical edge set must not change,
// and the graph must be left with no dead virtual slot.
func TestPreprocessInlinesAndCompacts(t *testing.T) {
	names, graphs := experimentsSmall()
	var inlined int
	for _, name := range names {
		g := graphs[name].Clone()
		want := edgesOf(WrapCore(g))
		inlined += g.PreprocessExpandSmall(1)
		if got := edgesOf(WrapCore(g)); !maps.Equal(got, want) {
			t.Errorf("%s: Step 6 changed the logical edges: %d, was %d", name, len(got), len(want))
		}
		requireNoDeadVirtualSlots(t, name, g)
	}
	if inlined == 0 {
		t.Fatal("no dataset had a virtual node to inline")
	}
}

// TestParallelBSPEquivalence asserts Degree and Components are bitwise
// identical across worker counts and PageRank matches within float
// tolerance.
func TestParallelBSPEquivalence(t *testing.T) {
	names, graphs := experimentsSmall()
	for _, name := range names {
		cdup := graphs[name]
		reps := map[string]*core.Graph{"C-DUP": cdup}
		if d1, _, err := dedup.Dedup1GreedyVirtualFirst(cdup, dedup.Options{Seed: 7}); err == nil {
			reps["DEDUP-1"] = d1
		}
		if bm, _, err := dedup.Bitmap2(cdup); err == nil {
			reps["BITMAP"] = bm
		}
		if exp, err := cdup.Expand(0); err == nil {
			reps["EXP"] = exp
		}
		for rep, g := range reps {
			serialDeg, derr := bsp.Degree(g, bsp.Options{Workers: 1})
			serialCC, cerr := bsp.Components(g, bsp.Options{Workers: 1})
			serialPR, perr := bsp.PageRank(g, 5, 0.85, bsp.Options{Workers: 1})
			if cerr != nil {
				t.Fatalf("%s/%s: serial components: %v", name, rep, cerr)
			}
			for _, w := range equivWorkers {
				o := bsp.Options{Workers: w}
				deg, err := bsp.Degree(g, o)
				if (derr == nil) != (err == nil) {
					t.Fatalf("%s/%s: degree error mismatch", name, rep)
				}
				if derr == nil {
					// Degrees are integer-valued; any difference is a bug.
					for i := range serialDeg.Values {
						if deg.Values[i] != serialDeg.Values[i] {
							t.Fatalf("%s/%s: workers=%d degree[%d] = %v, serial %v",
								name, rep, w, i, deg.Values[i], serialDeg.Values[i])
						}
					}
					if deg.Messages != serialDeg.Messages || deg.Supersteps != serialDeg.Supersteps {
						t.Errorf("%s/%s: workers=%d degree messages/supersteps differ", name, rep, w)
					}
				}
				cc, err := bsp.Components(g, o)
				if err != nil {
					t.Fatal(err)
				}
				for i := range serialCC.Values {
					if cc.Values[i] != serialCC.Values[i] {
						t.Fatalf("%s/%s: workers=%d component label[%d] differs", name, rep, w, i)
					}
				}
				pr, err := bsp.PageRank(g, 5, 0.85, o)
				if (perr == nil) != (err == nil) {
					t.Fatalf("%s/%s: pagerank error mismatch", name, rep)
				}
				if perr == nil {
					for i := range serialPR.Values {
						if math.Abs(pr.Values[i]-serialPR.Values[i]) > 1e-9 {
							t.Fatalf("%s/%s: workers=%d pagerank[%d] = %v, serial %v",
								name, rep, w, i, pr.Values[i], serialPR.Values[i])
						}
					}
					if pr.Messages != serialPR.Messages {
						t.Errorf("%s/%s: workers=%d pagerank message count differs", name, rep, w)
					}
				}
			}
		}
	}
}
