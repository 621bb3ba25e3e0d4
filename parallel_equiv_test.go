package graphgen

// Property-style equivalence tests for the parallel engine: the Step-6
// preprocessing pass and the BSP analytics must produce output identical
// to the serial run (one worker) for any worker count; PageRank alone is
// compared under a float tolerance because parallel message merging
// reorders float summation.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"graphgen/internal/bitset"
	"graphgen/internal/bsp"
	"graphgen/internal/core"
	"graphgen/internal/dedup"
	"graphgen/internal/experiments"
)

// equivWorkers are the worker counts checked against the serial baseline.
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
		props := g.Properties(r)
		keys := make([]string, 0, len(props))
		for k := range props {
			keys = append(keys, k)
		}
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
		g.ForEachBitmap(v, func(origin int32, b *bitset.Set) {
			var bits strings.Builder
			for i := 0; i < b.Len(); i++ {
				if b.Get(i) {
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

// TestParallelPreprocessEquivalence asserts that the Step-6 pass inlines
// the same virtual nodes and leaves a structurally identical graph for
// every worker count.
func TestParallelPreprocessEquivalence(t *testing.T) {
	names, graphs := experimentsSmall()
	var inlined int
	for _, name := range names {
		serial := graphs[name].Clone()
		n := serial.PreprocessExpandSmall(1)
		inlined += n
		want := coreFingerprint(serial)
		for _, w := range equivWorkers {
			par := graphs[name].Clone()
			if got := par.PreprocessExpandSmall(w); got != n {
				t.Errorf("%s: workers=%d inlined %d virtual nodes, serial %d", name, w, got, n)
			}
			if coreFingerprint(par) != want {
				t.Errorf("%s: workers=%d preprocessed graph differs from serial", name, w)
			}
		}
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
