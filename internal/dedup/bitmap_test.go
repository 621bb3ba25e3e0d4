package dedup

import (
	"maps"
	"slices"
	"testing"

	"graphgen/internal/core"
)

// decodeCondensed builds a multi-layer, asymmetric C-DUP graph from fuzz
// bytes: up to 20 real nodes and 10 virtual nodes in layers 1-3, sources
// into layer 1, real targets out of any layer, virtual edges from a layer
// to a deeper one (diamonds included), then tombstoned reals (their edges
// stay behind), then one-way direct edges. The first byte's low bit sets
// SelfLoops. Missing bytes read as zero; the rest of data is left for the
// caller.
func decodeCondensed(data *[]byte) *core.Graph {
	next := func() int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
	g := core.New(core.CDUP)
	g.SelfLoops = next()&1 == 1
	nReal := 1 + next()%20
	for i := 0; i < nReal; i++ {
		g.AddRealNode(int64(100 + i))
	}
	nVirt := next() % 11
	for v := 0; v < nVirt; v++ {
		g.AddVirtualNode(int32(1 + next()%3))
	}
	for v := int32(0); int(v) < nVirt; v++ {
		if g.VirtLayer(v) == 1 {
			for k, n := 0, next()%5; k < n; k++ {
				g.ConnectRealToVirt(int32(next()%nReal), v)
			}
		}
		for k, n := 0, next()%5; k < n; k++ {
			g.ConnectVirtToReal(v, int32(next()%nReal))
		}
		for k, n := 0, next()%3; k < n; k++ {
			if w := int32(next() % nVirt); g.VirtLayer(w) > g.VirtLayer(v) {
				g.ConnectVirtToVirt(v, w)
			}
		}
	}
	for k, dead := 0, next()%4; k < dead; k++ {
		g.DeleteVertexID(int64(100 + next()%nReal))
	}
	for k, nDirect := 0, next()%6; k < nDirect; k++ {
		g.AddDirectEdgeIdx(int32(next()%nReal), int32(next()%nReal))
	}
	return g
}

// neighborsByID lists every live vertex's neighbors by external ID, sorted,
// repeats kept.
func neighborsByID(g *core.Graph) map[int64][]int64 {
	out := make(map[int64][]int64)
	g.ForEachReal(func(r int32) bool {
		ns := []int64{}
		g.ForNeighbors(r, func(t int32) bool {
			ns = append(ns, g.RealID(t))
			return true
		})
		slices.Sort(ns)
		out[g.RealID(r)] = ns
		return true
	})
	return out
}

// FuzzBitmap checks both BITMAP builders on decoded graphs: the output has
// the input's logical edges and no duplicate path, and after every step of
// a decoded DeleteVertex/Compact sequence its neighbors equal, exactly once
// each, those of the EXP expansion of a C-DUP copy given the same steps.
// Compact leaves both graphs with no dead virtual slot.
func FuzzBitmap(f *testing.F) {
	f.Add([]byte{0, 6, 3, 1, 1, 2, 0, 1, 2, 0, 2, 2, 0, 3, 4, 0, 2, 1, 3, 0, 1, 5, 2, 3, 5, 1, 0, 0, 0, 3, 0, 4, 1, 2, 1})
	f.Add([]byte{1, 9, 5, 1, 1, 2, 2, 3, 2, 1, 2, 3, 4, 5, 2, 3, 4, 2, 2, 4, 2, 6, 7, 1, 3, 0, 3, 1, 8, 2, 6, 3, 0, 0, 1, 2, 3, 4, 7, 2, 5, 1, 3, 1, 0, 1, 6, 0})
	f.Add([]byte{0, 12, 8, 1, 1, 1, 2, 2, 3, 1, 1, 4, 0, 1, 2, 3, 2, 4, 5, 2, 6, 7, 3, 1, 8, 9, 2, 5, 6, 2, 4, 3, 2, 1, 3, 5, 6, 7, 2, 0, 1, 1, 2, 2, 3, 4, 10, 11, 0, 1, 2, 3, 0, 1, 1, 2, 6, 4, 8, 2, 9, 1, 0})
	f.Add([]byte{2, 5, 2, 1, 2, 3, 0, 1, 4, 3, 1, 2, 3, 1, 3, 4, 4, 0, 2, 1, 1, 3, 0, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeCondensed(&data)
		steps := slices.Clone(data)
		for _, build := range []struct {
			name string
			fn   func(*core.Graph) (*core.Graph, Stats, error)
		}{{"BITMAP-1", Bitmap1}, {"BITMAP-2", Bitmap2}} {
			out, _, err := build.fn(in)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, build.name, in, out)
			ref := in.Clone()
			for i, b := range steps {
				if b%4 == 0 {
					out.Compact()
					ref.Compact()
					for _, g := range []*core.Graph{out, ref} {
						if g.NumVirtualSlots() != g.NumVirtualNodes() {
							t.Fatalf("%s after step %d: Compact left %d virtual slots for %d live nodes",
								build.name, i, g.NumVirtualSlots(), g.NumVirtualNodes())
						}
					}
				} else {
					id := int64(100 + int(b)%20)
					out.DeleteVertexID(id)
					ref.DeleteVertexID(id)
				}
				exp, err := ref.Expand(0)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := neighborsByID(out), neighborsByID(exp); !maps.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s after step %d (%v): neighbors %v, EXP %v", build.name, i, steps[:i+1], got, want)
				}
			}
		}
	})
}
