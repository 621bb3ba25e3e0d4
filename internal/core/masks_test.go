package core

import (
	"math/rand"
	"slices"
	"testing"
)

// maskGraph returns a graph with nReal real nodes and one virtual node per
// entry of sizes, each with that many targets (0, 1, 2, ... cycling over the
// reals) and every real node as a source.
func maskGraph(nReal int, sizes ...int) *Graph {
	g := New(BITMAP)
	for id := 0; id < nReal; id++ {
		g.AddRealNode(int64(id))
	}
	for _, n := range sizes {
		v := g.AddVirtualNode(1)
		for r := 0; r < nReal; r++ {
			g.ConnectRealToVirt(int32(r), v)
		}
		for i := 0; i < n; i++ {
			g.ConnectVirtToReal(v, int32(i%nReal))
		}
	}
	return g
}

// randomMask returns a mask over n targets with random bits below n.
func randomMask(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, maskStride(n))
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			w[i>>6] |= 1 << (i & 63)
		}
	}
	return w
}

// TestMaskSetReplaceGet pins SetBitmap and Bitmap: origins inserted out of
// order, one replaced, a missing one reported absent, the words copied, a
// graph without masks holding no store, and a mask of the wrong length
// refused.
func TestMaskSetReplaceGet(t *testing.T) {
	g := maskGraph(10, 70, 3)
	if g.masks != nil || g.NumBitmaps() != 0 {
		t.Fatal("a graph without masks has a store")
	}
	if _, ok := g.Bitmap(0, 2); ok {
		t.Fatal("Bitmap found a mask in an empty store")
	}
	a, b := []uint64{1, 1 << 5}, []uint64{^uint64(0), 0x3f}
	for _, r := range []int32{5, 2, 9} {
		g.SetBitmap(0, r, a)
	}
	g.SetBitmap(0, 2, b)
	a[0] = 7 // the store holds a copy
	if got, ok := g.Bitmap(0, 2); !ok || !slices.Equal(got, b) {
		t.Fatalf("replaced mask = %x, %v; want %x", got, ok, b)
	}
	for _, r := range []int32{5, 9} {
		if got, ok := g.Bitmap(0, r); !ok || !slices.Equal(got, []uint64{1, 1 << 5}) {
			t.Fatalf("mask of origin %d = %x, %v", r, got, ok)
		}
	}
	if _, ok := g.Bitmap(0, 3); ok {
		t.Fatal("Bitmap found origin 3, never set")
	}
	if _, ok := g.Bitmap(1, 5); ok {
		t.Fatal("Bitmap found a mask on the unmasked virtual node")
	}
	if g.NumBitmaps() != 3 {
		t.Fatalf("NumBitmaps = %d, want 3", g.NumBitmaps())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBitmap took a 2-word mask for 3 targets")
		}
	}()
	g.SetBitmap(1, 0, b)
}

// TestMaskStoreMatchesMapModel drives random SetBitmap, AddVirtualNode and
// RemoveVirtualNode sequences against a map of masks: every mask reads
// back, ForEachBitmap yields exactly the model's origins in ascending
// order, and NumBitmaps counts them. AddVirtualNode may reuse a removed
// node's slot, which starts without masks.
func TestMaskStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := maskGraph(40, 0, 1, 63, 64, 65, 130)
		model := map[[2]int32][]uint64{}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(20); {
			case k == 0:
				v := g.AddVirtualNode(1)
				for key := range model {
					if key[0] == v {
						delete(model, key)
					}
				}
				for i := 0; i < rng.Intn(100); i++ {
					g.ConnectVirtToReal(v, int32(rng.Intn(40)))
				}
			case k == 1:
				v := int32(rng.Intn(g.NumVirtualSlots()))
				g.RemoveVirtualNode(v)
				for key := range model {
					if key[0] == v {
						delete(model, key)
					}
				}
			default:
				v := int32(rng.Intn(g.NumVirtualSlots()))
				r := int32(rng.Intn(40))
				w := randomMask(rng, len(g.VirtTargets(v)))
				g.SetBitmap(v, r, w)
				model[[2]int32{v, r}] = w
			}
		}
		n := 0
		for v := int32(0); int(v) < g.NumVirtualSlots(); v++ {
			last := int32(-1)
			g.ForEachBitmap(v, func(r int32, w []uint64) {
				if r <= last {
					t.Fatalf("seed %d: virtual %d yields origin %d after %d", seed, v, r, last)
				}
				last = r
				if want, ok := model[[2]int32{v, r}]; !ok || !slices.Equal(w, want) {
					t.Fatalf("seed %d: mask (%d, %d) = %x, model %x (%v)", seed, v, r, w, want, ok)
				}
				if got, _ := g.Bitmap(v, r); !slices.Equal(got, w) {
					t.Fatalf("seed %d: Bitmap(%d, %d) = %x, ForEachBitmap %x", seed, v, r, got, w)
				}
				n++
			})
		}
		if n != len(model) || g.NumBitmaps() != n {
			t.Fatalf("seed %d: %d masks yielded, NumBitmaps %d, model %d", seed, n, g.NumBitmaps(), len(model))
		}
	}
}

// TestMaskCloneIndependence pins that Clone copies the store: a mask set
// on either copy afterwards leaves the other as it was.
func TestMaskCloneIndependence(t *testing.T) {
	g := maskGraph(4, 3)
	g.SetBitmap(0, 1, []uint64{0b101})
	c := g.Clone()
	c.SetBitmap(0, 1, []uint64{0b010})
	g.SetBitmap(0, 2, []uint64{0b001})
	if w, _ := g.Bitmap(0, 1); w[0] != 0b101 {
		t.Fatalf("original mask changed to %b by a write to the clone", w[0])
	}
	if _, ok := c.Bitmap(0, 2); ok {
		t.Fatal("clone sees a mask set on the original after cloning")
	}
	if New(CDUP).Clone().masks != nil {
		t.Fatal("Clone of a graph without masks made a store")
	}
}

// TestMaskMemBytes pins what MemBytes charges for masks: two slice headers
// per virtual slot once the store exists, 4 B per origin and 8 B per word.
func TestMaskMemBytes(t *testing.T) {
	g := maskGraph(8, 3, 100, 5)
	base := g.MemBytes()
	g.SetBitmap(1, 0, make([]uint64, 2))
	g.SetBitmap(1, 4, make([]uint64, 2))
	g.SetBitmap(0, 4, make([]uint64, 1))
	want := base + 3*2*24 + 3*4 + 5*8
	if got := g.MemBytes(); got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
	g.SetMode(CDUP)
	if got := g.MemBytes(); got != base {
		t.Fatalf("MemBytes after leaving BITMAP = %d, want %d", got, base)
	}
}

// TestMaskCompactRemap pins Compact's rewrite of the store: dead origins
// go, live ones are renumbered and stay ascending, and each mask keeps the
// bits of its surviving targets at their new positions, across word
// boundaries.
func TestMaskCompactRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nReal = 90
	g := maskGraph(nReal, 150)
	old := slices.Clone(g.VirtTargets(0))
	masks := map[int32][]uint64{}
	for r := int32(0); r < nReal; r += 3 {
		masks[r] = randomMask(rng, len(old))
		g.SetBitmap(0, r, masks[r])
	}
	dead := map[int32]bool{}
	for _, r := range []int32{0, 1, 7, 33, 63, 64, 65, 89} {
		dead[r] = true
		g.DeleteVertexID(int64(r))
	}
	g.Compact()
	var origins []int32
	g.ForEachBitmap(0, func(r int32, w []uint64) {
		origins = append(origins, r)
		id := int32(g.RealID(r))
		want := masks[id]
		j := 0
		for i, t0 := range old {
			if dead[t0] {
				continue
			}
			if got, exp := w[j>>6]>>(j&63)&1, want[i>>6]>>(i&63)&1; got != exp {
				t.Fatalf("origin %d target %d: bit %d, was %d", id, t0, got, exp)
			}
			j++
		}
		if j != len(g.VirtTargets(0)) || len(w) != maskStride(j) {
			t.Fatalf("origin %d: %d words for %d targets", id, len(w), len(g.VirtTargets(0)))
		}
	})
	if !slices.IsSorted(origins) {
		t.Fatalf("origins after Compact %v are not ascending", origins)
	}
	live := 0
	for r := range masks {
		if !dead[r] {
			live++
		}
	}
	if len(origins) != live {
		t.Fatalf("%d origins after Compact, want %d", len(origins), live)
	}
}
