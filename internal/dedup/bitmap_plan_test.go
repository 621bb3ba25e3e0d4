package dedup

import (
	"testing"

	"graphgen/internal/core"
)

// TestPlanBitmap2StableOrder pins the fix for a map-iteration-order leak
// graphlint's determinism analyzer surfaced: planBitmap2 used to emit the
// greedy cover straight out of the chosen map, so a plan's bitmap sequence
// varied run to run. It must now follow discovery (reach) order and be
// identical on every repetition — also when the repetitions share one
// scratch that other origins have used, against a first run on a fresh one.
func TestPlanBitmap2StableOrder(t *testing.T) {
	graphs := []*core.Graph{
		randomSymmetric(3, 24, 14, 6),
		randomMultiLayer(7, 20, 10, 6),
	}
	for gi, g := range graphs {
		out := g.Clone()
		out.NormalizeDirects()
		var origins []int32
		out.ForEachReal(func(u int32) bool { origins = append(origins, u); return true })
		var shared planScratch
		for _, u := range origins {
			base := planBitmap2(out, u, new(planScratch))
			if base == nil {
				continue
			}
			for rep := 0; rep < 10; rep++ {
				p := planBitmap2(out, u, &shared)
				if len(p.bitmaps) != len(base.bitmaps) {
					t.Fatalf("graph %d origin %d rep %d: %d bitmaps, first run had %d",
						gi, u, rep, len(p.bitmaps), len(base.bitmaps))
				}
				for i := range p.bitmaps {
					if p.bitmaps[i].virt != base.bitmaps[i].virt {
						t.Fatalf("graph %d origin %d rep %d: bitmap %d targets virtual %d, first run had %d — plan order depends on map iteration",
							gi, u, rep, i, p.bitmaps[i].virt, base.bitmaps[i].virt)
					}
				}
			}
		}
	}
}
