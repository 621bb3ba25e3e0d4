package graphgen

// Equivalence of the default fused streaming pipeline against the legacy
// materializing execution (the Options.NoStream test oracle): both paths
// must produce structurally identical graphs — the streaming operators
// promise row-for-row identical output, so the condensed representation,
// adjacency lists, and bitmaps must all match, for any worker count and
// planner mode.

import (
	"testing"

	"graphgen/internal/datalog"
	"graphgen/internal/experiments"
	"graphgen/internal/extract"
)

// TestStreamingExtractionEquivalence runs the Table 1 workloads through
// the streaming and NoStream paths and compares coreFingerprints, in
// both planner modes and across the usual worker counts. It also checks
// that both paths report a positive peak-intermediate-rows figure —
// equivalence with a silently dead tracker would be vacuous.
func TestStreamingExtractionEquivalence(t *testing.T) {
	for _, d := range experiments.Table1Datasets(experiments.Scale{Quick: true}) {
		prog, err := datalog.Parse(d.Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, condensed := range []bool{true, false} {
			for _, w := range append([]int{1}, equivWorkers...) {
				opts := extract.DefaultOptions()
				opts.ForceCondensed = condensed
				opts.Workers = w
				streaming, err := extract.Extract(d.DB, prog, opts)
				if err != nil {
					t.Fatalf("%s: streaming workers=%d: %v", d.Name, w, err)
				}
				opts.NoStream = true
				materializing, err := extract.Extract(d.DB, prog, opts)
				if err != nil {
					t.Fatalf("%s: NoStream workers=%d: %v", d.Name, w, err)
				}
				if coreFingerprint(streaming.Graph) != coreFingerprint(materializing.Graph) {
					t.Errorf("%s (condensed=%t workers=%d): streaming and NoStream graphs differ",
						d.Name, condensed, w)
				}
				if streaming.Stats.PeakIntermediateRows <= 0 || materializing.Stats.PeakIntermediateRows <= 0 {
					t.Errorf("%s (condensed=%t workers=%d): peak tracking dead (streaming=%d, NoStream=%d)",
						d.Name, condensed, w,
						streaming.Stats.PeakIntermediateRows, materializing.Stats.PeakIntermediateRows)
				}
			}
		}
	}
}
