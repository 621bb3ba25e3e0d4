package graphgen

// Equivalence of the default fused streaming pipeline against the legacy
// materializing execution (the relstore.MaterializingOracle test oracle): both paths
// must produce structurally identical graphs — the streaming operators
// promise row-for-row identical output, so the condensed representation,
// adjacency lists, and bitmaps must all match, for any worker count and
// planner mode.

import (
	"testing"

	"graphgen/internal/datalog"
	"graphgen/internal/experiments"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// extractOptions returns the default extraction options, under the
// materializing test oracle when oracle is set.
func extractOptions(oracle bool) extract.Options {
	opts := extract.DefaultOptions()
	if oracle {
		opts.ExecOpts = relstore.MaterializingOracle(opts.ExecOpts)
	}
	return opts
}

// TestStreamingExtractionEquivalence runs the Table 1 workloads through
// the streaming and oracle paths and compares coreFingerprints, in
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
				opts.ExecOpts = relstore.MaterializingOracle(opts.ExecOpts)
				materializing, err := extract.Extract(d.DB, prog, opts)
				if err != nil {
					t.Fatalf("%s: oracle workers=%d: %v", d.Name, w, err)
				}
				if coreFingerprint(streaming.Graph) != coreFingerprint(materializing.Graph) {
					t.Errorf("%s (condensed=%t workers=%d): streaming and oracle graphs differ",
						d.Name, condensed, w)
				}
				if streaming.Stats.PeakIntermediateRows <= 0 || materializing.Stats.PeakIntermediateRows <= 0 {
					t.Errorf("%s (condensed=%t workers=%d): peak tracking dead (streaming=%d, oracle=%d)",
						d.Name, condensed, w,
						streaming.Stats.PeakIntermediateRows, materializing.Stats.PeakIntermediateRows)
				}
			}
		}
	}
}
