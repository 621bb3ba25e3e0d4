package graphgen

// Equivalence of the default fused streaming pipeline against the legacy
// materializing execution (the relstore.MaterializingOracle test oracle): both paths
// must produce structurally identical graphs — the streaming operators
// promise row-for-row identical output, so the condensed representation,
// adjacency lists, and bitmaps must all match, in either planner mode.

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
// the streaming and oracle paths and compares coreFingerprints, in both
// planner modes. It also checks that both paths report a positive
// peak-intermediate-rows figure — equivalence with a silently dead tracker
// would be vacuous.
func TestStreamingExtractionEquivalence(t *testing.T) {
	for _, d := range experiments.Table1Datasets(experiments.Scale{Quick: true}) {
		prog, err := datalog.Parse(d.Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, condensed := range []bool{true, false} {
			opts := extract.DefaultOptions()
			opts.ForceCondensed = condensed
			streaming, err := extract.Extract(d.DB, prog, opts)
			if err != nil {
				t.Fatalf("%s: streaming: %v", d.Name, err)
			}
			opts.ExecOpts = relstore.MaterializingOracle(opts.ExecOpts)
			materializing, err := extract.Extract(d.DB, prog, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", d.Name, err)
			}
			requireNoDeadVirtualSlots(t, d.Name+" streaming", streaming.Graph)
			requireNoDeadVirtualSlots(t, d.Name+" oracle", materializing.Graph)
			if coreFingerprint(streaming.Graph) != coreFingerprint(materializing.Graph) {
				t.Errorf("%s (condensed=%t): streaming and oracle graphs differ", d.Name, condensed)
			}
			if streaming.Stats.PeakIntermediateRows <= 0 || materializing.Stats.PeakIntermediateRows <= 0 {
				t.Errorf("%s (condensed=%t): peak tracking dead (streaming=%d, oracle=%d)", d.Name, condensed,
					streaming.Stats.PeakIntermediateRows, materializing.Stats.PeakIntermediateRows)
			}
		}
	}
}
