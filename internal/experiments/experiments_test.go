package experiments

import (
	"strings"
	"testing"

	"graphgen/internal/datalog"
	"graphgen/internal/extract"
)

// The experiment regenerators are exercised end-to-end in quick mode: every
// table/figure must produce non-empty, well-formed rows without errors.

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke run skipped in -short mode")
	}
	s := Scale{Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out := e.Run(s)
			if len(out) == 0 {
				t.Fatal("empty output")
			}
			if strings.Contains(out, "error") || strings.Contains(out, "FAILED") {
				t.Fatalf("experiment reported an error:\n%s", out)
			}
			if lines := strings.Count(out, "\n"); lines < 3 {
				t.Fatalf("suspiciously short output (%d lines):\n%s", lines, out)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("expected unknown-id error")
	}
}

func TestTable1ShapeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check skipped in -short mode")
	}
	// Reproduction target (i): on the dense extractions the condensed
	// representation must be (much) smaller than the full graph.
	s := Scale{Quick: true}
	for _, d := range Table1Datasets(s) {
		if d.Name == "DBLP" {
			continue // the paper's best case for EXP; sizes are close
		}
		cg, _, err := ExtractCondensed(d)
		if err != nil {
			t.Fatal(err)
		}
		eg, _, err := ExtractExpanded(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cg.RepEdges() >= eg.RepEdges() {
			t.Errorf("%s: condensed %d edges >= expanded %d", d.Name, cg.RepEdges(), eg.RepEdges())
		}
	}
}

// TestExtractionsLeaveNoDeadVirtualSlots extracts every dataset the
// experiments extract, at both scales, as the experiments do (Step 6
// skipped) and with Step 6 on: each graph must hold exactly its live
// virtual nodes, since Step 6 drops the slots it empties.
func TestExtractionsLeaveNoDeadVirtualSlots(t *testing.T) {
	for _, s := range []Scale{{Quick: true}, {}} {
		dbs, _ := SmallDatasets(s)
		dbs = append(dbs, Table1Datasets(s)...)
		for _, d := range LargeDatasets(s) {
			dbs = append(dbs, Dataset{Name: d.Name, DB: d.DB, Query: d.Query})
		}
		for _, d := range dbs {
			prog, err := datalog.Parse(d.Query)
			if err != nil {
				t.Fatal(err)
			}
			for _, step6 := range []bool{false, true} {
				opts := extract.DefaultOptions()
				opts.ForceCondensed = true
				opts.SkipPreprocess = !step6
				res, err := extract.Extract(d.DB, prog, opts)
				if err != nil {
					t.Fatalf("%s (quick %v, Step 6 %v): %v", d.Name, s.Quick, step6, err)
				}
				if g := res.Graph; g.NumVirtualSlots() != g.NumVirtualNodes() {
					t.Errorf("%s (quick %v, Step 6 %v): %d virtual slots for %d live nodes",
						d.Name, s.Quick, step6, g.NumVirtualSlots(), g.NumVirtualNodes())
				}
			}
		}
	}
}
