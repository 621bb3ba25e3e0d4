// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on scaled-down datasets: the workload generators,
// parameter sweeps, baselines, and harnesses that print the same rows and
// series the paper reports. Absolute numbers differ (the substrate is an
// in-process simulator on CI-class hardware, not the authors' 24-core
// testbed); the comparisons — who wins, by what factor, where EXP becomes
// infeasible — are the reproduction targets (README.md, "Reproducing the
// evaluation (§6)").
package experiments

import (
	"fmt"
	"time"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// Scale divides the paper's dataset sizes; 1 is the default CI-friendly
// scale (roughly 1/100 of the paper's), larger values shrink further.
type Scale struct {
	// Quick selects even smaller datasets for smoke runs.
	Quick bool
}

// Dataset couples a generated database with its extraction query, matching
// Table 1's four workloads.
type Dataset struct {
	Name  string
	DB    *relstore.DB
	Query string
}

// SmallDatasets returns the four Section 6.1 datasets: DBLP and IMDB
// samples plus Synthetic_1 and Synthetic_2 (Table 2). The synthetic ones
// are condensed graphs directly (the paper generates them condensed too);
// they are returned through the graphs map.
func SmallDatasets(s Scale) (dbs []Dataset, condensed map[string]*core.Graph) {
	div := 1
	if s.Quick {
		div = 4
	}
	dbs = []Dataset{
		{Name: "DBLP", DB: datagen.DBLPLike(41, 3000/div, 2400/div), Query: datagen.QueryCoauthors},
		{Name: "IMDB", DB: datagen.IMDBLike(42, 1600/div, 260/div), Query: datagen.QueryCoactors},
	}
	condensed = map[string]*core.Graph{
		// Paper shapes: Synthetic_1 has many small virtual nodes
		// (20k reals / 200k virts / avg 7); Synthetic_2 few huge ones
		// (200k reals / 1k virts / avg 94). Scaled ~1/100.
		"Synthetic_1": datagen.Condensed(datagen.CondensedConfig{
			Seed: 43, RealNodes: 220 / min(div, 2), VirtualNodes: 2000 / div, MeanSize: 7, StdDev: 2}),
		"Synthetic_2": datagen.Condensed(datagen.CondensedConfig{
			Seed: 44, RealNodes: 2000 / div, VirtualNodes: 12, MeanSize: 94, StdDev: 20}),
	}
	return dbs, condensed
}

// Table1Datasets returns the four extraction workloads of Table 1.
func Table1Datasets(s Scale) []Dataset {
	div := 1
	if s.Quick {
		div = 4
	}
	return []Dataset{
		{Name: "DBLP", DB: datagen.DBLPLike(41, 3000/div, 2400/div), Query: datagen.QueryCoauthors},
		{Name: "IMDB", DB: datagen.IMDBLike(42, 1600/div, 260/div), Query: datagen.QueryCoactors},
		{Name: "TPCH", DB: datagen.TPCHLike(45, 300/div, 2000/div, 25, 3), Query: datagen.QuerySamePart},
		{Name: "UNIV", DB: datagen.UnivLike(46, 800/div, 20, 40, 4), Query: datagen.QuerySameCourse},
	}
}

// LargeDataset is a Table 3 workload.
type LargeDataset struct {
	Name  string
	DB    *relstore.DB
	Query string
	// ExpBudget caps EXP materialization; exceeding it reports DNF, the
	// paper's ">64GB / did not finish" outcome scaled down.
	ExpBudget int64
}

// LargeDatasets returns the Table 3 workloads: two multi-layer and two
// single-layer selectivity-controlled synthetics plus the TPCH same-part
// graph. Selectivities follow Table 6.
func LargeDatasets(s Scale) []LargeDataset {
	rows := 12000
	if s.Quick {
		rows = 3000
	}
	return []LargeDataset{
		{Name: "Layered_1", DB: datagen.Layered(datagen.LayeredSpec{Seed: 51, Rows: rows, Entities: rows / 6, Sel1: 0.05, Sel2: 0.1}), Query: datagen.LayeredQuery, ExpBudget: 4_000_000},
		{Name: "Layered_2", DB: datagen.Layered(datagen.LayeredSpec{Seed: 52, Rows: rows, Entities: rows / 6, Sel1: 0.2, Sel2: 0.1}), Query: datagen.LayeredQuery, ExpBudget: 4_000_000},
		{Name: "Single_1", DB: datagen.Single(datagen.SingleSpec{Seed: 53, Rows: rows, Entities: rows / 2, Selectivity: 0.25}), Query: datagen.SingleQuery, ExpBudget: 4_000_000},
		{Name: "Single_2", DB: datagen.Single(datagen.SingleSpec{Seed: 54, Rows: rows, Entities: rows / 2, Selectivity: 0.01}), Query: datagen.SingleQuery, ExpBudget: 4_000_000},
		{Name: "TPCH", DB: datagen.TPCHLike(55, 400, rows/4, 30, 3), Query: datagen.QuerySamePart, ExpBudget: 4_000_000},
	}
}

// ExtractCondensed extracts the C-DUP representation of a dataset.
func ExtractCondensed(d Dataset) (*core.Graph, extract.Stats, error) {
	prog, err := datalog.Parse(d.Query)
	if err != nil {
		return nil, extract.Stats{}, err
	}
	opts := extract.DefaultOptions()
	opts.ForceCondensed = true
	opts.SkipPreprocess = true
	res, err := extract.Extract(d.DB, prog, opts)
	if err != nil {
		return nil, extract.Stats{}, err
	}
	return res.Graph, res.Stats, nil
}

// ExtractExpanded extracts the fully expanded graph, bounded by maxEdges.
func ExtractExpanded(d Dataset, maxEdges int64) (*core.Graph, extract.Stats, error) {
	prog, err := datalog.Parse(d.Query)
	if err != nil {
		return nil, extract.Stats{}, err
	}
	opts := extract.DefaultOptions()
	opts.ForceExpand = true
	opts.SkipPreprocess = true
	opts.MaxEdges = maxEdges
	res, err := extract.Extract(d.DB, prog, opts)
	if err != nil {
		return nil, extract.Stats{}, err
	}
	return res.Graph, res.Stats, nil
}

// fmtDur renders a duration in seconds with millisecond resolution.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// fmtMB renders bytes as MB.
func fmtMB(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }
