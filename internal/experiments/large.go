package experiments

import (
	"fmt"
	"strings"
	"time"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/dedup"
	"graphgen/internal/extract"
)

// Table3 reproduces Table 3: Degree / PageRank / BFS runtimes and memory
// for C-DUP, BITMAP(-2), and EXP on the large datasets, plus the BITMAP
// deduplication time. EXP materialization beyond the budget prints DNF —
// the paper's "> 64GB" rows.
func Table3(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 3: large datasets — C-DUP vs BITMAP vs EXP\n")
	fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %10s %12s %12s\n",
		"Dataset", "Repr", "Degree", "PR", "BFS", "Mem", "DedupTime")
	for _, d := range LargeDatasets(s) {
		prog, err := datalog.Parse(d.Query)
		if err != nil {
			fmt.Fprintf(&sb, "%-10s parse error: %v\n", d.Name, err)
			continue
		}
		opts := extract.DefaultOptions()
		opts.ForceCondensed = true
		opts.SkipPreprocess = true
		res, err := extract.Extract(d.DB, prog, opts)
		if err != nil {
			fmt.Fprintf(&sb, "%-10s extract error: %v\n", d.Name, err)
			continue
		}
		cdup := res.Graph

		// C-DUP row (on-the-fly dedup during every algorithm).
		m := measureTable3(cdup)
		fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %10s %12s %12s\n",
			d.Name, "C-DUP", fmtDur(m.degree), fmtDur(m.pagerank), fmtDur(m.bfs), fmtMB(cdup.MemBytes()), "-")

		// BITMAP row (BITMAP-2 dedup; works on multi-layer graphs too).
		start := time.Now()
		bmp, _, err := dedup.Bitmap2(cdup)
		dedupTime := time.Since(start)
		if err != nil {
			fmt.Fprintf(&sb, "%-10s %-8s dedup error: %v\n", d.Name, "BITMAP", err)
		} else {
			m = measureTable3(bmp)
			fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %10s %12s %12s\n",
				d.Name, "BITMAP", fmtDur(m.degree), fmtDur(m.pagerank), fmtDur(m.bfs), fmtMB(bmp.MemBytes()), fmtDur(dedupTime))
		}

		// EXP row, with the memory budget standing in for 64GB.
		exp, err := cdup.Expand(d.ExpBudget)
		if err != nil {
			fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %10s %12s %12s\n",
				d.Name, "EXP", "DNF", "DNF", "DNF", fmt.Sprintf(">%s", fmtMB(d.ExpBudget*8)), "-")
			continue
		}
		m = measureTable3(exp)
		fmt.Fprintf(&sb, "%-10s %-8s %10s %10s %10s %12s %12s\n",
			d.Name, "EXP", fmtDur(m.degree), fmtDur(m.pagerank), fmtDur(m.bfs), fmtMB(exp.MemBytes()), "-")
	}
	return sb.String()
}

type table3Times struct {
	degree, pagerank, bfs time.Duration
}

func measureTable3(g *core.Graph) table3Times {
	var m table3Times
	start := time.Now()
	algo.Degrees(g)
	m.degree = time.Since(start)

	start = time.Now()
	algo.PageRank(g, 5, 0.85)
	m.pagerank = time.Since(start)

	sources := sampleIDs(g, 5)
	start = time.Now()
	for _, id := range sources {
		algo.BFS(g, id)
	}
	if len(sources) > 0 {
		m.bfs = time.Since(start) / time.Duration(len(sources))
	}
	return m
}

// Table6 reproduces Table 6: the join selectivities and condensed sizes of
// the generated datasets.
func Table6(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 6: generated dataset selectivities (C-DUP sizes)\n")
	fmt.Fprintf(&sb, "%-10s %10s %12s %-20s\n", "Dataset", "Nodes", "Edges", "JoinSelectivities")
	for _, d := range LargeDatasets(s) {
		prog, _ := datalog.Parse(d.Query)
		opts := extract.DefaultOptions()
		opts.ForceCondensed = true
		opts.SkipPreprocess = true
		res, err := extract.Extract(d.DB, prog, opts)
		if err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", d.Name, err)
			continue
		}
		sel := joinSelectivities(d)
		fmt.Fprintf(&sb, "%-10s %10d %12d %-20s\n",
			d.Name, res.Graph.TotalNodes(), res.Graph.RepEdges(), sel)
	}
	return sb.String()
}

// joinSelectivities reports distinct/rows for each join attribute of the
// dataset's chain, Table 6's definition.
func joinSelectivities(d LargeDataset) string {
	prog, err := datalog.Parse(d.Query)
	if err != nil || len(prog.Edges) == 0 {
		return "?"
	}
	chain, err := datalog.AnalyzeChain(prog.Edges[0])
	if err != nil {
		return "?"
	}
	var parts []string
	for i, v := range chain.JoinVars {
		atom := chain.Steps[i].Atom
		t, err := d.DB.Table(atom.Pred)
		if err != nil {
			return "?"
		}
		idx, ok := atom.TermIndex(v)
		if !ok || idx >= len(t.Cols) {
			return "?"
		}
		dist, err := t.NDistinct(t.Cols[idx].Name)
		if err != nil {
			return "?"
		}
		parts = append(parts, fmt.Sprintf("%.3f", float64(dist)/float64(t.NumRows())))
	}
	return strings.Join(parts, " -> ")
}
