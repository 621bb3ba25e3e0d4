package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/dedup"
	"graphgen/internal/vertexcentric"
	"graphgen/internal/vminer"
)

// This file regenerates Table 1, Table 2, Figure 10, Figure 11, Figure 12,
// and Figure 13.

// Table1 reproduces Table 1: condensed vs full extraction (edge counts and
// extraction times) for the four workloads. EXP extraction beyond the edge
// budget reports DNF, the paper's "> 1200s" outcome.
func Table1(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: condensed (C-DUP) vs full (EXP) extraction\n")
	fmt.Fprintf(&sb, "%-6s %-10s %12s %14s %12s\n", "", "Repr", "Edges", "Time", "InputRows")
	const expBudget = 3_000_000
	for _, d := range Table1Datasets(s) {
		start := time.Now()
		cg, _, err := ExtractCondensed(d)
		if err != nil {
			fmt.Fprintf(&sb, "%-6s condensed FAILED: %v\n", d.Name, err)
			continue
		}
		condTime := time.Since(start)
		fmt.Fprintf(&sb, "%-6s %-10s %12d %14s %12d\n",
			d.Name, "Condensed", cg.RepEdges(), fmtDur(condTime), d.DB.TotalRows())
		start = time.Now()
		eg, _, err := ExtractExpanded(d, expBudget)
		if err != nil {
			fmt.Fprintf(&sb, "%-6s %-10s %12s %14s %12d\n",
				d.Name, "FullGraph", fmt.Sprintf(">%d", expBudget), "DNF", d.DB.TotalRows())
			continue
		}
		fmt.Fprintf(&sb, "%-6s %-10s %12d %14s %12d\n",
			d.Name, "FullGraph", eg.RepEdges(), fmtDur(time.Since(start)), d.DB.TotalRows())
	}
	return sb.String()
}

// smallGraphs assembles the Section 6.1 condensed graphs (extracted for
// DBLP/IMDB, generated for the synthetics) keyed by dataset name.
func smallGraphs(s Scale) ([]string, map[string]*core.Graph) {
	dbs, condensed := SmallDatasets(s)
	graphs := make(map[string]*core.Graph, 4)
	for _, d := range dbs {
		g, _, err := ExtractCondensed(d)
		if err != nil {
			panic(fmt.Sprintf("experiments: extracting %s: %v", d.Name, err))
		}
		graphs[d.Name] = g
	}
	for name, g := range condensed {
		graphs[name] = g
	}
	return []string{"DBLP", "IMDB", "Synthetic_1", "Synthetic_2"}, graphs
}

// Table2 reproduces Table 2: the shapes of the four small datasets.
func Table2(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: small datasets\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s %9s %12s\n", "Dataset", "RealNodes", "VirtNodes", "AvgSize", "EXPEdges")
	names, graphs := smallGraphs(s)
	for _, name := range names {
		g := graphs[name]
		fmt.Fprintf(&sb, "%-12s %10d %10d %9.1f %12d\n",
			name, g.NumRealNodes(), g.NumVirtualNodes(), g.AvgVirtualSize(), g.LogicalEdges())
	}
	return sb.String()
}

// repBuilders returns the representation constructors compared in Figure 10
// in display order.
func repBuilders(seed int64) []struct {
	Name  string
	Build func(*core.Graph) (*core.Graph, error)
} {
	o := dedup.Options{Seed: seed}
	return []struct {
		Name  string
		Build func(*core.Graph) (*core.Graph, error)
	}{
		{"C-DUP", func(g *core.Graph) (*core.Graph, error) { return g.Clone(), nil }},
		{"DEDUP-1", func(g *core.Graph) (*core.Graph, error) {
			out, _, err := dedup.Dedup1GreedyVirtualFirst(g, o)
			return out, err
		}},
		{"DEDUP-2", func(g *core.Graph) (*core.Graph, error) {
			out, _, err := dedup.Dedup2Greedy(g, o)
			return out, err
		}},
		{"BITMAP-1", func(g *core.Graph) (*core.Graph, error) {
			out, _, err := dedup.Bitmap1(g)
			return out, err
		}},
		{"BITMAP-2", func(g *core.Graph) (*core.Graph, error) {
			out, _, err := dedup.Bitmap2(g)
			return out, err
		}},
		{"EXP", func(g *core.Graph) (*core.Graph, error) { return g.Expand(0) }},
		{"VMiner", func(g *core.Graph) (*core.Graph, error) {
			out, _, err := vminer.Mine(g, vminer.Options{})
			return out, err
		}},
	}
}

// Figure10 reproduces Figure 10: in-memory sizes (nodes and edges, plus
// estimated bytes) per representation per small dataset, including the
// VMiner baseline, which must first expand the graph.
func Figure10(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: in-memory graph sizes per representation\n")
	fmt.Fprintf(&sb, "%-12s %-10s %10s %12s %12s\n", "Dataset", "Repr", "Nodes", "Edges", "Mem")
	names, graphs := smallGraphs(s)
	for _, name := range names {
		g := graphs[name]
		for _, rb := range repBuilders(7) {
			out, err := rb.Build(g)
			if err != nil {
				fmt.Fprintf(&sb, "%-12s %-10s %10s %12s %12s\n", name, rb.Name, "-", "ERR", err)
				continue
			}
			fmt.Fprintf(&sb, "%-12s %-10s %10d %12d %12s\n",
				name, rb.Name, out.TotalNodes(), out.RepEdges(), fmtMB(out.MemBytes()))
		}
	}
	return sb.String()
}

// Figure11 reproduces Figure 11: Degree, BFS, and PageRank runtimes per
// representation on DBLP and Synthetic_1, normalized to EXP.
func Figure11(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11: graph algorithm runtimes (normalized to EXP = 1.00)\n")
	fmt.Fprintf(&sb, "%-12s %-10s %10s %10s %10s\n", "Dataset", "Repr", "Degree", "BFS", "PageRank")
	_, graphs := smallGraphs(s)
	for _, name := range []string{"DBLP", "Synthetic_1"} {
		g := graphs[name]
		reps := buildAnalysisReps(g, 7)
		order := []string{"EXP", "C-DUP", "DEDUP-1", "DEDUP-2", "BITMAP-1", "BITMAP-2"}
		measured := make(map[string]algoTimes, len(order))
		for _, rep := range order {
			if rg, ok := reps[rep]; ok {
				measured[rep] = measureAlgos(rg, g)
			}
		}
		base := measured["EXP"]
		for _, rep := range order {
			m, ok := measured[rep]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "%-12s %-10s %10.2f %10.2f %10.2f\n", name, rep,
				ratio(m.degree, base.degree), ratio(m.bfs, base.bfs), ratio(m.pagerank, base.pagerank))
		}
	}
	return sb.String()
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type algoTimes struct {
	degree, bfs, pagerank time.Duration
}

// measureAlgos times Degree and PageRank on the vertex-centric framework
// and single-threaded BFS from a fixed sample of sources, mirroring the
// paper's Figure 11 methodology.
func measureAlgos(g *core.Graph, src *core.Graph) algoTimes {
	var t algoTimes
	start := time.Now()
	vertexcentric.Run(g, vertexcentric.DegreeProgram(), vertexcentric.Options{Workers: 2})
	t.degree = time.Since(start)

	// BFS: mean over a fixed set of sources present in every
	// representation (the paper uses 50 random real nodes).
	sources := sampleIDs(src, 25)
	start = time.Now()
	for _, id := range sources {
		algo.BFS(g, id)
	}
	t.bfs = time.Since(start) / time.Duration(len(sources))

	start = time.Now()
	vertexcentric.Run(g, vertexcentric.PageRankProgram(g, 5, 0.85), vertexcentric.Options{Workers: 2})
	t.pagerank = time.Since(start)
	return t
}

func sampleIDs(g *core.Graph, n int) []int64 {
	var ids []int64
	g.ForEachReal(func(r int32) bool {
		ids = append(ids, g.RealID(r))
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > n {
		step := len(ids) / n
		var out []int64
		for i := 0; i < len(ids) && len(out) < n; i += step {
			out = append(out, ids[i])
		}
		return out
	}
	return ids
}

// buildAnalysisReps builds every representation of g (skipping ones the
// graph class does not support).
func buildAnalysisReps(g *core.Graph, seed int64) map[string]*core.Graph {
	out := map[string]*core.Graph{"C-DUP": g}
	for _, rb := range repBuilders(seed) {
		if rb.Name == "C-DUP" || rb.Name == "VMiner" {
			continue
		}
		if r, err := rb.Build(g); err == nil {
			out[rb.Name] = r
		}
	}
	return out
}

// Figure12a reproduces Figure 12a: runtimes of the deduplication
// algorithms (log-scale in the paper) across the small datasets.
func Figure12a(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12a: deduplication algorithm runtimes (RAND ordering)\n")
	fmt.Fprintf(&sb, "%-12s %-24s %12s %12s\n", "Dataset", "Algorithm", "Time", "OutEdges")
	names, graphs := smallGraphs(s)
	algos := dedupAlgorithms()
	for _, name := range names {
		g := graphs[name]
		for _, da := range algos {
			start := time.Now()
			out, err := da.Run(g, dedup.Options{Ordering: dedup.OrderRandom, Seed: 7})
			if err != nil {
				fmt.Fprintf(&sb, "%-12s %-24s %12s %12s\n", name, da.Name, "n/a", "-")
				continue
			}
			fmt.Fprintf(&sb, "%-12s %-24s %12s %12d\n",
				name, da.Name, fmtDur(time.Since(start)), out.RepEdges())
		}
	}
	return sb.String()
}

type dedupAlgo struct {
	Name string
	Run  func(*core.Graph, dedup.Options) (*core.Graph, error)
}

func dedupAlgorithms() []dedupAlgo {
	wrap := func(fn func(*core.Graph, dedup.Options) (*core.Graph, dedup.Stats, error)) func(*core.Graph, dedup.Options) (*core.Graph, error) {
		return func(g *core.Graph, o dedup.Options) (*core.Graph, error) {
			out, _, err := fn(g, o)
			return out, err
		}
	}
	// The BITMAP builders take no options.
	bitmap := func(fn func(*core.Graph) (*core.Graph, dedup.Stats, error)) func(*core.Graph, dedup.Options) (*core.Graph, error) {
		return wrap(func(g *core.Graph, _ dedup.Options) (*core.Graph, dedup.Stats, error) { return fn(g) })
	}
	return []dedupAlgo{
		{"BITMAP-1", bitmap(dedup.Bitmap1)},
		{"BITMAP-2", bitmap(dedup.Bitmap2)},
		{"DEDUP1-NaiveVirtualFirst", wrap(dedup.Dedup1NaiveVirtualFirst)},
		{"DEDUP1-NaiveRealFirst", wrap(dedup.Dedup1NaiveRealFirst)},
		{"DEDUP1-GreedyRealFirst", wrap(dedup.Dedup1GreedyRealFirst)},
		{"DEDUP1-GreedyVirtFirst", wrap(dedup.Dedup1GreedyVirtualFirst)},
		{"DEDUP2-Greedy", wrap(dedup.Dedup2Greedy)},
	}
}

// Figure12b reproduces Figure 12b: the effect of the processing order on
// deduplication time and output size.
func Figure12b(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12b: vertex ordering effect on deduplication\n")
	fmt.Fprintf(&sb, "%-24s %-6s %12s %12s\n", "Algorithm", "Order", "Time", "OutEdges")
	_, graphs := smallGraphs(s)
	g := graphs["Synthetic_1"]
	for _, da := range dedupAlgorithms()[2:] { // ordering matters for DEDUP-1/2
		for _, ord := range []dedup.Ordering{dedup.OrderRandom, dedup.OrderSizeAsc, dedup.OrderSizeDesc} {
			start := time.Now()
			out, err := da.Run(g, dedup.Options{Ordering: ord, Seed: 7})
			if err != nil {
				continue
			}
			fmt.Fprintf(&sb, "%-24s %-6s %12s %12d\n",
				da.Name, ord.String(), fmtDur(time.Since(start)), out.RepEdges())
		}
	}
	return sb.String()
}

// Figure13 reproduces Figure 13: microbenchmarks of the core Graph API
// operations per representation (normalized to EXP).
func Figure13(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13: Graph API microbenchmarks (normalized to EXP = 1.00)\n")
	fmt.Fprintf(&sb, "%-12s %-10s %14s %14s %14s\n", "Dataset", "Repr", "GetNeighbors", "ExistsEdge", "RemoveVertex")
	names, graphs := smallGraphs(s)
	for _, name := range names {
		g := graphs[name]
		reps := buildAnalysisReps(g, 7)
		order := []string{"EXP", "C-DUP", "DEDUP-1", "DEDUP-2", "BITMAP-1", "BITMAP-2"}
		measured := make(map[string]microTimes, len(order))
		for _, rep := range order {
			if rg, ok := reps[rep]; ok {
				measured[rep] = microbench(rg, g)
			}
		}
		base := measured["EXP"]
		for _, rep := range order {
			m, ok := measured[rep]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "%-12s %-10s %14.2f %14.2f %14.2f\n", name, rep,
				ratio(m.neighbors, base.neighbors), ratio(m.exists, base.exists), ratio(m.remove, base.remove))
		}
	}
	return sb.String()
}

type microTimes struct {
	neighbors, exists, remove time.Duration
}

// microbench measures the three Figure 13 operations on a fixed sample of
// nodes (the paper averages 3000 repetitions over the same sampled nodes).
func microbench(g *core.Graph, src *core.Graph) microTimes {
	ids := sampleIDs(src, 300)
	var m microTimes
	start := time.Now()
	for _, id := range ids {
		r, ok := g.RealIndex(id)
		if !ok {
			continue
		}
		g.ForNeighbors(r, func(int32) bool { return true })
	}
	m.neighbors = time.Since(start)

	start = time.Now()
	for i, id := range ids {
		g.ExistsEdge(id, ids[(i+1)%len(ids)])
	}
	m.exists = time.Since(start)

	// RemoveVertex on a clone so the shared representation survives.
	work := g.Clone()
	start = time.Now()
	for _, id := range ids[:min(50, len(ids))] {
		work.DeleteVertexID(id)
	}
	work.Compact()
	m.remove = time.Since(start)
	return m
}
