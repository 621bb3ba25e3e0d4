package experiments

import (
	"fmt"
	"strings"

	"graphgen/internal/bsp"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/dedup"
)

// This file regenerates Tables 4 and 5: the Giraph-port experiments on the
// S1/S2/N1/N2 synthetic series and the IMDB co-actor graph, run on the BSP
// engine of internal/bsp.

// bspGraphs builds the five Table 5 datasets as C-DUP graphs.
func bspGraphs(s Scale) ([]string, map[string]*core.Graph) {
	names := []string{"S1", "S2", "N1", "N2", "IMDB"}
	graphs := make(map[string]*core.Graph, 5)
	div := 1
	if s.Quick {
		div = 4
	}
	for _, spec := range datagen.BSPDatasets() {
		graphs[spec.Name] = datagen.Condensed(datagen.CondensedConfig{
			Seed:         spec.Seed,
			RealNodes:    spec.RealNodes / div,
			VirtualNodes: max(1, spec.VirtualNodes/div),
			MeanSize:     spec.MeanSize / float64(div),
			StdDev:       spec.StdDev / float64(div),
		})
	}
	imdb := Dataset{Name: "IMDB", DB: datagen.IMDBLike(42, 1600/div, 260/div), Query: datagen.QueryCoactors}
	g, _, err := ExtractCondensed(imdb)
	if err != nil {
		panic(fmt.Sprintf("experiments: extracting IMDB: %v", err))
	}
	graphs["IMDB"] = g
	return names, graphs
}

// Table4 reproduces Table 4: Degree, Connected Components, and PageRank
// time, memory, and message counts for EXP, DEDUP-1, and BITMAP on the BSP
// engine.
func Table4(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 4: BSP (Giraph-style) experiments\n")
	fmt.Fprintf(&sb, "%-6s %-8s %9s/%-9s %9s/%-9s %9s/%-9s %12s\n",
		"Data", "Repr", "Degree", "mem", "ConComp", "mem", "PageRank", "mem", "Messages")
	names, graphs := bspGraphs(s)
	for _, name := range names {
		g := graphs[name]
		for _, rep := range bspReps(g) {
			var msgs int64
			degRes, err := bsp.Degree(rep.g)
			if err != nil {
				fmt.Fprintf(&sb, "%-6s %-8s error: %v\n", name, rep.name, err)
				continue
			}
			ccRes, err := bsp.Components(rep.g)
			if err != nil {
				continue
			}
			prRes, err := bsp.PageRank(rep.g, 5, 0.85)
			if err != nil {
				continue
			}
			msgs = degRes.Messages + ccRes.Messages + prRes.Messages
			fmt.Fprintf(&sb, "%-6s %-8s %9s/%-9s %9s/%-9s %9s/%-9s %12d\n",
				name, rep.name,
				fmtDur(degRes.Duration), fmtMB(degRes.MemBytes),
				fmtDur(ccRes.Duration), fmtMB(ccRes.MemBytes),
				fmtDur(prRes.Duration), fmtMB(prRes.MemBytes),
				msgs)
		}
	}
	return sb.String()
}

type bspRep struct {
	name string
	g    *core.Graph
}

func bspReps(g *core.Graph) []bspRep {
	var out []bspRep
	if exp, err := g.Expand(0); err == nil {
		out = append(out, bspRep{"EXP", exp})
	}
	// Naive Virtual Nodes First: the greedy variants' benefit/cost scans
	// are quartic in the virtual-node size and DNF on the S/N series'
	// huge virtual nodes — the same infeasibility Table 3 reports.
	if d1, _, err := dedup.Dedup1NaiveVirtualFirst(g, dedup.Options{Seed: 3}); err == nil {
		out = append(out, bspRep{"DEDUP1", d1})
	}
	if bm, _, err := dedup.Bitmap2(g); err == nil {
		out = append(out, bspRep{"BMP", bm})
	}
	return out
}

// Table5 reproduces Table 5: node and edge counts per representation for
// the BSP datasets.
func Table5(s Scale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5: BSP dataset shapes per representation\n")
	fmt.Fprintf(&sb, "%-6s %-8s %10s %10s %12s\n", "Data", "Repr", "AllNodes", "VirtNodes", "Edges")
	names, graphs := bspGraphs(s)
	for _, name := range names {
		g := graphs[name]
		for _, rep := range bspReps(g) {
			fmt.Fprintf(&sb, "%-6s %-8s %10d %10d %12d\n",
				name, rep.name, rep.g.TotalNodes(), rep.g.NumVirtualNodes(), rep.g.RepEdges())
		}
	}
	return sb.String()
}
