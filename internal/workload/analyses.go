package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"graphgen/internal/algo"
	"graphgen/internal/core"
)

// The catalogue of served analyses: graphgend's /analyze/{name} and the
// graphgen CLI's -analyze both parse parameters with ParseParams and run
// Analyze on a frozen view, so one name means one result.

// Params carries the typed parameters of one analysis plus their
// canonical form (sorted key=value pairs with defaults filled in). The
// serving layer keys its result cache by Canonical, so ?iters=20 and the
// defaulted spelling share an entry.
type Params struct {
	Canonical string
	iters     int
	damping   float64
	k         int
	src       int64
	srcAuto   bool
	srcs      []int64
	sources   int
	samples   int
}

// Analyses names every analysis of the catalogue, in ascending order.
var Analyses = []string{"bfs", "closeness", "components", "degree", "pagerank", "sssp", "triangles"}

// ErrUnknownAnalysis is returned for a name outside Analyses.
var ErrUnknownAnalysis = errors.New("unknown analysis (valid: " + strings.Join(Analyses, ", ") + ")")

// ParseParams validates the query parameters q of the named analysis and
// fills in the defaults; a nil q selects every default. Parameters that
// the analysis does not take are validated but left out of Canonical.
func ParseParams(analysis string, q map[string][]string) (Params, error) {
	p := Params{iters: 20, damping: 0.85, k: 10, srcAuto: true, sources: 4, samples: 64}
	get := func(name string) (string, bool) {
		vs := q[name]
		if len(vs) == 0 || vs[0] == "" {
			return "", false
		}
		return vs[0], true
	}
	var err error
	if v, ok := get("iters"); ok {
		if p.iters, err = strconv.Atoi(v); err != nil || p.iters < 1 || p.iters > 10000 {
			return p, fmt.Errorf("iters must be an integer in [1,10000], got %q", v)
		}
	}
	if v, ok := get("damping"); ok {
		if p.damping, err = strconv.ParseFloat(v, 64); err != nil || p.damping <= 0 || p.damping >= 1 {
			return p, fmt.Errorf("damping must be a float in (0,1), got %q", v)
		}
	}
	if v, ok := get("k"); ok {
		if p.k, err = strconv.Atoi(v); err != nil || p.k < 1 || p.k > 10000 {
			return p, fmt.Errorf("k must be an integer in [1,10000], got %q", v)
		}
	}
	if v, ok := get("src"); ok && v != "auto" { // auto: the canonical spelling of the default
		if p.src, err = strconv.ParseInt(v, 10, 64); err != nil {
			return p, fmt.Errorf("src must be an integer vertex ID, got %q", v)
		}
		p.srcAuto = false
	}
	if v, ok := get("srcs"); ok {
		for _, part := range strings.Split(v, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return p, fmt.Errorf("srcs must be comma-separated integer vertex IDs, got %q", v)
			}
			p.srcs = append(p.srcs, id)
		}
		// Canonicalize: sorted, deduplicated — BFS from a multiset of
		// sources equals BFS from the set.
		sort.Slice(p.srcs, func(i, j int) bool { return p.srcs[i] < p.srcs[j] })
		p.srcs = slices.Compact(p.srcs)
	}
	if v, ok := get("sources"); ok {
		if p.sources, err = strconv.Atoi(v); err != nil || p.sources < 1 || p.sources > 10000 {
			return p, fmt.Errorf("sources must be an integer in [1,10000], got %q", v)
		}
	}
	if v, ok := get("samples"); ok {
		if p.samples, err = strconv.Atoi(v); err != nil || p.samples < 1 || p.samples > 10000 {
			return p, fmt.Errorf("samples must be an integer in [1,10000], got %q", v)
		}
	}
	switch analysis {
	case "degree":
		p.Canonical = fmt.Sprintf("k=%d", p.k)
	case "pagerank":
		p.Canonical = fmt.Sprintf("damping=%g&iters=%d&k=%d", p.damping, p.iters, p.k)
	case "components", "triangles":
		p.Canonical = ""
	case "bfs":
		if p.srcAuto {
			p.Canonical = "src=auto"
		} else {
			p.Canonical = fmt.Sprintf("src=%d", p.src)
		}
	case "sssp":
		if len(p.srcs) > 0 {
			parts := make([]string, len(p.srcs))
			for i, id := range p.srcs {
				parts[i] = strconv.FormatInt(id, 10)
			}
			p.Canonical = "srcs=" + strings.Join(parts, ",")
		} else {
			p.Canonical = fmt.Sprintf("sources=%d", p.sources)
		}
	case "closeness":
		p.Canonical = fmt.Sprintf("k=%d&samples=%d", p.k, p.samples)
	default:
		return p, ErrUnknownAnalysis
	}
	return p, nil
}

// Analyze runs the named analysis on a frozen view with parameters from
// ParseParams. The result marshals to the JSON the serving layer returns.
func Analyze(f *core.Frozen, name string, p Params) (any, error) {
	switch name {
	case "degree":
		deg := algo.Degrees(f)
		type entry struct {
			ID     int64 `json:"id"`
			Degree int   `json:"degree"`
		}
		top := make([]entry, len(deg))
		var sum int64
		for r, d := range deg {
			top[r] = entry{ID: f.RealID(int32(r)), Degree: d}
			sum += int64(d)
		}
		top = topK(top, p.k, func(a, b entry) int {
			return cmp.Or(cmp.Compare(b.Degree, a.Degree), cmp.Compare(a.ID, b.ID))
		})
		maxDeg, avg := 0, 0.0
		if len(top) > 0 {
			maxDeg = top[0].Degree
			avg = float64(sum) / float64(len(deg))
		}
		return map[string]any{"vertices": len(deg), "max_degree": maxDeg, "avg_degree": avg, "top": top}, nil
	case "pagerank":
		pr := algo.PageRank(f, p.iters, p.damping)
		type entry struct {
			ID   int64   `json:"id"`
			Rank float64 `json:"rank"`
			Name string  `json:"name,omitempty"`
		}
		top := make([]entry, len(pr))
		for r, rank := range pr {
			top[r] = entry{ID: f.RealID(int32(r)), Rank: rank}
		}
		top = topK(top, p.k, func(a, b entry) int {
			return cmp.Or(cmp.Compare(b.Rank, a.Rank), cmp.Compare(a.ID, b.ID))
		})
		for i := range top {
			if name, ok := f.PropertyOf(top[i].ID, "Name"); ok {
				top[i].Name = name
			}
		}
		return map[string]any{"iters": p.iters, "damping": p.damping, "top": top}, nil
	case "components":
		labels, n := algo.ConnectedComponents(f)
		sizes := make([]int, n)
		largest := 0
		for _, c := range labels {
			sizes[c]++
			largest = max(largest, sizes[c])
		}
		return map[string]any{"components": n, "largest_size": largest, "vertices": len(labels)}, nil
	case "bfs":
		src := p.src
		if p.srcAuto {
			// The first vertex the graph iterates, as the library's
			// Vertices order would yield it.
			first, ok := f.First()
			if !ok {
				return map[string]any{"src": nil, "visited": 0, "max_depth": 0}, nil
			}
			src = first
		}
		res := algo.BFS(f, src)
		return map[string]any{"src": src, "visited": res.Visited, "max_depth": res.MaxDepth}, nil
	case "triangles":
		return map[string]any{"triangles": algo.CountTriangles(f)}, nil
	case "sssp":
		// Multi-source shortest paths (SIGMOD 2014 contest family): hop
		// distance to the nearest source. Explicit ?srcs=1,2,3 or a
		// deterministic evenly-spaced ?sources=k sample.
		snap := View(f)
		srcs := p.srcs
		if len(srcs) == 0 {
			srcs = snap.SampleSources(p.sources)
		}
		res := snap.MultiSourceBFS(srcs)
		avg := 0.0
		if res.Reached > 0 {
			avg = float64(res.SumDist) / float64(res.Reached)
		}
		sources := res.Sources
		if sources == nil {
			sources = []int64{}
		}
		return map[string]any{
			"sources":   sources,
			"reached":   res.Reached,
			"unreached": res.Unreached,
			"max_depth": res.MaxDepth,
			"sum_dist":  res.SumDist,
			"avg_dist":  avg,
		}, nil
	case "closeness":
		// Sampled exact closeness centrality: bit-parallel BFS over the
		// pivots, contest scoring (reachability-corrected), top-k by score.
		snap := View(f)
		pivots := snap.SampleSources(p.samples)
		scores := TopCloseness(snap.Closeness(pivots, 0), p.k)
		type entry struct {
			ID        int64   `json:"id"`
			Closeness float64 `json:"closeness"`
			Reached   int     `json:"reached"`
			SumDist   int64   `json:"sum_dist"`
			Name      string  `json:"name,omitempty"`
		}
		top := make([]entry, len(scores))
		for i, s := range scores {
			top[i] = entry{ID: s.ID, Closeness: s.Closeness, Reached: s.Reached, SumDist: s.SumDist}
			if name, ok := f.PropertyOf(s.ID, "Name"); ok {
				top[i].Name = name
			}
		}
		return map[string]any{"samples": len(pivots), "vertices": snap.NumVertices(), "top": top}, nil
	default:
		return nil, ErrUnknownAnalysis
	}
}

// topK returns the first k elements of s in order under cmp, a total
// order, sorted — what sorting s and truncating it returns, in
// O(n log k). s is reordered.
func topK[E any](s []E, k int, cmp func(a, b E) int) []E {
	if k >= len(s) {
		slices.SortFunc(s, cmp)
		return s
	}
	// s[:k] is a heap with the last-ranked kept element at its root.
	h := s[:max(k, 0)]
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, cmp)
	}
	for _, e := range s[len(h):] {
		if len(h) > 0 && cmp(e, h[0]) < 0 {
			h[0] = e
			siftDown(h, 0, cmp)
		}
	}
	slices.SortFunc(h, cmp)
	return h
}

// siftDown restores the heap order of h below index i.
func siftDown[E any](h []E, i int, cmp func(a, b E) int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && cmp(h[j+1], h[j]) > 0 {
			j++
		}
		if cmp(h[j], h[i]) <= 0 {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
