// Package workload implements the SIGMOD 2014 contest query family over
// extracted graphs: multi-source shortest paths, closeness centrality, and
// interest-community extraction (community.go, expressed as a Datalog
// program through Engine.ExtractProgram). These are the scenario-scale
// queries the Elekes/Antal/Szárnyas contest analysis identifies as the
// workload where naive graph implementations fall over. internal/server
// exposes the first two as /analyze/sssp and /analyze/closeness, which
// cmd/graphload drives (mixed with reads and mutations) against a
// running graphgend daemon.
//
// The fast implementations run on a frozen CSR view of the graph
// (core.Frozen, built by Snap or shared by the caller through View): dense
// indexes in ascending external-ID order, one array-indexed BFS per query
// through the same BFS kernel as internal/algo. naive.go keeps deliberately
// slow reference implementations that iterate the graphapi interface
// directly, used only by the randomized equivalence tests.
package workload

import (
	"sort"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/parallel"
)

// Snapshot runs the contest queries on a frozen CSR view of a graph. It is
// immutable and safe for concurrent use.
type Snapshot struct {
	f *core.Frozen
}

// Snap freezes g's condensed core graph (*graphgen.Graph satisfies the
// parameter) into a CSR view. g must not be mutated while Snap runs.
func Snap(g interface{ Core() *core.Graph }) *Snapshot { return View(g.Core().Freeze()) }

// View wraps an existing frozen view without copying it.
func View(f *core.Frozen) *Snapshot { return &Snapshot{f: f} }

// NumVertices returns the snapshot's vertex count.
func (s *Snapshot) NumVertices() int { return s.f.NumRealNodes() }

// NumEdges returns the snapshot's directed edge count.
func (s *Snapshot) NumEdges() int64 { return s.f.NumEdges() }

// IDs returns the vertex IDs in ascending order. Callers must not mutate
// the returned slice.
func (s *Snapshot) IDs() []int64 { return s.f.IDs() }

// SampleSources picks k deterministic, evenly spaced vertex IDs (in
// ascending-ID order) — the pivot set for sampled closeness and
// auto-sourced SSSP. k <= 0 or k >= n returns all vertices.
func (s *Snapshot) SampleSources(k int) []int64 {
	ids := s.f.IDs()
	n := len(ids)
	if n == 0 {
		return nil
	}
	if k <= 0 || k >= n {
		out := make([]int64, n)
		copy(out, ids)
		return out
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = ids[i*n/k]
	}
	return out
}

// seeds resolves external IDs to dense indexes, dropping unknown IDs; it
// also returns the IDs it kept.
func (s *Snapshot) seeds(ids []int64) ([]int32, []int64) {
	seeds := make([]int32, 0, len(ids))
	var kept []int64
	for _, id := range ids {
		if d, ok := s.f.RealIndex(id); ok {
			seeds = append(seeds, d)
			kept = append(kept, id)
		}
	}
	return seeds, kept
}

// SSSPResult reports a multi-source shortest-path query: per-vertex
// distance to the nearest source (hop count) plus summary statistics.
type SSSPResult struct {
	// Sources echoes the source IDs actually used (unknown IDs dropped).
	Sources []int64
	// Dist is the hop distance from the nearest source per vertex, aligned
	// with the snapshot's IDs(); -1 marks an unreached vertex.
	Dist []int32
	// Reached counts vertices with a finite distance (sources included).
	Reached int
	// Unreached counts vertices no source can reach.
	Unreached int
	// MaxDepth is the largest finite distance.
	MaxDepth int
	// SumDist is the sum of all finite distances.
	SumDist int64
}

// MultiSourceBFS computes hop distances from the nearest of the given
// sources — the contest's multi-source shortest-path query (unweighted
// edges). Source IDs not present in the graph are ignored.
func (s *Snapshot) MultiSourceBFS(sources []int64) SSSPResult {
	seeds, kept := s.seeds(sources)
	res := SSSPResult{Sources: kept, Dist: make([]int32, s.f.NumRealNodes())}
	reached, maxDepth, sumDist := algo.BFSFrom(s.f, seeds, res.Dist)
	res.Reached, res.MaxDepth, res.SumDist = reached, int(maxDepth), sumDist
	res.Unreached = len(res.Dist) - reached
	return res
}

// CentralityScore is one vertex's closeness centrality, with the raw BFS
// aggregates the score derives from.
type CentralityScore struct {
	ID int64
	// Closeness is the contest definition c(v) = (r-1)^2 / ((n-1) * s)
	// with r the number of vertices reachable from v (v included), s the
	// sum of their distances, and n the graph's vertex count; 0 when v
	// reaches nothing. This composes classic closeness (r-1)/s with the
	// reachability correction (r-1)/(n-1), so small isolated cliques do
	// not outrank hubs of the giant component.
	Closeness float64
	// Reached is r: vertices reachable from this vertex, itself included.
	Reached int
	// SumDist is s: the sum of finite distances.
	SumDist int64
}

// Closeness computes the exact closeness centrality of each given vertex
// (one BFS per vertex, fanned across the worker pool; results are in
// input order and independent of the worker count). Vertex IDs not in the
// graph are dropped. Use SampleSources to pick a deterministic pivot set
// when computing all n vertices is too expensive.
func (s *Snapshot) Closeness(sources []int64, workers int) []CentralityScore {
	seeds, _ := s.seeds(sources)
	n := s.f.NumRealNodes()
	out := make([]CentralityScore, len(seeds))
	parallel.RunMin(len(seeds), workers, 1, func(_, lo, hi int) {
		dist := make([]int32, n)
		for i := lo; i < hi; i++ {
			reached, _, sumDist := algo.BFSFrom(s.f, seeds[i:i+1], dist)
			out[i] = CentralityScore{
				ID:        s.f.RealID(seeds[i]),
				Closeness: closeness(reached, sumDist, n),
				Reached:   reached,
				SumDist:   sumDist,
			}
		}
	})
	return out
}

// closeness applies the contest formula to one vertex's BFS aggregates.
func closeness(reached int, sumDist int64, n int) float64 {
	if sumDist <= 0 || n < 2 {
		return 0
	}
	r := float64(reached - 1)
	return r * r / (float64(n-1) * float64(sumDist))
}

// TopCloseness sorts scores by descending closeness (ties broken by
// ascending ID) and returns the top k. The input is not modified.
func TopCloseness(scores []CentralityScore, k int) []CentralityScore {
	sorted := append([]CentralityScore(nil), scores...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Closeness != sorted[j].Closeness {
			return sorted[i].Closeness > sorted[j].Closeness
		}
		return sorted[i].ID < sorted[j].ID
	})
	if k > 0 && len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}
