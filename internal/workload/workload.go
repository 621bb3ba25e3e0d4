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
// The fast implementations freeze the representation-independent
// graphapi.Graph into a CSR snapshot once (Snap) and then run
// array-indexed BFS per query; naive.go keeps deliberately slow reference
// implementations that iterate the graphapi interface directly, used only
// by the randomized equivalence tests.
package workload

import (
	"sort"

	"graphgen/internal/graphapi"
	"graphgen/internal/parallel"
)

// Snapshot is a frozen CSR view of a graph: dense indexes 0..n-1 in
// ascending external-ID order, with out-neighbor adjacency. Building it
// costs one pass over the graph; every query on it is array-indexed.
// The snapshot is immutable and safe for concurrent use.
type Snapshot struct {
	ids  []int64         // dense -> external, ascending
	idx  map[int64]int32 // external -> dense
	offs []int64         // CSR row offsets, len n+1
	adj  []int32         // CSR column indexes
}

// Snap freezes g into a CSR snapshot. Neighbors pointing outside the
// vertex set (impossible for extracted graphs) are dropped.
func Snap(g graphapi.Graph) *Snapshot {
	ids := graphapi.ToList(g.Vertices())
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := &Snapshot{ids: ids, idx: make(map[int64]int32, len(ids))}
	for i, id := range ids {
		s.idx[id] = int32(i)
	}
	s.offs = make([]int64, len(ids)+1)
	for i, id := range ids {
		s.offs[i+1] = s.offs[i]
		it := g.Neighbors(id)
		for {
			t, ok := it.Next()
			if !ok {
				break
			}
			if d, ok := s.idx[t]; ok {
				s.adj = append(s.adj, d)
				s.offs[i+1]++
			}
		}
	}
	return s
}

// NumVertices returns the snapshot's vertex count.
func (s *Snapshot) NumVertices() int { return len(s.ids) }

// NumEdges returns the snapshot's directed edge count.
func (s *Snapshot) NumEdges() int64 { return int64(len(s.adj)) }

// IDs returns the vertex IDs in ascending order. Callers must not mutate
// the returned slice.
func (s *Snapshot) IDs() []int64 { return s.ids }

// SampleSources picks k deterministic, evenly spaced vertex IDs (in
// ascending-ID order) — the pivot set for sampled closeness and
// auto-sourced SSSP. k <= 0 or k >= n returns all vertices.
func (s *Snapshot) SampleSources(k int) []int64 {
	n := len(s.ids)
	if n == 0 {
		return nil
	}
	if k <= 0 || k >= n {
		out := make([]int64, n)
		copy(out, s.ids)
		return out
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = s.ids[i*n/k]
	}
	return out
}

// bfsFrom runs one array-indexed BFS over the CSR from the given dense
// seeds (dist must be len n, filled with -1). It reports the number of
// reached vertices, the max depth, and the sum of distances.
func (s *Snapshot) bfsFrom(seeds []int32, dist []int32) (reached int, maxDepth int32, sumDist int64) {
	frontier := make([]int32, 0, len(seeds))
	for _, v := range seeds {
		if dist[v] < 0 {
			dist[v] = 0
			frontier = append(frontier, v)
			reached++
		}
	}
	var next []int32
	for depth := int32(1); len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, t := range s.adj[s.offs[u]:s.offs[u+1]] {
				if dist[t] < 0 {
					dist[t] = depth
					sumDist += int64(depth)
					next = append(next, t)
				}
			}
		}
		if len(next) > 0 {
			maxDepth = depth
		}
		reached += len(next)
		frontier, next = next, frontier
	}
	return reached, maxDepth, sumDist
}

// SSSPResult reports a multi-source shortest-path query: per-vertex
// distance to the nearest source (hop count; unreached vertices are
// absent from Dist) plus summary statistics.
type SSSPResult struct {
	// Sources echoes the source IDs actually used (unknown IDs dropped).
	Sources []int64
	// Dist maps vertex ID to hop distance from the nearest source.
	Dist map[int64]int32
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
	res := SSSPResult{Dist: make(map[int64]int32)}
	seeds := make([]int32, 0, len(sources))
	for _, id := range sources {
		if d, ok := s.idx[id]; ok {
			seeds = append(seeds, d)
			res.Sources = append(res.Sources, id)
		}
	}
	dist := make([]int32, len(s.ids))
	for i := range dist {
		dist[i] = -1
	}
	reached, maxDepth, sumDist := s.bfsFrom(seeds, dist)
	res.Reached, res.MaxDepth, res.SumDist = reached, int(maxDepth), sumDist
	res.Unreached = len(s.ids) - reached
	for i, d := range dist {
		if d >= 0 {
			res.Dist[s.ids[i]] = d
		}
	}
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
	seeds := make([]int32, 0, len(sources))
	for _, id := range sources {
		if d, ok := s.idx[id]; ok {
			seeds = append(seeds, d)
		}
	}
	n := len(s.ids)
	out := make([]CentralityScore, len(seeds))
	parallel.RunMin(len(seeds), workers, 1, func(_, lo, hi int) {
		dist := make([]int32, n)
		for i := lo; i < hi; i++ {
			for j := range dist {
				dist[j] = -1
			}
			reached, _, sumDist := s.bfsFrom(seeds[i:i+1], dist)
			out[i] = CentralityScore{
				ID:        s.ids[seeds[i]],
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
