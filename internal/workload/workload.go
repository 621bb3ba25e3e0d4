// Package workload implements the SIGMOD 2014 contest query family over
// extracted graphs: multi-source shortest paths, closeness centrality, and
// interest-community extraction (community.go, expressed as a Datalog
// program through Engine.ExtractProgram). These are the scenario-scale
// queries the Elekes/Antal/Szárnyas contest analysis identifies as the
// workload where naive graph implementations fall over. The first two
// are in the catalogue of served analyses (analyses.go: ParseParams and
// Analyze), which internal/server exposes as /analyze/{name} and the
// graphgen CLI as -analyze; cmd/graphload drives sssp and closeness
// (mixed with reads and mutations) against a running graphgend daemon.
//
// The fast implementations run on a frozen CSR view of the graph
// (core.Frozen, built by Snap or shared by the caller through View): dense
// indexes in ascending external-ID order. Multi-source shortest paths is
// one BFS through the same kernel as internal/algo; closeness runs its
// sources in batches of 64, one bit-parallel BFS over the view's flat
// out-rows per batch. naive.go keeps deliberately slow reference
// implementations that iterate the graphapi interface directly, used only
// by the randomized equivalence tests.
package workload

import (
	"math/bits"
	"sort"
	"sync"

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

// Closeness computes the exact closeness centrality of each given vertex.
// The sources run in batches of 64: one bit-parallel BFS (msbfs) answers a
// whole batch, and the batches are fanned across the worker pool. Results
// are in input order and independent of the worker count. Vertex IDs not
// in the graph are dropped; a repeated ID is scored once per occurrence.
// Use SampleSources to pick a deterministic pivot set when computing all n
// vertices is too expensive.
func (s *Snapshot) Closeness(sources []int64, workers int) []CentralityScore {
	seeds, _ := s.seeds(sources)
	n := s.f.NumRealNodes()
	out := make([]CentralityScore, len(seeds))
	batches := (len(seeds) + batchSize - 1) / batchSize
	// The pool pays once there are several batches: 1 024 SNB SF 1 sources
	// take 30.4 ms at 2 workers, 57.8 ms at 1, on a 2-vCPU Xeon.
	parallel.RunMin(batches, workers, 1, func(_, lo, hi int) {
		bfs := getMSBFS(n)
		var reached [batchSize]int
		var sumDist [batchSize]int64
		for b := lo; b < hi; b++ {
			batch := seeds[b*batchSize : min((b+1)*batchSize, len(seeds))]
			bfs.run(s.f, batch, &reached, &sumDist)
			for i, seed := range batch {
				out[b*batchSize+i] = CentralityScore{
					ID:        s.f.RealID(seed),
					Closeness: closeness(reached[i], sumDist[i], n),
					Reached:   reached[i],
					SumDist:   sumDist[i],
				}
			}
		}
		msbfsPool.Put(bfs) // not deferred: a run cut short leaves it dirty
	})
	return out
}

// batchSize is the number of BFSs one msbfs traversal runs: one bit of a
// uint64 mask per source.
const batchSize = 64

// wideLevel is the frontier density at which an msbfs level switches from
// the touched-vertex list to a sweep over all vertices: a level is wide
// when len(frontier)*wideLevel >= n.
const wideLevel = 32

// msbfs is the bit-parallel multi-source BFS of Then et al. ("The More the
// Merrier", VLDB 2015): up to 64 BFSs share one traversal, one bit per
// source in each vertex's masks. seen[v] holds the sources that reached v,
// visit[v] those that reached it at the current level, next[v] the ones
// reaching it at the next. A run starts by clearing seen; visit and next
// are zero over their whole capacity before a run, and a run leaves them
// so.
type msbfs struct {
	seen, visit, next []uint64
	frontier, touched []int32
}

// msbfsPool recycles msbfs scratch across Closeness calls. Fresh scratch
// is three n-word arrays; on a 100 000-vertex path with one source,
// allocating them cost as much as the traversal itself.
var msbfsPool sync.Pool

// getMSBFS returns scratch for n vertices: pooled when a large enough one
// is free, allocated otherwise.
func getMSBFS(n int) *msbfs {
	if m, ok := msbfsPool.Get().(*msbfs); ok && cap(m.seen) >= n {
		m.seen, m.visit, m.next = m.seen[:n], m.visit[:n], m.next[:n]
		return m
	}
	return &msbfs{seen: make([]uint64, n), visit: make([]uint64, n), next: make([]uint64, n)}
}

// run traverses f's out-rows from seeds (dense indexes, at most batchSize,
// repeats allowed) and sets reached[i] and sumDist[i] to the number of
// vertices seed i reaches (itself included) and the sum of their
// distances.
//
// Each level picks its strategy from the frontier size. A wide level ORs
// every frontier row into next with no per-edge seen test, then sweeps all
// n vertices once to keep the new bits. A narrow level tests seen per edge
// and keeps a list of the vertices it touched, so a long thin graph (a
// path) costs O(n) in total instead of a sweep per level.
func (m *msbfs) run(f *core.Frozen, seeds []int32, reached *[batchSize]int, sumDist *[batchSize]int64) {
	seen, visit, next := m.seen, m.visit, m.next
	n := len(seen)
	clear(seen)
	frontier, touched := m.frontier[:0], m.touched[:0]
	for i, s := range seeds {
		bit := uint64(1) << i
		if visit[s] == 0 {
			frontier = append(frontier, s)
		}
		seen[s] |= bit
		visit[s] |= bit
		reached[i], sumDist[i] = 1, 0
	}
	for depth := int64(1); len(frontier) > 0; depth++ {
		touched = touched[:0]
		if len(frontier)*wideLevel >= n {
			for _, u := range frontier {
				x := visit[u]
				visit[u] = 0
				for _, w := range f.OutRow(u) {
					next[w] |= x
				}
			}
			for w, x := range next {
				if x == 0 {
					continue
				}
				if x &^= seen[w]; x != 0 {
					seen[w] |= x
					touched = append(touched, int32(w))
					count(x, depth, reached, sumDist)
				}
				next[w] = x
			}
		} else {
			for _, u := range frontier {
				x := visit[u]
				visit[u] = 0
				for _, w := range f.OutRow(u) {
					if y := x &^ seen[w]; y != 0 {
						seen[w] |= y
						if next[w] == 0 {
							touched = append(touched, w)
						}
						next[w] |= y
						count(y, depth, reached, sumDist)
					}
				}
			}
		}
		// visit is all zero again: the new level's masks become visit,
		// and the old visit array is the next level's zeroed next.
		visit, next = next, visit
		frontier, touched = touched, frontier
	}
	m.visit, m.next = visit, next
	m.frontier, m.touched = frontier, touched
}

// count credits one vertex at the given depth to every source in mask x.
func count(x uint64, depth int64, reached *[batchSize]int, sumDist *[batchSize]int64) {
	for ; x != 0; x &= x - 1 {
		i := bits.TrailingZeros64(x)
		reached[i]++
		sumDist[i] += depth
	}
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
