package graphgen

import (
	"io"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/dedup"
	"graphgen/internal/extract"
	"graphgen/internal/graphapi"
	"graphgen/internal/serialize"
	"graphgen/internal/vertexcentric"
)

// Graph is an extracted in-memory graph in one of the five representations.
// It implements the paper's seven-operation Graph API plus analysis entry
// points; every operation is representation-independent.
type Graph struct {
	c     *core.Graph
	stats extract.Stats
	// evalStats is set when the graph came from ExtractProgram
	// (ProgramStats exposes it); nil for plain Extract graphs.
	evalStats *EvalStats
	// profile is the execution trace recorded under WithProfile
	// (Profile exposes it); nil when tracing was off.
	profile *Profile
}

// assert the public graph satisfies the representation-independent API.
var _ graphapi.PropertyGraph = (*Graph)(nil)

// WrapCore exposes a core condensed graph through the public API. It is
// used by the benchmark harness and tools; applications normally obtain
// graphs from Engine.Extract.
func WrapCore(c *core.Graph) *Graph { return &Graph{c: c} }

// Core returns the underlying condensed graph for low-level (dense index)
// access.
func (g *Graph) Core() *core.Graph { return g.c }

// Representation returns the graph's current in-memory representation.
func (g *Graph) Representation() Representation { return g.c.Mode() }

// ExtractionStats returns the statistics recorded during extraction.
func (g *Graph) ExtractionStats() ExtractStats { return g.stats }

// --- the seven-operation Graph API (Section 3.4) ---

// Vertices returns an iterator over all vertices.
func (g *Graph) Vertices() Iterator { return g.c.Vertices() }

// Neighbors returns an iterator over v's logical out-neighbors, each
// yielded exactly once regardless of representation.
func (g *Graph) Neighbors(v NodeID) Iterator { return g.c.Neighbors(v) }

// ExistsEdge reports whether the logical edge u -> v exists.
func (g *Graph) ExistsEdge(u, v NodeID) bool { return g.c.ExistsEdge(u, v) }

// AddVertex adds an isolated vertex.
func (g *Graph) AddVertex(v NodeID) error { return g.c.AddVertex(v) }

// DeleteVertex lazily removes a vertex (Section 3.4); Compact reclaims it.
func (g *Graph) DeleteVertex(v NodeID) error { return g.c.DeleteVertex(v) }

// AddEdge adds the logical edge u -> v.
func (g *Graph) AddEdge(u, v NodeID) error { return g.c.AddEdge(u, v) }

// DeleteEdge removes the logical edge u -> v, preserving all others.
func (g *Graph) DeleteEdge(u, v NodeID) error { return g.c.DeleteEdge(u, v) }

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return g.c.NumVertices() }

// PropertyOf returns a vertex property set by the Nodes statement.
func (g *Graph) PropertyOf(v NodeID, key string) (string, bool) { return g.c.PropertyOf(v, key) }

// SetPropertyOf sets a vertex property.
func (g *Graph) SetPropertyOf(v NodeID, key, value string) error {
	return g.c.SetPropertyOf(v, key, value)
}

// Compact physically removes lazily deleted vertices, and the virtual
// nodes their removal left without sources or targets.
func (g *Graph) Compact() { g.c.Compact() }

// --- size metrics ---

// NumVirtualNodes returns the number of virtual nodes in the condensed
// representation (0 for EXP).
func (g *Graph) NumVirtualNodes() int { return g.c.NumVirtualNodes() }

// RepEdges returns the physical edge count of the representation.
func (g *Graph) RepEdges() int64 { return g.c.RepEdges() }

// LogicalEdges returns the expanded (logical) edge count.
func (g *Graph) LogicalEdges() int64 { return g.c.LogicalEdges() }

// MemBytes estimates the heap footprint of the representation.
func (g *Graph) MemBytes() int64 { return g.c.MemBytes() }

// --- representation conversion (Section 5) ---

// As converts the graph to the target representation using the paper's
// default algorithm for that representation: BITMAP-2 for BITMAP, Greedy
// Virtual Nodes First for DEDUP-1, the Appendix-B greedy for DEDUP-2, and
// full expansion for EXP; C-DUP is a copy, which for a BITMAP graph is its
// structure without the masks. The receiver is never modified.
//
// DedupOptions sets the processing order and seed of the DEDUP-1 and
// DEDUP-2 heuristics; BITMAP, EXP and C-DUP ignore it. Every conversion is
// a serial loop, so one input and one DedupOptions give one output.
func (g *Graph) As(rep Representation, opts ...DedupOptions) (*Graph, error) {
	var o DedupOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	switch rep {
	case CDUP:
		c := g.c.Clone()
		if c.Mode() == core.BITMAP {
			// BITMAP-2 drops only first-layer edges whose targets other
			// paths reach, so the structure without its masks is C-DUP.
			c.SetMode(core.CDUP)
		}
		return g.derive(c), nil
	case EXP:
		exp, err := g.c.Expand(0)
		if err != nil {
			return nil, err
		}
		return g.derive(exp), nil
	case BITMAP:
		out, _, err := dedup.Bitmap2(g.c)
		if err != nil {
			return nil, err
		}
		return g.derive(out), nil
	case DEDUP1:
		out, _, err := dedup.Dedup1GreedyVirtualFirst(g.c, o)
		if err != nil {
			return nil, err
		}
		return g.derive(out), nil
	case DEDUP2:
		out, _, err := dedup.Dedup2Greedy(g.c, o)
		if err != nil {
			return nil, err
		}
		return g.derive(out), nil
	default:
		return nil, ErrUnsupported
	}
}

// derive wraps a converted core graph, keeping g's extraction statistics,
// evaluation statistics and profile.
func (g *Graph) derive(c *core.Graph) *Graph {
	return &Graph{c: c, stats: g.stats, evalStats: g.evalStats, profile: g.profile}
}

// AsDedup1 converts to DEDUP-1 with an explicit algorithm choice.
func (g *Graph) AsDedup1(alg Dedup1Algorithm, o DedupOptions) (*Graph, error) {
	var fn func(*core.Graph, dedup.Options) (*core.Graph, dedup.Stats, error)
	switch alg {
	case GreedyVirtualFirst:
		fn = dedup.Dedup1GreedyVirtualFirst
	case NaiveVirtualFirst:
		fn = dedup.Dedup1NaiveVirtualFirst
	case NaiveRealFirst:
		fn = dedup.Dedup1NaiveRealFirst
	case GreedyRealFirst:
		fn = dedup.Dedup1GreedyRealFirst
	default:
		return nil, ErrUnsupported
	}
	out, _, err := fn(g.c, o)
	if err != nil {
		return nil, err
	}
	return g.derive(out), nil
}

// --- analysis (Section 6 algorithms) ---

// byID keys a per-slot result by vertex ID: val(r) for every real slot r.
func byID[V any](c *core.Graph, val func(r int32) V) map[NodeID]V {
	out := make(map[NodeID]V, c.NumRealNodes())
	c.ForEachReal(func(r int32) bool {
		out[c.RealID(r)] = val(r)
		return true
	})
	return out
}

// Degrees returns the out-degree of every vertex keyed by ID.
func (g *Graph) Degrees() map[NodeID]int {
	deg := algo.Degrees(g.c)
	return byID(g.c, func(r int32) int { return deg[r] })
}

// BFS runs a breadth-first search from src and returns the number of
// reached vertices and the maximum depth.
func (g *Graph) BFS(src NodeID) (visited, maxDepth int) {
	res := algo.BFS(g.c, src)
	return res.Visited, res.MaxDepth
}

// PageRank runs iters damped PageRank iterations and returns ranks by ID.
func (g *Graph) PageRank(iters int, damping float64) map[NodeID]float64 {
	pr := algo.PageRank(g.c, iters, damping)
	return byID(g.c, func(r int32) float64 { return pr[r] })
}

// ConnectedComponents returns component labels by ID and the component
// count.
func (g *Graph) ConnectedComponents() (map[NodeID]int, int) {
	labels, n := algo.ConnectedComponents(g.c)
	return byID(g.c, func(r int32) int { return int(labels[r]) }), n
}

// CountTriangles counts undirected triangles.
func (g *Graph) CountTriangles() int64 { return algo.CountTriangles(g.c) }

// Communities runs label-propagation community detection (a workload the
// paper highlights as requiring arbitrary graph access) and returns labels
// by vertex ID and the community count.
func (g *Graph) Communities(maxIters int, seed int64) (map[NodeID]int, int) {
	labels, n := algo.LabelPropagation(g.c, maxIters, seed)
	return byID(g.c, func(r int32) int { return int(labels[r]) }), n
}

// KCore returns the core number of every vertex (dense-subgraph analysis).
func (g *Graph) KCore() map[NodeID]int {
	cores := algo.KCore(g.c)
	return byID(g.c, func(r int32) int { return cores[r] })
}

// ClusteringCoefficient returns the global clustering coefficient.
func (g *Graph) ClusteringCoefficient() float64 { return algo.ClusteringCoefficient(g.c) }

// DegreeHistogram returns the out-degree distribution.
func (g *Graph) DegreeHistogram() map[int]int { return algo.DegreeHistogram(g.c) }

// --- vertex-centric execution (Section 3.4) ---

// VertexContext is the per-vertex view handed to vertex-centric programs.
type VertexContext = vertexcentric.Context

// VertexExecutor is a user compute kernel.
type VertexExecutor = vertexcentric.Executor

// ComputeFunc adapts a function to VertexExecutor.
type ComputeFunc = vertexcentric.ExecutorFunc

// RunVertexCentric executes a vertex-centric program on the graph with the
// given worker parallelism and returns final values keyed by vertex ID.
func (g *Graph) RunVertexCentric(exec VertexExecutor, workers int) (map[NodeID]float64, int) {
	res := vertexcentric.Run(g.c, exec, vertexcentric.Options{Workers: workers})
	return byID(g.c, func(r int32) float64 { return res.Values[r] }), res.Supersteps
}

// --- serialization (Section 3.4's graphgenpy-style interop) ---

// WriteEdgeList writes the expanded edge list ("src dst" lines).
func (g *Graph) WriteEdgeList(w io.Writer) error { return serialize.WriteEdgeList(w, g.c) }

// WriteJSON writes the graph (nodes, properties, expanded edges) as JSON.
func (g *Graph) WriteJSON(w io.Writer) error { return serialize.WriteJSON(w, g.c) }

// WriteCondensed serializes the condensed structure itself (virtual nodes
// included), so a deduplicated graph can be stored and reloaded without
// repeating the deduplication work (Section 6.5). BITMAP masks are not
// portable and reload as C-DUP.
func (g *Graph) WriteCondensed(w io.Writer) error { return serialize.WriteCondensed(w, g.c) }

// LoadCondensed reads a graph written by WriteCondensed.
func LoadCondensed(r io.Reader) (*Graph, error) {
	c, err := serialize.ReadCondensed(r)
	if err != nil {
		return nil, err
	}
	return &Graph{c: c}, nil
}

// LoadEdgeList reads an expanded "src dst" edge list as an EXP graph.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	c, err := serialize.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{c: c}, nil
}
