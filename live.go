package graphgen

import (
	"errors"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/graphapi"
	"graphgen/internal/incremental"
)

// ErrLiveMutation is returned by the direct graph-mutation methods of
// LiveGraph: a live graph tracks its source tables, so edges and vertices
// are changed by mutating the relational data (Table.Insert, Table.Delete),
// not the graph.
var ErrLiveMutation = errors.New("graphgen: LiveGraph is maintained from its source tables; mutate the relational data instead")

// LiveGraph is an extracted condensed graph kept consistent with its source
// database under single-tuple updates (Table.Insert / Table.Delete /
// Table.DeleteWhere on the tables the extraction query reads). Updates are
// tracked through the relstore change log, turned into per-segment support
// deltas, and applied in batch on the next read, so after any update
// sequence the live graph's logical edge set equals a fresh Extract over
// the mutated database.
//
// Any number of goroutines may read concurrently; table mutations must come
// from one goroutine at a time but may overlap with reads.
type LiveGraph struct {
	live *incremental.Live
	// profile is the initial build's execution trace under WithProfile
	// (BuildProfile exposes it); maintenance is never traced.
	profile *Profile
}

// LiveGraph implements the read half of the paper's Graph API; the mutating
// operations return ErrLiveMutation.
var _ graphapi.Graph = (*LiveGraph)(nil)

// ExtractLive parses and executes an extraction program like Extract, then
// subscribes to the change logs of every table the program reads and keeps
// the result graph live. Close the returned graph to stop maintenance.
//
// Limits: changes to tables referenced by Nodes rules trigger a full
// re-extraction, executed immediately on the mutating goroutine (node-set
// maintenance is not incremental); the live graph always stays in the
// condensed C-DUP representation — take a Snapshot to convert or analyze;
// and WithMaxEdges is enforced at build and rebuild time only.
func (e *Engine) ExtractLive(dsl string, opts ...Option) (*LiveGraph, error) {
	prog, err := datalog.Parse(dsl)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg.with(opts)
	live, err := incremental.New(e.db, prog, cfg.extract)
	if err != nil {
		return nil, err
	}
	return &LiveGraph{live: live, profile: cfg.extract.Trace.Finish()}, nil
}

// Vertices returns an iterator over all vertices.
func (g *LiveGraph) Vertices() Iterator {
	return graphapi.NewSliceIterator(g.live.Vertices())
}

// Neighbors returns an iterator over v's logical out-neighbors after
// applying pending deltas.
func (g *LiveGraph) Neighbors(v NodeID) Iterator {
	return graphapi.NewSliceIterator(g.live.Neighbors(v))
}

// ExistsEdge reports whether the logical edge u -> v exists after applying
// pending deltas.
func (g *LiveGraph) ExistsEdge(u, v NodeID) bool { return g.live.ExistsEdge(u, v) }

// NumVertices returns the number of live vertices.
func (g *LiveGraph) NumVertices() int { return g.live.NumVertices() }

// PropertyOf returns a vertex property set by the Nodes statements.
func (g *LiveGraph) PropertyOf(v NodeID, key string) (string, bool) {
	return g.live.PropertyOf(v, key)
}

// LogicalEdges returns the logical (expanded) edge count.
func (g *LiveGraph) LogicalEdges() int64 { return g.live.LogicalEdges() }

// AddVertex returns ErrLiveMutation; insert into the node tables instead.
func (g *LiveGraph) AddVertex(NodeID) error { return ErrLiveMutation }

// DeleteVertex returns ErrLiveMutation; delete from the node tables instead.
func (g *LiveGraph) DeleteVertex(NodeID) error { return ErrLiveMutation }

// AddEdge returns ErrLiveMutation; insert into the edge tables instead.
func (g *LiveGraph) AddEdge(NodeID, NodeID) error { return ErrLiveMutation }

// DeleteEdge returns ErrLiveMutation; delete from the edge tables instead.
func (g *LiveGraph) DeleteEdge(NodeID, NodeID) error { return ErrLiveMutation }

// Flush applies all pending deltas now and reports any rebuild error.
func (g *LiveGraph) Flush() error { return g.live.Flush() }

// Pending returns the number of queued, not-yet-applied deltas.
func (g *LiveGraph) Pending() int { return g.live.Pending() }

// Snapshot applies pending deltas and returns a detached Graph copy, for
// representation conversion (Graph.As) and the analysis entry points.
func (g *LiveGraph) Snapshot() *Graph { return WrapCore(g.live.Snapshot()) }

// Version applies pending deltas and returns the snapshot version: a
// counter that increases every time the served graph state changes (the
// initial build, each batched delta application, every rebuild). Two reads
// returning the same version observed the same graph, which makes the
// version the cache-invalidation half of a memoized-analytics key — see
// internal/server, which keys its result cache by
// (session, version, analysis, params).
func (g *LiveGraph) Version() uint64 { return g.live.Version() }

// SnapshotWithVersion is Snapshot plus the version the copy was taken at,
// read atomically, so derived results can be keyed to exactly the state
// they were computed from even while table mutations race the read.
func (g *LiveGraph) SnapshotWithVersion() (*Graph, uint64) {
	c, ver := g.live.SnapshotVersioned()
	return WrapCore(c), ver
}

// FreezeWithVersion applies pending deltas and returns an immutable CSR
// view of the current logical graph (see core.Frozen), the version it
// reflects, read atomically, and how the view was obtained. It is the
// analytics substrate of the serving layer: cheaper than
// SnapshotWithVersion because it holds only the deduplicated adjacency,
// and not a Graph — it cannot be converted or mutated. The graph keeps the
// last view it handed out and derives the next one from it: a version
// whose flushes changed no vertex's neighbors gets the same view back, one
// that did gets a copy with only the changed rows re-walked, and only the
// first call after building or rebuilding the graph freezes from scratch.
// Concurrent callers at one version share one view.
func (g *LiveGraph) FreezeWithVersion() (*core.Frozen, uint64, incremental.ViewBuild) {
	return g.live.FreezeVersioned()
}

// MaintenanceStats returns counters of the maintenance activity.
func (g *LiveGraph) MaintenanceStats() incremental.Stats { return g.live.Stats() }

// Summarize applies pending deltas and returns vertices, logical edges,
// version, and pending-delta count as one consistent view (separate
// accessor calls could tear under concurrent mutations).
func (g *LiveGraph) Summarize() incremental.Summary { return g.live.Summarize() }

// Close stops maintenance: the graph stays readable but frozen.
func (g *LiveGraph) Close() { g.live.Close() }
