// Package graphgen is a Go implementation of GraphGen — the system from
// "Extracting and Analyzing Hidden Graphs from Relational Databases"
// (SIGMOD 2017) — for declaratively extracting graphs hidden in relational
// data and analyzing them in memory through condensed representations that
// can be orders of magnitude smaller than the expanded graph.
//
// The workflow mirrors the paper's:
//
//	db := graphgen.NewDB()                      // or datagen generators
//	... create tables, insert rows ...
//	engine := graphgen.NewEngine(db)
//	g, err := engine.Extract(`
//	    Nodes(ID, Name) :- Author(ID, Name).
//	    Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
//	`)
//	pr := g.PageRank(20, 0.85)                  // runs on the condensed graph
//	d1, err := g.As(graphgen.DEDUP1)            // convert representations
//
// Extraction produces the C-DUP condensed representation whenever the
// planner detects large-output joins; Graph.As converts it to EXP, DEDUP-1,
// DEDUP-2 or BITMAP using the deduplication algorithms of Section 5.
//
// Extraction is serial: the relational pipeline streams one row at a
// time, and the Step-6 preprocessing pass and the representation
// conversions are serial loops. The BSP and vertex-centric analytics run
// on a shared worker pool (internal/parallel) with deterministic
// chunk-ordered merges, so a worker count changes no result (BSP PageRank
// may differ in the last float bits, from summation order).
package graphgen

import (
	"fmt"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/dedup"
	"graphgen/internal/extract"
	"graphgen/internal/graphapi"
	"graphgen/internal/relstore"
	"graphgen/internal/suggest"
)

// Re-exported relational substrate types, so applications can assemble a
// database without importing internal packages.
type (
	// DB is an in-memory relational database.
	DB = relstore.DB
	// Table is a relation inside a DB.
	Table = relstore.Table
	// Column describes a table column.
	Column = relstore.Column
	// Value is a relational value.
	Value = relstore.Value
)

// Column type constants.
const (
	Int    = relstore.Int
	String = relstore.String
)

// NewDB creates an empty relational database.
func NewDB() *DB { return relstore.NewDB() }

// ErrCSVSpec marks a malformed "name=path,..." spec passed to
// DB.LoadCSVFiles — a usage error for CLI front ends, as opposed to
// file-system or CSV-parse failures.
var ErrCSVSpec = relstore.ErrCSVSpec

// IntVal builds an integer Value.
func IntVal(i int64) Value { return relstore.IntVal(i) }

// StrVal builds a string Value.
func StrVal(s string) Value { return relstore.StrVal(s) }

// Representation identifies one of the five in-memory representations.
type Representation = core.Mode

// The five representations of Section 4.3.
const (
	CDUP   = core.CDUP
	EXP    = core.EXP
	DEDUP1 = core.DEDUP1
	DEDUP2 = core.DEDUP2
	BITMAP = core.BITMAP
)

// NodeID identifies a real node.
type NodeID = graphapi.NodeID

// Iterator walks node IDs.
type Iterator = graphapi.Iterator

// Engine binds a relational database to the extraction pipeline.
type Engine struct {
	db  *relstore.DB
	cfg config
}

// config is everything the With* options can set: the extraction layer's
// options — whose embedded relstore.ExecOpts is the execution context every
// layer below runs under — plus the one setting that belongs to the program
// evaluator alone.
type config struct {
	extract          extract.Options
	maxDerivedTuples int64
}

// with returns c with opts applied; c itself is not modified, so a per-call
// option never leaks into the engine or the next call.
func (c config) with(opts []Option) config {
	for _, fn := range opts {
		fn(&c)
	}
	return c
}

// Option tunes the extraction pipeline. Options are built by the With*
// constructors only; pass them to NewEngine (engine-wide) or to a single
// Extract / ExtractProgram / ExtractLive call.
type Option func(*config)

// WithForceCondensed postpones every join behind virtual nodes.
func WithForceCondensed() Option { return func(c *config) { c.extract.ForceCondensed = true } }

// WithForceExpand hands every join to the database (full expansion).
func WithForceExpand() Option { return func(c *config) { c.extract.ForceExpand = true } }

// WithMaxEdges sets the expansion memory guard (0 disables).
func WithMaxEdges(n int64) Option { return func(c *config) { c.extract.MaxEdges = n } }

// WithSelfLoops keeps logical self edges.
func WithSelfLoops() Option { return func(c *config) { c.extract.SelfLoops = true } }

// WithoutPreprocessing disables the Step-6 small-virtual-node inlining.
func WithoutPreprocessing() Option { return func(c *config) { c.extract.SkipPreprocess = true } }

// WithLargeOutputFactor overrides the planner threshold (default 2).
func WithLargeOutputFactor(f float64) Option {
	return func(c *config) { c.extract.LargeOutputFactor = f }
}

// WithAutoIndex toggles the secondary-index subsystem (on by default).
// When on, the engine creates per-column hash indexes on every join and
// equality-predicate column an extraction query (or Datalog program)
// reads, the first time it reads them; the planner then costs the
// index-backed access paths against the table scans using the catalog
// statistics. Indexes live on the tables — maintained incrementally under
// Insert/Delete/DeleteWhere through the same mutation path that feeds the
// change log — so they are reused across extractions, across the
// semi-naive delta rounds of ExtractProgram, and across live-graph
// rebuilds. Indexed and unindexed extraction produce identical graphs;
// WithAutoIndex(false) exists for controlled comparisons (and the
// graphgend -no-index flag). Note that extraction with auto-indexing on
// writes index structures into the database's tables, which, like the
// lazily recomputed statistics catalog, means concurrent extractions over
// one DB must be serialized by the caller.
func WithAutoIndex(on bool) Option {
	mode := relstore.IndexOff
	if on {
		mode = relstore.IndexAuto
	}
	return func(c *config) { c.extract.UseIndex = mode }
}

// NewEngine creates an extraction engine over db.
func NewEngine(db *DB, opts ...Option) *Engine {
	return &Engine{db: db, cfg: config{extract: extract.DefaultOptions()}.with(opts)}
}

// DB returns the relational database the engine extracts from, so a
// serving layer built over the engine (internal/server, cmd/graphgend)
// can route table mutations through the same change-logged tables that
// live graphs subscribe to. Tables are not internally synchronized:
// callers that mutate concurrently with extraction must serialize those
// operations themselves.
func (e *Engine) DB() *DB { return e.db }

// Extract parses and executes an extraction program written in the Datalog
// DSL — Nodes and Edges rules over base tables, with comparisons and
// negated atoms — and returns the in-memory graph.
func (e *Engine) Extract(dsl string, opts ...Option) (*Graph, error) {
	prog, err := datalog.Parse(dsl)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg.with(opts)
	res, err := extract.Extract(e.db, prog, cfg.extract)
	if err != nil {
		return nil, err
	}
	return &Graph{c: res.Graph, stats: res.Stats, profile: cfg.extract.Trace.Finish()}, nil
}

// ExtractBatched extracts several programs and groups the resulting graphs
// into batches whose combined estimated memory footprint stays within
// memBudget bytes — the paper's batching step (Section 3.1: "we aim to
// ensure that the total size of the graphs constructed in a single batch is
// less than the total amount of memory available"). Graphs are packed
// greedily in query order; a single graph larger than the budget is an
// error. memBudget <= 0 puts everything in one batch.
func (e *Engine) ExtractBatched(queries []string, memBudget int64, opts ...Option) ([][]*Graph, error) {
	var batches [][]*Graph
	var current []*Graph
	var currentBytes int64
	for i, q := range queries {
		g, err := e.Extract(q, opts...)
		if err != nil {
			return nil, fmt.Errorf("graphgen: query %d: %w", i+1, err)
		}
		size := g.MemBytes()
		if memBudget > 0 && size > memBudget {
			return nil, fmt.Errorf("graphgen: query %d: graph (%d bytes) exceeds the batch budget (%d)", i+1, size, memBudget)
		}
		if memBudget > 0 && currentBytes+size > memBudget && len(current) > 0 {
			batches = append(batches, current)
			current, currentBytes = nil, 0
		}
		current = append(current, g)
		currentBytes += size
	}
	if len(current) > 0 {
		batches = append(batches, current)
	}
	return batches, nil
}

// Validate parses the DSL and classifies each Edges rule as Case 1
// (condensable chain) or Case 2 (full expansion) without touching the
// database. It returns one entry per Edges rule; true means Case 1. A
// chain rule can still plan as Case 2 once the data is known: a
// comparison or negated atom whose variables span two segments forces it
// when the planner postpones the join between them.
func Validate(dsl string) ([]bool, error) {
	prog, err := datalog.Parse(dsl)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(prog.Edges))
	for i, rule := range prog.Edges {
		_, err := datalog.AnalyzeChain(rule)
		out[i] = err == nil
	}
	return out, nil
}

// Proposal is a suggested extraction query discovered from the schema.
type Proposal = suggest.Proposal

// Suggest analyzes the database schema and statistics and proposes
// candidate hidden graphs (co-membership and bipartite extraction queries),
// ranked by estimated edge count — the schema-exploration capability of the
// GraphGen demo system, addressing the paper's observation that
// "identifying potentially interesting graphs itself may be difficult for
// large schemas".
func Suggest(db *DB) ([]Proposal, error) { return suggest.Propose(db) }

// ExtractStats describes an extraction run.
type ExtractStats = extract.Stats

// DedupOptions tunes representation conversion.
type DedupOptions = dedup.Options

// Ordering selects the dedup processing order.
type Ordering = dedup.Ordering

// Processing orders for deduplication (Figure 12b).
const (
	OrderRandom   = dedup.OrderRandom
	OrderSizeAsc  = dedup.OrderSizeAsc
	OrderSizeDesc = dedup.OrderSizeDesc
)

// Dedup1Algorithm names one of the four DEDUP-1 algorithms of Section 5.2.
type Dedup1Algorithm int

// DEDUP-1 algorithm choices.
const (
	// GreedyVirtualFirst is the paper's default for DEDUP-1.
	GreedyVirtualFirst Dedup1Algorithm = iota
	NaiveVirtualFirst
	NaiveRealFirst
	GreedyRealFirst
)

func (a Dedup1Algorithm) String() string {
	switch a {
	case GreedyVirtualFirst:
		return "GreedyVirtualNodesFirst"
	case NaiveVirtualFirst:
		return "NaiveVirtualNodesFirst"
	case NaiveRealFirst:
		return "NaiveRealNodesFirst"
	case GreedyRealFirst:
		return "GreedyRealNodesFirst"
	default:
		return fmt.Sprintf("Dedup1Algorithm(%d)", int(a))
	}
}

// ErrUnsupported is returned by Graph.As for conversions outside the
// algorithm's supported graph class.
var ErrUnsupported = dedup.ErrUnsupported
