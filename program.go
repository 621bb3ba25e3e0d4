package graphgen

import (
	"graphgen/internal/datalog"
	"graphgen/internal/datalogeval"
	"graphgen/internal/extract"
)

// This file is the public surface of the recursive Datalog subsystem:
// Engine.ExtractProgram evaluates a multi-rule program (derived predicates,
// recursion, stratified negation, comparison literals) bottom-up with
// semi-naive iteration (internal/datalogeval) and hands the resulting
// Nodes/Edges statements to the same extraction pipeline Extract uses — so
// condensed representations, conversions, and analytics apply to recursive
// graphs unchanged.

// EvalStats describes one Datalog program evaluation: strata count, total
// semi-naive iterations, derived tuples materialized, and temporary-table
// count.
type EvalStats = datalogeval.Stats

// ErrTooManyDerived marks a program evaluation aborted by the
// WithMaxDerivedTuples budget.
var ErrTooManyDerived = datalogeval.ErrTooManyDerived

// WithMaxDerivedTuples bounds the total number of tuples the program
// evaluator may materialize for derived predicates (0, the default,
// disables the guard). It is the evaluation-side counterpart of
// WithMaxEdges; Extract and ExtractLive evaluate no derived predicates and
// ignore it.
func WithMaxDerivedTuples(n int64) Option {
	return func(c *config) { c.maxDerivedTuples = n }
}

// ExtractProgram parses and runs a multi-rule Datalog program: derived
// (IDB) predicates — possibly recursive, with stratified negation (`!P(X)`
// or `not P(X)`) and comparison literals (`<`, `<=`, `>`, `>=`, `=`,
// `!=`) — are evaluated bottom-up to fixpoint and materialized as
// temporary tables, then the program's Nodes/Edges statements extract the
// graph exactly as Extract would. Example (transitive co-authorship
// reachability):
//
//	Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
//	Reach(A, B)    :- Coauthor(A, B).
//	Reach(A, C)    :- Reach(A, B), Coauthor(B, C).
//	Nodes(ID, N)   :- Author(ID, N).
//	Edges(A, B)    :- Reach(A, B).
//
// The returned graph's ProgramStats reports strata, iterations, and
// derived-tuple counts. Programs without derived predicates behave exactly
// like Extract. The temporary tables live only for the duration of the
// call; the base database is never modified.
func (e *Engine) ExtractProgram(src string, opts ...Option) (*Graph, error) {
	ps, err := datalog.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg.with(opts)
	ev, err := datalogeval.Evaluate(e.db, ps, datalogeval.Options{
		ExecOpts:         cfg.extract.ExecOpts,
		MaxDerivedTuples: cfg.maxDerivedTuples,
	})
	if err != nil {
		return nil, err
	}
	res, err := extract.Extract(ev.DB, ev.Program, cfg.extract)
	if err != nil {
		return nil, err
	}
	evalStats := ev.Stats
	// The peak reported to callers covers the whole call: program
	// evaluation and the extraction of the Nodes/Edges statements that
	// follows it (a high-water mark, so take the larger of the two).
	if res.Stats.PeakIntermediateRows > evalStats.PeakIntermediateRows {
		evalStats.PeakIntermediateRows = res.Stats.PeakIntermediateRows
	}
	return &Graph{c: res.Graph, stats: res.Stats, evalStats: &evalStats, profile: cfg.extract.Trace.Finish()}, nil
}

// ProgramStats returns the Datalog evaluation statistics when the graph
// was built by ExtractProgram; ok is false for graphs from Extract.
func (g *Graph) ProgramStats() (stats EvalStats, ok bool) {
	if g.evalStats == nil {
		return EvalStats{}, false
	}
	return *g.evalStats, true
}
