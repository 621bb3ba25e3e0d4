package graphgen

import "graphgen/internal/obs"

// This file is the public EXPLAIN/ANALYZE surface. WithProfile arms
// operator-span tracing for one extraction call; the resulting Graph
// carries the completed execution tree, which Profile returns for
// programmatic inspection and which marshals directly to the stable
// ANALYZE JSON (Profile.Plan gives the measurement-free EXPLAIN view).

// Profile is the completed execution tree of one traced extraction or
// program evaluation: a span per relational operator (with its access-
// path choice, rows out, and wall time) nested under container
// spans per rule, chain segment, stratum, and semi-naive delta round.
type Profile = obs.Span

// WithProfile enables execution tracing for the extraction call it is
// passed to; the resulting Graph's Profile method returns the tree.
// Tracing adds one span per operator and a per-row counter — cheap, but
// not free — and a profile is scoped to a single call: pass the option
// per Extract/ExtractProgram/ExtractLive invocation, not to NewEngine
// (an engine-level profile would accumulate every extraction into one
// tree).
func WithProfile() Option {
	return func(c *config) { c.extract.Trace = obs.NewTrace() }
}

// Profile returns the execution tree recorded when the graph was
// extracted under WithProfile, or nil when tracing was off. Conversions
// (As, AsDedup1) propagate the originating extraction's profile.
func (g *Graph) Profile() *Profile { return g.profile }

// BuildProfile returns the execution tree of the live graph's initial
// build when it was extracted under WithProfile, or nil. Incremental
// maintenance is not traced: a trace is scoped to the request that
// configured it, and maintenance work outlives that request.
func (g *LiveGraph) BuildProfile() *Profile { return g.profile }
