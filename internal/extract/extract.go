// Package extract implements GraphGen's extraction planner and executor
// (Sections 3.3 and 4.2): it translates a parsed Datalog program into
// relational queries against the relstore substrate, decides per join
// whether to hand it to the database or to postpone it behind virtual nodes
// (the large-output test), and materializes the condensed in-memory graph.
package extract

import (
	"slices"
	"time"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// Options tunes extraction: the embedded execution context (UseIndex,
// Tracker, Trace — see relstore.ExecOpts, which reaches every operator as it
// is) plus the eight settings the planner and graph builder decide on.
// UseIndex == relstore.IndexOff also stops Extract from auto-creating
// indexes on the query's join and predicate columns, so the indexed and
// unindexed pipelines (which extract identical graphs) can be compared;
// Extract installs a Tracker when none is set (reported in
// Stats.PeakIntermediateRows) and pushes a container span per Nodes rule,
// Edges rule and chain segment onto Trace.
type Options struct {
	relstore.ExecOpts
	// LargeOutputFactor is the planner threshold: a join on attribute a
	// with distinct count d is large-output when |R||S|/d >
	// factor*(|R|+|S|). The paper uses 2 (Section 4.2, Step 2), which is
	// also what <= 0 means.
	LargeOutputFactor float64
	// ForceCondensed treats every join as large-output; ForceExpand hands
	// every join to the database (full expansion). Both are primarily for
	// experiments comparing the representations.
	ForceCondensed bool
	ForceExpand    bool
	// MaxEdges aborts extraction with core.ErrTooLarge when the graph
	// (expanded edges for Case 2 / EXP paths) exceeds the budget;
	// 0 disables the guard.
	MaxEdges int64
	// SkipPreprocess disables the Step-6 virtual-node expansion pass;
	// the paper's representation experiments do the same (Section 6.5).
	SkipPreprocess bool
	// Workers sizes the Step-6 pass's worker pool; <= 0 means GOMAXPROCS.
	// The extracted graph never depends on it.
	Workers int
	// AutoExpandFactor > 0 expands the final graph when the expanded
	// edge count is at most this multiple of the condensed edge count
	// (the paper suggests 1.2); 0 disables.
	AutoExpandFactor float64
	// SelfLoops keeps logical self edges in the extracted graph.
	SelfLoops bool
}

// DefaultOptions mirror the paper's settings.
func DefaultOptions() Options {
	return Options{LargeOutputFactor: 2}
}

// Stats describes what extraction did.
type Stats struct {
	RealNodes    int
	VirtualNodes int
	RepEdges     int64
	// LargeOutputJoins is the number of joins postponed behind virtual
	// nodes; DatabaseJoins were executed by the relational substrate.
	LargeOutputJoins int
	DatabaseJoins    int
	// Case2Rules counts Edges rules that fell back to full expansion.
	Case2Rules int
	// SkippedRows counts edge rows whose real endpoint is not the ID of a
	// vertex: absent from Nodes, or not an Int value.
	SkippedRows int64
	// PreprocessExpanded is the number of virtual nodes inlined by the
	// Step-6 pass.
	PreprocessExpanded int
	// PeakIntermediateRows is the high-water mark of operator-held
	// intermediate rows across the extraction's relational pipelines:
	// join build sides, distinct seen-sets, and index-bucket gathers on
	// the streaming path, or whole staged relations under
	// relstore.MaterializingOracle. Final query outputs are excluded on
	// both paths, so the two compare like for like.
	PeakIntermediateRows int64
	Duration             time.Duration
}

// Result bundles the extracted graph with its statistics.
type Result struct {
	Graph *core.Graph
	Stats Stats
}

// Extract runs the extraction program against the database and returns the
// in-memory graph, condensed wherever the planner postponed a large-output
// join (the graph is C-DUP mode; convert with internal/dedup as needed).
func Extract(db *relstore.DB, prog *datalog.Program, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Tracker == nil {
		opts.Tracker = relstore.NewTracker()
	}
	xsp := opts.Trace.Push("extract", "")
	defer xsp.End()
	res := &Result{}
	// Steps 0-5, wiring each distinct segment row once.
	g, err := Build(db, prog, opts, &res.Stats, func(w *Wiring, plan *EdgePlan) error {
		return wirePlan(db, w, plan, opts, &res.Stats)
	})
	if err != nil {
		return nil, err
	}
	g.SortAdjacency()

	// Step 6: preprocessing. The expanded virtual nodes' slots are dropped.
	if !opts.SkipPreprocess {
		res.Stats.PreprocessExpanded = g.PreprocessExpandSmall(opts.Workers)
		g.CompactVirtual()
	}
	if opts.AutoExpandFactor > 0 && g.NumVirtualNodes() > 0 {
		rep := g.RepEdges()
		exp := g.LogicalEdges()
		if rep == 0 || float64(exp) <= opts.AutoExpandFactor*float64(rep) {
			ng, err := g.Expand(opts.MaxEdges)
			if err == nil {
				ng.Symmetric = g.Symmetric
				g = ng
			}
		}
	}
	res.Graph = g
	res.Stats.RealNodes = g.NumRealNodes()
	res.Stats.VirtualNodes = g.NumVirtualNodes()
	res.Stats.RepEdges = g.RepEdges()
	res.Stats.PeakIntermediateRows = opts.Tracker.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// Build runs the steps Extract and the live graph (internal/incremental)
// share. Step 0 creates the access paths the program needs (unless
// UseIndex is IndexOff); indexes live on the tables, so repeated builds pay
// for them once. Step 1 streams the Nodes rules into a new C-DUP graph.
// Steps 2-5 plan each Edges rule, recording the planner's counts in st,
// and hand the rule's Wiring and plan to wire, which wires the plan's
// segment rows, under the rule's "edges_rule" span. The wirings record into
// one core.Batch, which Build then loads into the graph in one pass; after
// that they edit the graph directly. The graph is Symmetric when every plan
// is.
func Build(db *relstore.DB, prog *datalog.Program, opts Options, st *Stats, wire func(*Wiring, *EdgePlan) error) (*core.Graph, error) {
	if opts.UseIndex != relstore.IndexOff {
		EnsureIndexes(db, slices.Concat(prog.Nodes, prog.Edges))
	}
	g := core.New(core.CDUP)
	g.SelfLoops = opts.SelfLoops
	for _, rule := range prog.Nodes {
		if err := LoadNodes(db, g, rule, opts); err != nil {
			return nil, err
		}
	}
	var batch core.Batch
	wirings := make([]*Wiring, 0, len(prog.Edges))
	symmetric := true
	for _, rule := range prog.Edges {
		w, plan, err := buildRule(db, g, &batch, rule, opts, st, wire)
		if err != nil {
			return nil, err
		}
		wirings = append(wirings, w)
		symmetric = symmetric && plan.Symmetric
	}
	g.Load(&batch)
	for _, w := range wirings {
		w.to = g
	}
	g.Symmetric = symmetric
	return g, nil
}

// buildRule plans one Edges rule and wires it into b through a new Wiring,
// under the rule's span.
func buildRule(db *relstore.DB, g *core.Graph, b *core.Batch, rule datalog.Rule, opts Options, st *Stats, wire func(*Wiring, *EdgePlan) error) (*Wiring, *EdgePlan, error) {
	sp := opts.Trace.Push("edges_rule", rule.Head.String())
	defer sp.End()
	plan, err := PlanEdges(db, rule, opts)
	if err != nil {
		return nil, nil, err
	}
	if plan.Case2 {
		st.Case2Rules++
		sp.Set("case2", 1)
	}
	st.LargeOutputJoins += plan.LargeJoins
	st.DatabaseJoins += plan.DatabaseJoins
	sp.Set("large_joins", int64(plan.LargeJoins))
	sp.Set("database_joins", int64(plan.DatabaseJoins))
	w := newWiring(g, b, plan)
	return w, plan, wire(w, plan)
}
