// Package extract implements GraphGen's extraction planner and executor
// (Sections 3.3 and 4.2): it translates a parsed Datalog program into
// relational queries against the relstore substrate, decides per join
// whether to hand it to the database or to postpone it behind virtual nodes
// (the large-output test), and materializes the condensed in-memory graph.
package extract

import (
	"fmt"
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
	g, err := Build(db, prog, opts, &res.Stats, func(g *core.Graph, plan *EdgePlan) error {
		return wirePlan(db, g, plan, opts, &res.Stats)
	})
	if err != nil {
		return nil, err
	}
	g.SortAdjacency()

	// Step 6: preprocessing.
	if !opts.SkipPreprocess {
		res.Stats.PreprocessExpanded = g.PreprocessExpandSmall(opts.Workers)
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
// for them once. Step 1 loads the Nodes rules into a new C-DUP graph.
// Steps 2-5 plan each Edges rule, recording the planner's counts in st,
// and hand the graph and the plan to wire, which wires the plan's segment
// rows through a Wiring, under the rule's "edges_rule" span. The graph is
// Symmetric when every plan is.
func Build(db *relstore.DB, prog *datalog.Program, opts Options, st *Stats, wire func(*core.Graph, *EdgePlan) error) (*core.Graph, error) {
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
	symmetric := true
	for _, rule := range prog.Edges {
		plan, err := buildRule(db, g, rule, opts, st, wire)
		if err != nil {
			return nil, err
		}
		symmetric = symmetric && plan.Symmetric
	}
	g.Symmetric = symmetric
	return g, nil
}

// buildRule plans one Edges rule and wires it onto g under its span.
func buildRule(db *relstore.DB, g *core.Graph, rule datalog.Rule, opts Options, st *Stats, wire func(*core.Graph, *EdgePlan) error) (*EdgePlan, error) {
	sp := opts.Trace.Push("edges_rule", rule.Head.String())
	defer sp.End()
	plan, err := PlanEdges(db, rule, opts)
	if err != nil {
		return nil, err
	}
	if plan.Case2 {
		st.Case2Rules++
		sp.Set("case2", 1)
	}
	st.LargeOutputJoins += plan.LargeJoins
	st.DatabaseJoins += plan.DatabaseJoins
	sp.Set("large_joins", int64(plan.LargeJoins))
	sp.Set("database_joins", int64(plan.DatabaseJoins))
	return plan, wire(g, plan)
}

// LoadNodes evaluates one Nodes rule, comparisons and negated atoms
// included, and adds the result as real nodes with properties named after
// the head variables. The rule's rows are collected first so that their
// count sizes the graph's node arrays (Graph.Grow) before the load. It is
// exported for the per-layer benchmark, which times the node load alone.
func LoadNodes(db *relstore.DB, g *core.Graph, rule datalog.Rule, opts Options) error {
	var outVars []string
	for _, t := range rule.Head.Terms {
		if t.Kind != datalog.TermVar {
			return fmt.Errorf("extract: Nodes head terms must be variables: %s", rule.Head)
		}
		outVars = append(outVars, t.Var)
	}
	sp := opts.Trace.Push("nodes_rule", rule.Head.String())
	defer sp.End()
	body := SegmentPlan{Atoms: rule.Body, Comps: rule.Comps, Negated: rule.Negated}
	rel, err := body.collect(db, outVars, true, opts)
	if err != nil {
		return err
	}
	sp.AddRows(int64(len(rel.Rows)))
	g.Grow(len(rel.Rows))
	for _, row := range rel.Rows {
		if row[0].T != relstore.Int {
			return fmt.Errorf("extract: node ID attribute must be an integer column (rule %s)", rule.Head)
		}
		r := g.AddRealNode(row[0].I)
		for i := 1; i < len(row); i++ {
			g.SetProperty(r, outVars[i], row[i].String())
		}
	}
	return nil
}
