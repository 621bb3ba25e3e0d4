package main

// Every call the benchmark makes into an internal package for a per-layer
// number lives in this file, so a refactor of those signatures has one
// place to adapt, in a benchmark-only change of its own. End-to-end
// numbers never pass through here: they use the public graphgen surface
// and the /v1 routes only.
//
// A probe replays, from outside, a call the engine makes inside a public
// method, under a span whose parent is the span of that public method;
// what the probes do not cover stays as the parent's self time.

import (
	"fmt"
	"slices"
	"time"

	"graphgen"
	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/datalogeval"
	"graphgen/internal/extract"
	"graphgen/internal/workload"
)

// extractOptions mirrors what Engine.Extract passes down for the two
// extraction workloads: planner defaults, or every join handed to the
// relational pipeline.
func extractOptions(forceExpand bool) extract.Options {
	o := extract.DefaultOptions()
	o.ForceExpand = forceExpand
	return o
}

// extractShape holds the exact counts of one extraction; they must repeat
// from op to op and run to run at one seed.
type extractShape struct {
	LargeJoins    int
	DatabaseJoins int
	Segments      int
	RowsOut       int64
}

// probeExtract replays the layer calls of one Engine.Extract(dsl) in the
// order extract.Extract makes them: parse, index check, Nodes rules,
// planning, one relational pipeline per plan segment, and the Step-6
// preprocessing pass. wirePlan is unexported, so the condensed build is
// what remains of the parent span.
func probeExtract(rec *recorder, parent, op int, db *graphgen.DB, dsl string, forceExpand bool) (extractShape, error) {
	o := extractOptions(forceExpand)
	var shape extractShape
	var prog *datalog.Program
	var err error
	rec.time(parent, op, "datalog.parse", func() { prog, err = datalog.Parse(dsl) })
	if err != nil {
		return shape, err
	}
	rec.time(parent, op, "relstore.ensure_indexes", func() {
		extract.EnsureIndexes(db, allRules(prog))
	})
	rec.time(parent, op, "extract.nodes", func() {
		g := core.New(core.CDUP)
		for _, rule := range prog.Nodes {
			if err = extract.LoadNodes(db, g, rule, o); err != nil {
				return
			}
		}
	})
	if err != nil {
		return shape, err
	}
	var plans []*extract.EdgePlan
	rec.time(parent, op, "extract.plan", func() {
		for _, rule := range prog.Edges {
			var plan *extract.EdgePlan
			if plan, err = extract.PlanEdges(db, rule, o); err != nil {
				return
			}
			plans = append(plans, plan)
		}
	})
	if err != nil {
		return shape, err
	}
	rec.time(parent, op, "relstore.pipeline", func() {
		for _, plan := range plans {
			shape.LargeJoins += plan.LargeJoins
			shape.DatabaseJoins += plan.DatabaseJoins
			shape.Segments += len(plan.Segments)
			for _, s := range plan.Segments {
				rel, perr := extract.EvalConjunctive(db, s.Atoms, []string{s.InVar, s.OutVar}, true, o)
				if perr != nil {
					err = perr
					return
				}
				shape.RowsOut += int64(len(rel.Rows))
			}
		}
	})
	if err != nil {
		return shape, err
	}
	// Preprocessing runs inside extract.Extract; to time it alone, build
	// the graph without it (unrecorded) and run the pass from outside.
	o.SkipPreprocess = true
	res, err := extract.Extract(db, prog, o)
	if err != nil {
		return shape, err
	}
	rec.time(parent, op, "core.preprocess", func() { res.Graph.PreprocessExpandSmall(o.Workers) })
	return shape, nil
}

// allRules lists a program's Nodes and Edges rules, the set extract.Extract
// indexes for.
func allRules(prog *datalog.Program) []datalog.Rule {
	return slices.Concat(prog.Nodes, prog.Edges)
}

// indexBuildMS times the first EnsureIndexes call for dsl on a database
// no extraction has touched yet.
func indexBuildMS(fresh *graphgen.DB, dsl string) (float64, error) {
	prog, err := datalog.Parse(dsl)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	extract.EnsureIndexes(fresh, allRules(prog))
	return ms(time.Since(start)), nil
}

// probeProgram replays the layer calls of one Engine.ExtractProgram(src):
// parse and stratify, then semi-naive evaluation. The extraction of the
// Nodes/Edges statements over the overlay database is what remains of the
// parent span. Evaluate never modifies the base database.
func probeProgram(rec *recorder, parent, op int, db *graphgen.DB, src string) error {
	var ps *datalog.ProgramSet
	var err error
	rec.time(parent, op, "datalog.parse", func() {
		if ps, err = datalog.ParseProgram(src); err == nil {
			_, err = datalog.Stratify(ps)
		}
	})
	if err != nil {
		return err
	}
	rec.time(parent, op, "datalogeval.eval", func() {
		_, err = datalogeval.Evaluate(db, ps, datalogeval.Options{})
	})
	return err
}

// libTwin is a library-level mirror of the served session: a database of
// the same seed with one live Knows graph, driven through the same op
// sequence as the server, so the time a request spends below the HTTP
// handler can be measured without the handler.
type libTwin struct {
	knows *graphgen.Table
	live  *graphgen.LiveGraph
	// frozen is a detached copy for timing core neighbor iteration
	// without the live graph's lock; mutations only touch synthetic IDs,
	// so person neighbor lists in it stay current.
	frozen *graphgen.Graph
}

// newLibTwin also reports how long ExtractLive took to build the graph.
func newLibTwin(db *graphgen.DB, query string) (t *libTwin, buildMS float64, err error) {
	knows, err := db.Table("Knows")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	live, err := graphgen.NewEngine(db).ExtractLive(query)
	if err != nil {
		return nil, 0, err
	}
	buildMS = ms(time.Since(start))
	return &libTwin{knows: knows, live: live, frozen: live.Snapshot()}, buildMS, nil
}

func (t *libTwin) close() { t.live.Close() }

// apply replays one served op below the handler. cached says the handler
// answered an analysis from its result cache, in which case nothing below
// it ran.
func (t *libTwin) apply(rec *recorder, parent, opID int, o op, cached bool) error {
	var err error
	switch o.Class {
	case classRead:
		// The live read applies any pending deltas first, as the served
		// read does.
		inc := rec.time(parent, opID, "incremental.neighbors", func() { drain(t.live.Neighbors(o.Vertex)) })
		rec.time(inc, opID, "core.neighbors", func() { drain(t.frozen.Neighbors(o.Vertex)) })
	case classMutate:
		row := []graphgen.Value{graphgen.IntVal(o.Row[0]), graphgen.IntVal(o.Row[1])}
		rec.time(parent, opID, "incremental.delta", func() {
			if o.Insert {
				err = t.knows.Insert(row...)
			} else {
				_, err = t.knows.Delete(row...)
			}
		})
	case classAnalyze:
		if cached {
			return nil
		}
		var g *graphgen.Graph
		rec.time(parent, opID, "incremental.snapshot", func() { g, _ = t.live.SnapshotWithVersion() })
		switch o.Analysis {
		case "degree":
			rec.time(parent, opID, "algo.degree", func() { g.Degrees() })
		case "components":
			rec.time(parent, opID, "algo.components", func() { g.ConnectedComponents() })
		case "sssp":
			var snap *workload.Snapshot
			rec.time(parent, opID, "workload.snap", func() { snap = workload.Snap(g) })
			rec.time(parent, opID, "workload.sssp", func() { snap.MultiSourceBFS(snap.SampleSources(ssspSources)) })
		case "closeness":
			var snap *workload.Snapshot
			rec.time(parent, opID, "workload.snap", func() { snap = workload.Snap(g) })
			rec.time(parent, opID, "workload.closeness", func() {
				workload.TopCloseness(snap.Closeness(snap.SampleSources(closenessSamples), 0), closenessTopK)
			})
		default:
			err = fmt.Errorf("bench: no library replay for analysis %q", o.Analysis)
		}
	}
	return err
}

// updateUS times n library-level updates on the twin, single goroutine:
// one Table.Insert or Delete of a synthetic Knows edge followed by
// LiveGraph.Flush. It returns the median in microseconds and the mean
// number of delta rows applied per flush.
func (t *libTwin) updateUS(n int) (medianUS, flushBatch float64, err error) {
	before := t.live.MaintenanceStats()
	samples := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		src := libUpdateIDBase + int64(i)
		row := []graphgen.Value{graphgen.IntVal(src), graphgen.IntVal(src + 1)}
		for _, insert := range []bool{true, false} {
			start := time.Now()
			if insert {
				err = t.knows.Insert(row...)
			} else {
				_, err = t.knows.Delete(row...)
			}
			if err == nil {
				err = t.live.Flush()
			}
			if err != nil {
				return 0, 0, err
			}
			samples = append(samples, float64(time.Since(start))/1e3)
		}
	}
	after := t.live.MaintenanceStats()
	if flushes := after.Flushes - before.Flushes; flushes > 0 {
		flushBatch = float64(after.DeltaRows-before.DeltaRows) / float64(flushes)
	}
	return median(samples), flushBatch, nil
}

// maintenance reports the twin's support-count transitions and rebuilds.
func (t *libTwin) maintenance() (transitions, rebuilds int64) {
	st := t.live.MaintenanceStats()
	return st.Transitions, st.Rebuilds
}

func drain(it graphgen.Iterator) (n int) {
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
