package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
)

// sizes are the generator arguments of every workload.
type sizes struct {
	condensedActors, condensedMovies int
	// tpch is customers, orders, parts, items per order.
	tpch                     [4]int
	dedupActors, dedupMovies int
	snbScaleFactor           float64
}

// benchSizes are the sizes every reported number uses; only the tests
// run smaller ones. They are smaller than a 20-second window would allow:
// the driver's total run-time cap fits a window of a few seconds and
// five set-ups per run, so the sizes keep one op under a second and one
// set-up around a second. See README.md, "Sizes and windows".
var benchSizes = sizes{
	condensedActors: 32000, condensedMovies: 5200,
	tpch:        [4]int{150, 1000, 25, 3},
	dedupActors: 16000, dedupMovies: 2600,
	snbScaleFactor: 1.0,
}

// params is what a workload is set up from.
type params struct {
	seed    int64
	clients int
	size    sizes
}

// batchRunner drives a workload whose ops run one after another on the
// caller's goroutine through the public library surface.
type batchRunner struct {
	db       *graphgen.DB
	info     datasetInfo
	variants int
	// op runs variant v's complete user operation and returns what a
	// user would keep, so live_heap_mb sees it referenced.
	op func(v int) (any, error)
	// tracedOp runs the same operation under a whole-op span, with a
	// span around each public call and probes for the layers inside it.
	// It returns the whole-op span's duration in milliseconds.
	tracedOp func(rec *recorder, opID, v int) (float64, error)
	check    func() (checked, mismatched int, err error)
	// details turns a traced pass into the workload's named per-layer
	// metrics.
	details func(sum traceSummary) ([]detailMetric, error)
	keep    any
}

func (r *batchRunner) dataset() datasetInfo { return r.info }
func (r *batchRunner) clients() int         { return 1 }
func (r *batchRunner) close()               { r.keep = nil }

func (r *batchRunner) oracle() (int, int, error) { return r.check() }

// warm runs n untimed rotations.
func (r *batchRunner) warm(n int) error {
	for i := 0; i < n; i++ {
		for v := 0; v < r.variants; v++ {
			res, err := r.op(v)
			if err != nil {
				return err
			}
			r.keep = res
		}
	}
	return nil
}

// measure runs whole rotations over the variants until d has passed, so
// every variant is run equally often.
func (r *batchRunner) measure(d time.Duration) *window {
	w := newWindow()
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	for {
		for v := 0; v < r.variants; v++ {
			t := time.Now()
			res, err := r.op(v)
			elapsed := time.Since(t)
			w.Attempted++
			if err != nil {
				w.Failed++
				continue
			}
			w.add(classOp, v, ms(elapsed))
			r.keep = res
		}
		if time.Since(start) >= d {
			break
		}
	}
	w.Elapsed = time.Since(start)
	w.AllocBytes = totalAlloc() - alloc0
	return w
}

func (r *batchRunner) traced(d time.Duration, rec *recorder) (*tracedResult, error) {
	res := &tracedResult{Untraced: r.measure(d * 2 / 5), Traced: newWindow()}
	start := time.Now()
	opID := 0
	for {
		for v := 0; v < r.variants; v++ {
			opID++
			whole, err := r.tracedOp(rec, opID, v)
			if err != nil {
				return nil, err
			}
			res.Traced.add(classOp, v, whole)
		}
		if time.Since(start) >= d*3/5 {
			break
		}
	}
	var err error
	res.Detail, err = r.details(summarizeTrace(rec.spans))
	return res, err
}

// --- extract-condensed, extract-expand ---

func setupExtractCondensed(p params) (runner, error) {
	actors, movies := p.size.condensedActors, p.size.condensedMovies
	gen := func() *graphgen.DB { return datagen.IMDBLike(p.seed, actors, movies) }
	name := fmt.Sprintf("datagen.IMDBLike(%d, %d, %d)", p.seed, actors, movies)
	return setupExtract(name, gen, datagen.QueryCoactors, false)
}

func setupExtractExpand(p params) (runner, error) {
	t := p.size.tpch
	gen := func() *graphgen.DB { return datagen.TPCHLike(p.seed, t[0], t[1], t[2], t[3]) }
	name := fmt.Sprintf("datagen.TPCHLike(%d, %d, %d, %d, %d)", p.seed, t[0], t[1], t[2], t[3])
	return setupExtract(name, gen, datagen.QuerySamePart, true)
}

// setupExtract builds an extraction workload: one op is query text to
// graph through Engine.Extract, with planner defaults or with every join
// forced into the relational pipeline.
func setupExtract(generator string, gen func() *graphgen.DB, dsl string, forceExpand bool) (runner, error) {
	db := gen()
	engine := graphgen.NewEngine(db)
	var opts []graphgen.Option
	if forceExpand {
		opts = append(opts, graphgen.WithForceExpand())
	}
	extractOnce := func() (*graphgen.Graph, error) { return engine.Extract(dsl, opts...) }
	r := &batchRunner{db: db, variants: 1}
	r.op = func(int) (any, error) { return extractOnce() }

	var shape extractShape
	var peak int64
	r.tracedOp = func(rec *recorder, opID, _ int) (float64, error) {
		var g *graphgen.Graph
		var err error
		root := rec.begin(0, opID, "op."+classOp)
		// What the probes below do not cover of this span is the
		// condensed (or direct-edge) build inside wirePlan.
		pub := rec.time(root, opID, "extract.wire", func() { g, err = extractOnce() })
		whole := rec.end(root)
		if err != nil {
			return 0, err
		}
		r.keep = g
		peak = g.ExtractionStats().PeakIntermediateRows
		got, err := probeExtract(rec, pub, opID, db, dsl, forceExpand)
		if err != nil {
			return 0, err
		}
		if opID > 1 && got != shape {
			return 0, fmt.Errorf("bench: extraction counts changed between ops: %+v then %+v", shape, got)
		}
		shape = got
		return whole, nil
	}
	r.details = func(sum traceSummary) ([]detailMetric, error) {
		indexMS, err := indexBuildMS(gen(), dsl)
		if err != nil {
			return nil, err
		}
		g := r.keep.(*graphgen.Graph)
		pipeline := sum.SpanSelfMS["relstore.pipeline"]
		return []detailMetric{
			{"datalog.parse_us", sum.SpanSelfMS["datalog.parse"] * 1e3, "us"},
			{"extract.plan_ms", sum.SpanSelfMS["extract.plan"], "ms"},
			{"extract.nodes_ms", sum.SpanSelfMS["extract.nodes"], "ms"},
			{"extract.wire_ms", sum.SpanSelfMS["extract.wire"], "ms"},
			{"extract.large_joins", float64(shape.LargeJoins), "count"},
			{"extract.database_joins", float64(shape.DatabaseJoins), "count"},
			{"extract.segments", float64(shape.Segments), "count"},
			{"relstore.pipeline_ms", pipeline, "ms"},
			{"relstore.rows_out", float64(shape.RowsOut), "count"},
			{"relstore.rows_per_s", ratio(float64(shape.RowsOut), pipeline/1e3), "1/s"},
			{"relstore.peak_intermediate_rows", float64(peak), "count"},
			{"relstore.index_build_ms", indexMS, "ms"},
			{"core.preprocess_ms", sum.SpanSelfMS["core.preprocess"], "ms"},
			{"core.mem_bytes_per_logical_edge", ratio(g.MemBytes(), g.LogicalEdges()), "B"},
			{"core.stored_over_logical", ratio(g.RepEdges(), g.LogicalEdges()), "ratio"},
		}, nil
	}
	// Oracle: the planner's choice must not change the logical graph, so
	// the condensed and the fully expanded extraction of the same query
	// agree on the logical edge count and on every vertex's degree.
	r.check = func() (int, int, error) {
		condensed, err := engine.Extract(dsl)
		if err != nil {
			return 0, 0, err
		}
		expanded, err := engine.Extract(dsl, graphgen.WithForceExpand())
		if err != nil {
			return 0, 0, err
		}
		mismatched := 0
		if condensed.LogicalEdges() != expanded.LogicalEdges() {
			mismatched++
		}
		if degreeFingerprint(condensed) != degreeFingerprint(expanded) {
			mismatched++
		}
		return 2, mismatched, nil
	}
	if err := r.warm(2); err != nil {
		return nil, err
	}
	r.info = describe(generator, db, r.keep.(*graphgen.Graph))
	return r, nil
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio[N int64 | float64](num, den N) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- dedup-analytics ---

var convertTargets = []graphgen.Representation{graphgen.DEDUP1, graphgen.DEDUP2, graphgen.BITMAP, graphgen.EXP}

const (
	pageRankIters   = 10
	pageRankDamping = 0.85
)

// convertSpan names the span of one Graph.As call by the layer that does
// the work: As(EXP) is core's Expand, the others are dedup algorithms.
func convertSpan(target graphgen.Representation) string {
	if target == graphgen.EXP {
		return "core.expand"
	}
	return "dedup.convert." + target.String()
}

// analytics are the four algorithms run on every representation.
var analytics = []struct {
	name string
	run  func(g *graphgen.Graph, src graphgen.NodeID)
}{
	{"degree", func(g *graphgen.Graph, _ graphgen.NodeID) { g.Degrees() }},
	{"bfs", func(g *graphgen.Graph, src graphgen.NodeID) { g.BFS(src) }},
	{"pagerank", func(g *graphgen.Graph, _ graphgen.NodeID) { g.PageRank(pageRankIters, pageRankDamping) }},
	{"components", func(g *graphgen.Graph, _ graphgen.NodeID) { g.ConnectedComponents() }},
}

func setupDedupAnalytics(p params) (runner, error) {
	db := datagen.IMDBLike(p.seed, p.size.dedupActors, p.size.dedupMovies)
	cdup, err := graphgen.NewEngine(db).Extract(datagen.QueryCoactors)
	if err != nil {
		return nil, err
	}
	const src = graphgen.NodeID(1)
	r := &batchRunner{db: db, variants: 1}
	r.info = describe(fmt.Sprintf("datagen.IMDBLike(%d, %d, %d)", p.seed, p.size.dedupActors, p.size.dedupMovies), db, cdup)

	// convert wraps each conversion in wrap, which the traced op uses to
	// put a span around it.
	convert := func(wrap func(name string, f func())) ([]*graphgen.Graph, error) {
		reps := []*graphgen.Graph{cdup}
		for _, target := range convertTargets {
			var g *graphgen.Graph
			var err error
			wrap(convertSpan(target), func() { g, err = cdup.As(target) })
			if err != nil {
				return nil, err
			}
			reps = append(reps, g)
		}
		for _, g := range reps {
			for _, a := range analytics {
				wrap("algo."+a.name+"."+g.Representation().String(), func() { a.run(g, src) })
			}
		}
		return reps, nil
	}
	r.op = func(int) (any, error) { return convert(func(_ string, f func()) { f() }) }
	r.tracedOp = func(rec *recorder, opID, _ int) (float64, error) {
		root := rec.begin(0, opID, "op."+classOp)
		reps, err := convert(func(name string, f func()) { rec.time(root, opID, name, f) })
		whole := rec.end(root)
		r.keep = reps
		return whole, err
	}
	r.details = func(sum traceSummary) ([]detailMetric, error) {
		reps := r.keep.([]*graphgen.Graph)
		var out []detailMetric
		for _, target := range convertTargets {
			out = append(out, detailMetric{"dedup.convert_ms." + target.String(), sum.SpanSelfMS[convertSpan(target)], "ms"})
		}
		out = append(out, detailMetric{"core.expand_ms", sum.SpanSelfMS[convertSpan(graphgen.EXP)], "ms"})
		for _, g := range reps {
			rep := g.Representation().String()
			out = append(out,
				detailMetric{"dedup.rep_edges_after." + rep, float64(g.RepEdges()), "count"},
				detailMetric{"dedup.stored_over_logical." + rep, ratio(g.RepEdges(), g.LogicalEdges()), "ratio"},
				detailMetric{"core.mem_bytes_per_logical_edge." + rep, ratio(g.MemBytes(), g.LogicalEdges()), "B"},
				detailMetric{"core.neighbors_ns_per_edge." + rep, neighborSweepNS(g), "ns"},
			)
			for _, a := range analytics {
				out = append(out, detailMetric{"algo." + a.name + "_ms." + rep, sum.SpanSelfMS["algo."+a.name+"."+rep], "ms"})
			}
		}
		return out, nil
	}
	// Oracle: every representation is the same logical graph, so degrees
	// match EXP's exactly and PageRank within float summation order.
	r.check = func() (int, int, error) {
		reps, err := convert(func(_ string, f func()) { f() })
		if err != nil {
			return 0, 0, err
		}
		exp := reps[len(reps)-1]
		wantDeg, wantPR := exp.Degrees(), exp.PageRank(pageRankIters, pageRankDamping)
		checked, mismatched := 0, 0
		for _, g := range reps[:len(reps)-1] {
			checked += 2
			if !sameDegrees(g.Degrees(), wantDeg) {
				mismatched++
			}
			if maxAbsDiff(g.PageRank(pageRankIters, pageRankDamping), wantPR) > 1e-9 {
				mismatched++
			}
		}
		return checked, mismatched, nil
	}
	if err := r.warm(1); err != nil {
		return nil, err
	}
	return r, nil
}

// neighborSweepNS times one full Vertices x Neighbors sweep and returns
// nanoseconds per logical edge yielded.
func neighborSweepNS(g *graphgen.Graph) float64 {
	start := time.Now()
	edges := 0
	vs := g.Vertices()
	for {
		v, ok := vs.Next()
		if !ok {
			break
		}
		edges += drain(g.Neighbors(v))
	}
	if edges == 0 {
		return 0
	}
	return float64(time.Since(start)) / float64(edges)
}

func sameDegrees(a, b map[graphgen.NodeID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, d := range a {
		if b[id] != d {
			return false
		}
	}
	return true
}

func maxAbsDiff(a, b map[graphgen.NodeID]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for id, x := range a {
		y, ok := b[id]
		if !ok {
			return math.Inf(1)
		}
		worst = math.Max(worst, math.Abs(x-y))
	}
	return worst
}

// --- program-recursive ---

// programTags are the interest tags the program rotates over. The SNB
// generator ties a tag's popularity to its index (country windows), so
// every sixth tag spans popular to rare; the seed varies the data, not
// the tags, which keeps the work comparable from seed to seed.
var programTags = []int{0, 6, 12, 18, 24, 30, 36, 42}

// recursiveProgram restricts the knows graph to the fans of one tag who
// do not also follow the next tag, and extracts their transitive closure:
// recursion above a stratum with one negated atom, plus one comparison.
func recursiveProgram(tag int) string {
	return fmt.Sprintf(`
Fan(P) :- HasInterest(P, '%s').
Muted(P) :- HasInterest(P, '%s').
Active(P) :- Fan(P), !Muted(P).
FanKnows(A, B) :- Knows(A, B), Active(A), Active(B).
Reach(A, B) :- FanKnows(A, B).
Reach(A, C) :- Reach(A, B), FanKnows(B, C).
Nodes(P, N) :- Person(P, N, C), Active(P).
Edges(A, B) :- Reach(A, B), A < B.
`, datagen.TagName(tag), datagen.TagName(mutedTag(tag)))
}

func mutedTag(tag int) int { return (tag + 1) % datagen.NumTags }

// snb generates the social network the program and serving workloads
// share.
func snb(p params) *graphgen.DB {
	return datagen.SNB(datagen.SNBConfig{Seed: p.seed, ScaleFactor: p.size.snbScaleFactor})
}

func snbName(p params) string {
	return fmt.Sprintf("datagen.SNB(seed %d, scale factor %g)", p.seed, p.size.snbScaleFactor)
}

func setupProgramRecursive(p params) (runner, error) {
	db := snb(p)
	engine := graphgen.NewEngine(db)
	programs := make([]string, len(programTags))
	for i, tag := range programTags {
		programs[i] = recursiveProgram(tag)
	}
	r := &batchRunner{db: db, variants: len(programs)}

	// The evaluator is deterministic: every op of one tag must derive
	// the same tuples in the same number of rounds.
	stats := make([]graphgen.EvalStats, len(programs))
	seen := make([]bool, len(programs))
	run := func(v int) (*graphgen.Graph, error) {
		g, err := engine.ExtractProgram(programs[v])
		if err != nil {
			return nil, err
		}
		st, _ := g.ProgramStats()
		if seen[v] && (st.DerivedTuples != stats[v].DerivedTuples || st.Iterations != stats[v].Iterations || st.Strata != stats[v].Strata) {
			return nil, fmt.Errorf("bench: tag %d derived %d tuples in %d rounds, earlier %d in %d",
				programTags[v], st.DerivedTuples, st.Iterations, stats[v].DerivedTuples, stats[v].Iterations)
		}
		stats[v], seen[v] = st, true
		return g, nil
	}
	r.op = func(v int) (any, error) { return run(v) }
	r.tracedOp = func(rec *recorder, opID, v int) (float64, error) {
		var g *graphgen.Graph
		var err error
		root := rec.begin(0, opID, "op."+classOp)
		// What the probes do not cover of this span is the extraction
		// of the Nodes/Edges statements over the derived tables.
		pub := rec.time(root, opID, "extract.handoff", func() { g, err = run(v) })
		whole := rec.end(root)
		if err != nil {
			return 0, err
		}
		r.keep = g
		return whole, probeProgram(rec, pub, opID, db, programs[v])
	}
	r.details = func(sum traceSummary) ([]detailMetric, error) {
		var iterations int
		var derived, peak int64
		for _, st := range stats {
			iterations += st.Iterations
			derived += st.DerivedTuples
			peak = max(peak, st.PeakIntermediateRows)
		}
		evalMS := sum.SpanSelfMS["datalogeval.eval"]
		return []detailMetric{
			{"datalog.parse_us", sum.SpanSelfMS["datalog.parse"] * 1e3, "us"},
			{"datalogeval.eval_ms", evalMS, "ms"},
			{"datalogeval.strata", float64(stats[0].Strata), "count"},
			{"datalogeval.iterations", float64(iterations), "count"},
			{"datalogeval.derived_tuples", float64(derived), "count"},
			{"datalogeval.derived_tuples_per_s", ratio(float64(derived)/float64(len(stats)), evalMS/1e3), "1/s"},
			{"datalogeval.peak_intermediate_rows", float64(peak), "count"},
			{"extract.handoff_ms", sum.SpanSelfMS["extract.handoff"], "ms"},
		}, nil
	}
	r.check = func() (int, int, error) {
		checked, mismatched := 0, 0
		for v, tag := range programTags {
			g, err := run(v)
			if err != nil {
				return checked, mismatched, err
			}
			vertices, pairs, err := closureOracle(db, tag)
			if err != nil {
				return checked, mismatched, err
			}
			checked += 2
			if g.NumVertices() != vertices {
				mismatched++
			}
			if g.LogicalEdges() != pairs {
				mismatched++
			}
		}
		return checked, mismatched, nil
	}
	if err := r.warm(1); err != nil {
		return nil, err
	}
	// Every tag extracts its own graph; the sizes are the last one's.
	r.info = describe(fmt.Sprintf("%s, graph of tag %d", snbName(p), programTags[len(programTags)-1]), db, r.keep.(*graphgen.Graph))
	return r, nil
}
