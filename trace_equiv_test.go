package graphgen

// Equivalence and overhead tests for operator-span tracing: a traced
// extraction must produce a graph row-for-row identical to an untraced
// one (tracing observes the pipeline, never steers it), concurrent
// traced queries must not share spans, a program profile's delta-round
// row totals must reconcile with the evaluator's own statistics, and
// the nil-Trace fast path must stay cheap enough that tracing-off costs
// nothing measurable.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/experiments"
	"graphgen/internal/extract"
	"graphgen/internal/obs"
	"graphgen/internal/relstore"
)

// TestTracedExtractionEquivalenceTable1 checks traced == untraced across
// the Table 1 workloads in both planner modes, and that the traced run
// actually recorded a non-trivial span tree (the equivalence would be
// vacuous if tracing silently stayed off).
func TestTracedExtractionEquivalenceTable1(t *testing.T) {
	var earlyDistinct int
	for _, d := range experiments.Table1Datasets(experiments.Scale{Quick: true}) {
		for _, condensed := range []bool{true, false} {
			opts := extract.DefaultOptions()
			opts.ForceCondensed = condensed
			opts.ForceExpand = !condensed
			untraced := extractFingerprint(t, d.DB, d.Query, opts)

			opts.Trace = obs.NewTrace()
			traced := extractFingerprint(t, d.DB, d.Query, opts)
			if traced != untraced {
				t.Errorf("%s (condensed=%t): traced extraction differs from untraced", d.Name, condensed)
			}

			root := opts.Trace.Finish()
			if root == nil || root.Op != "query" || len(root.Children) == 0 {
				t.Fatalf("%s: traced run recorded no span tree", d.Name)
			}
			var operators, rows int64
			root.Walk(func(s *Profile) {
				switch s.Op {
				case "scan", "select", "filter", "join", "hash_join", "cross", "table_join", "project":
					operators++
					rows += s.Rows
				}
				// The early duplicate-elimination stage behind a pruned
				// join is a project span accounting rows in and out.
				if s.Op == "project" && s.Strategy == "distinct early" {
					earlyDistinct++
					if in, ok := s.Attrs["rows_in"]; !ok || in < s.Rows {
						t.Errorf("%s: early distinct span %q: rows_in %d (present %t), rows out %d", d.Name, s.Detail, in, ok, s.Rows)
					}
				}
			})
			if operators == 0 {
				t.Errorf("%s: profile has no operator spans", d.Name)
			}
			if rows == 0 {
				t.Errorf("%s: operator spans recorded zero rows", d.Name)
			}
		}
	}
	if earlyDistinct == 0 {
		t.Error("no Table 1 plan recorded an early distinct stage: the forced-expand multi-atom bodies should")
	}
}

// TestTracedExtractionEquivalenceRandomized compares traced vs untraced
// extraction over randomized membership databases and random constant
// predicates — the same plan space the index equivalence suite walks, now
// with the span collector armed.
func TestTracedExtractionEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := relstore.NewDB()
		ent, _ := db.Create("Ent", relstore.Column{Name: "id", Type: relstore.Int}, relstore.Column{Name: "name", Type: relstore.String})
		mem, _ := db.Create("Mem", relstore.Column{Name: "eid", Type: relstore.Int}, relstore.Column{Name: "gid", Type: relstore.Int}, relstore.Column{Name: "kind", Type: relstore.Int})
		nEnt := 40 + rng.Intn(40)
		for i := 1; i <= nEnt; i++ {
			ent.Insert(relstore.IntVal(int64(i)), relstore.StrVal(fmt.Sprintf("e%d", i)))
		}
		for i := 0; i < 600; i++ {
			mem.Insert(relstore.IntVal(int64(rng.Intn(nEnt)+1)), relstore.IntVal(int64(rng.Intn(25)+1)), relstore.IntVal(int64(rng.Intn(4))))
		}
		queries := []string{
			`Nodes(ID, N) :- Ent(ID, N).
Edges(A, B) :- Mem(A, G, k), Mem(B, G, k).`,
			fmt.Sprintf(`Nodes(ID, N) :- Ent(ID, N).
Edges(A, B) :- Mem(A, G, %d), Mem(B, G, %d).`, rng.Intn(4), rng.Intn(4)),
		}
		for qi, query := range queries {
			opts := extract.DefaultOptions()
			untraced := extractFingerprint(t, db, query, opts)
			opts.Trace = obs.NewTrace()
			traced := extractFingerprint(t, db, query, opts)
			if traced != untraced {
				t.Errorf("seed %d query %d: traced differs from untraced", seed, qi)
			}
		}
	}
}

// TestConcurrentTracedQueries runs many traced extractions at once,
// each against its own engine (relational tables are not internally
// synchronized — the serving layer serializes extraction under dbMu,
// so one engine per goroutine matches the supported pattern). Each
// call gets its own WithProfile collector, so the profiles must be
// distinct trees with the right shape — and under -race this doubles
// as the proof that per-query traces share nothing.
func TestConcurrentTracedQueries(t *testing.T) {
	const goroutines = 8
	profiles := make([]*Profile, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewEngine(datagen.DBLPLike(17, 100, 160))
			g, err := e.Extract(datagen.QueryCoauthors, WithProfile())
			if err != nil {
				t.Error(err)
				return
			}
			profiles[i] = g.Profile()
		}(i)
	}
	wg.Wait()
	seen := make(map[*Profile]bool)
	for i, p := range profiles {
		if p == nil {
			t.Fatalf("goroutine %d: traced extraction returned nil profile", i)
		}
		if p.Op != "query" || len(p.Children) == 0 {
			t.Errorf("goroutine %d: malformed profile root %q", i, p.Op)
		}
		if seen[p] {
			t.Errorf("goroutine %d: profile tree shared between queries", i)
		}
		seen[p] = true
	}
}

// reachabilityTraceProgram is a recursive program whose semi-naive
// evaluation runs several delta rounds — the reconciliation workload.
const reachabilityTraceProgram = `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Nodes(ID, N) :- Author(ID, N).
Edges(A, B) :- Reach(A, B).
`

// TestProgramProfileReconciliation pins the ANALYZE tree to the
// evaluator's own accounting: every tuple the program derives is
// attributed to exactly one seed/delta round span, so the round spans'
// row totals must sum to EvalStats.DerivedTuples.
func TestProgramProfileReconciliation(t *testing.T) {
	db := datagen.DBLPLike(13, 80, 130)
	g, err := NewEngine(db).ExtractProgram(reachabilityTraceProgram, WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	p := g.Profile()
	if p == nil {
		t.Fatal("ExtractProgram under WithProfile returned no profile")
	}
	stats, ok := g.ProgramStats()
	if !ok {
		t.Fatal("program graph lost its EvalStats")
	}
	var roundRows int64
	var rounds, strata int
	p.Walk(func(s *Profile) {
		switch s.Op {
		case "round":
			rounds++
			roundRows += s.Rows
		case "stratum":
			strata++
		}
	})
	if strata == 0 || rounds < 2 {
		t.Fatalf("profile shape too thin: %d strata, %d rounds", strata, rounds)
	}
	if roundRows != stats.DerivedTuples {
		t.Errorf("round spans account for %d rows, EvalStats.DerivedTuples = %d", roundRows, stats.DerivedTuples)
	}
	if stats.DerivedTuples == 0 {
		t.Error("reconciliation is vacuous: program derived no tuples")
	}
}

// TestProgramTracedEquivalence: tracing a recursive program must not
// change its graph or its evaluation statistics.
func TestProgramTracedEquivalence(t *testing.T) {
	db := datagen.DBLPLike(29, 90, 140)
	e := NewEngine(db)
	plain, err := e.ExtractProgram(reachabilityTraceProgram)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := e.ExtractProgram(reachabilityTraceProgram, WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	if coreFingerprint(plain.c) != coreFingerprint(traced.c) {
		t.Error("traced program graph differs from untraced")
	}
	sp, _ := plain.ProgramStats()
	st, _ := traced.ProgramStats()
	sp.Duration, st.Duration = 0, 0 // wall time is the one field allowed to differ
	if sp != st {
		t.Errorf("eval stats diverge under tracing: %+v vs %+v", sp, st)
	}
	if plain.Profile() != nil {
		t.Error("untraced program carries a profile")
	}
}

// traceOverheadWorkload is sized so one extraction takes long enough to
// time but short enough to repeat.
func traceOverheadWorkload() (*relstore.DB, *datalog.Program) {
	db := datagen.DBLPLike(7, 300, 500)
	prog, err := datalog.Parse(datagen.QueryCoauthors)
	if err != nil {
		panic(err)
	}
	return db, prog
}

// TestTraceOverhead is the coarse in-tree guard for the tracing-off
// contract: with Options.Trace nil the per-operator cost is one pointer
// test, so an untraced run must not be slower than a traced run by more
// than the generous 3x bound (timing noise on shared CI is the reason
// for the slack; BenchmarkTraceOverhead is the precise gauge).
func TestTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	db, prog := traceOverheadWorkload()
	run := func(traced bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			opts := extract.DefaultOptions()
			if traced {
				opts.Trace = obs.NewTrace()
			}
			start := time.Now()
			if _, err := extract.Extract(db, prog, opts); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	run(false) // warm caches and indexes
	off := run(false)
	on := run(true)
	if off > 3*on {
		t.Errorf("untraced extraction (%v) over 3x slower than traced (%v): nil-Trace fast path regressed", off, on)
	}
	t.Logf("extraction best-of-3: untraced %v, traced %v", off, on)
}

// BenchmarkTraceOverhead times the same extraction with tracing off and
// on. The Off arm is the number the ≤5% overhead contract is judged
// against; the On arm prices a full span tree.
func BenchmarkTraceOverhead(b *testing.B) {
	db, prog := traceOverheadWorkload()
	for _, mode := range []struct {
		name   string
		traced bool
	}{{"Off", false}, {"On", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := extract.DefaultOptions()
				if mode.traced {
					opts.Trace = obs.NewTrace()
				}
				if _, err := extract.Extract(db, prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
