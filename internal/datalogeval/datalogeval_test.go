package datalogeval

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// --- fixtures ---

// edgeDB builds E(src, dst) plus N(id) listing every node.
func edgeDB(t *testing.T, n int, edges [][2]int64) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	nt, err := db.Create("N", relstore.Column{Name: "id", Type: relstore.Int})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < int64(n); i++ {
		if err := nt.Insert(relstore.IntVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	et, err := db.Create("E",
		relstore.Column{Name: "src", Type: relstore.Int},
		relstore.Column{Name: "dst", Type: relstore.Int})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := et.Insert(relstore.IntVal(e[0]), relstore.IntVal(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randomEdges samples m distinct directed edges over n nodes.
func randomEdges(rng *rand.Rand, n, m int) [][2]int64 {
	seen := make(map[[2]int64]struct{}, m)
	var out [][2]int64
	for len(out) < m {
		e := [2]int64{int64(rng.Intn(n)), int64(rng.Intn(n))}
		if e[0] == e[1] {
			continue
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}

// reachPairs computes the transitive closure of edges independently of the
// evaluator (per-source BFS over an adjacency list).
func reachPairs(n int, edges [][2]int64) map[[2]int64]struct{} {
	adj := make(map[int64][]int64)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	out := make(map[[2]int64]struct{})
	for s := int64(0); s < int64(n); s++ {
		visited := map[int64]struct{}{}
		queue := []int64{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if _, seen := visited[v]; seen {
					continue
				}
				visited[v] = struct{}{}
				out[[2]int64{s, v}] = struct{}{}
				queue = append(queue, v)
			}
		}
	}
	return out
}

const tcProgram = `
TC(A, B) :- E(A, B).
TC(A, C) :- TC(A, B), E(B, C).
Nodes(A) :- N(A).
Edges(A, B) :- TC(A, B).
`

func mustEval(t *testing.T, db *relstore.DB, src string, opts Options) *Result {
	t.Helper()
	ps, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(db, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rowKey renders a tuple in the evaluator's own tuple-set encoding.
func rowKey(row []relstore.Value) string {
	all := make([]int, len(row))
	for i := range all {
		all[i] = i
	}
	return string(relstore.AppendRowKey(nil, row, all))
}

// tableTuples returns a table's rows as sorted strings for comparison.
func tableTuples(t *testing.T, db *relstore.DB, name string) []string {
	t.Helper()
	tab, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(tab.Rows))
	for _, r := range tab.Rows {
		out = append(out, rowKey(r))
	}
	sort.Strings(out)
	return out
}

func equalTuples(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- correctness ---

// TestTransitiveClosureRandomized asserts the evaluator's fixpoint equals
// an independently computed transitive closure on randomized graphs, for
// both the semi-naive and naive modes and several worker counts.
func TestTransitiveClosureRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		edges := randomEdges(rng, n, n+rng.Intn(2*n))
		want := reachPairs(n, edges)

		var first []string
		for _, opt := range []Options{{}, {Naive: true}, {ExecOpts: relstore.ExecOpts{Workers: 1}}, {ExecOpts: relstore.ExecOpts{Workers: 4}}} {
			res := mustEval(t, edgeDB(t, n, edges), tcProgram, opt)
			got := tableTuples(t, res.DB, "tc")
			if len(got) != len(want) {
				t.Fatalf("seed %d opts %+v: %d tuples, want %d", seed, opt, len(got), len(want))
			}
			for pair := range want {
				key := rowKey([]relstore.Value{relstore.IntVal(pair[0]), relstore.IntVal(pair[1])})
				if i := sort.SearchStrings(got, key); i >= len(got) || got[i] != key {
					t.Fatalf("seed %d opts %+v: missing tuple %v", seed, opt, pair)
				}
			}
			if first == nil {
				first = got
			} else if !equalTuples(first, got) {
				t.Fatalf("seed %d: opts %+v computed a different relation", seed, opt)
			}
			if res.Stats.DerivedTuples != int64(len(want)) {
				t.Fatalf("seed %d: DerivedTuples = %d, want %d", seed, res.Stats.DerivedTuples, len(want))
			}
		}
	}
}

func TestStratifiedNegation(t *testing.T) {
	// NotDirect = pairs reachable but not adjacent.
	rng := rand.New(rand.NewSource(7))
	n := 25
	edges := randomEdges(rng, n, 40)
	db := edgeDB(t, n, edges)
	res := mustEval(t, db, `
TC(A, B) :- E(A, B).
TC(A, C) :- TC(A, B), E(B, C).
NotDirect(A, B) :- TC(A, B), !E(A, B).
Nodes(A) :- N(A).
Edges(A, B) :- NotDirect(A, B).
`, Options{})
	direct := make(map[[2]int64]struct{})
	for _, e := range edges {
		direct[e] = struct{}{}
	}
	want := make(map[[2]int64]struct{})
	for p := range reachPairs(n, edges) {
		if _, d := direct[p]; !d {
			want[p] = struct{}{}
		}
	}
	got := tableTuples(t, res.DB, "notdirect")
	if len(got) != len(want) {
		t.Fatalf("notdirect = %d tuples, want %d", len(got), len(want))
	}
	if res.Stats.Strata != 2 {
		t.Fatalf("strata = %d, want 2", res.Stats.Strata)
	}
}

func TestComparisonLiterals(t *testing.T) {
	db := relstore.NewDB()
	rt, _ := db.Create("R",
		relstore.Column{Name: "a", Type: relstore.Int},
		relstore.Column{Name: "b", Type: relstore.Int})
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			if err := rt.Insert(relstore.IntVal(a), relstore.IntVal(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res := mustEval(t, db, `
P(A, B) :- R(A, B), A < B, B <= 7, A != 2.
Nodes(A) :- R(A, _).
Edges(A, B) :- P(A, B).
`, Options{})
	count := 0
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			if a < b && b <= 7 && a != 2 {
				count++
			}
		}
	}
	if got := tableTuples(t, res.DB, "p"); len(got) != count {
		t.Fatalf("p = %d tuples, want %d", len(got), count)
	}
}

func TestMutualRecursion(t *testing.T) {
	// Even/Odd over a successor chain 0..9.
	db := relstore.NewDB()
	zt, _ := db.Create("Zero", relstore.Column{Name: "id", Type: relstore.Int})
	_ = zt.Insert(relstore.IntVal(0))
	st, _ := db.Create("Succ",
		relstore.Column{Name: "a", Type: relstore.Int},
		relstore.Column{Name: "b", Type: relstore.Int})
	for i := int64(0); i < 9; i++ {
		_ = st.Insert(relstore.IntVal(i), relstore.IntVal(i+1))
	}
	res := mustEval(t, db, `
Even(A) :- Zero(A).
Even(B) :- Odd(A), Succ(A, B).
Odd(B) :- Even(A), Succ(A, B).
Nodes(A) :- Succ(A, _).
Edges(A, B) :- Succ(A, B).
`, Options{})
	if got := tableTuples(t, res.DB, "even"); len(got) != 5 {
		t.Fatalf("even = %d tuples, want 5", len(got))
	}
	if got := tableTuples(t, res.DB, "odd"); len(got) != 5 {
		t.Fatalf("odd = %d tuples, want 5", len(got))
	}
	if res.Stats.Strata != 1 {
		t.Fatalf("strata = %d, want 1 (mutual recursion)", res.Stats.Strata)
	}
}

func TestStringValuesAndConstants(t *testing.T) {
	db := relstore.NewDB()
	pt, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "role", Type: relstore.String})
	_ = pt.Insert(relstore.IntVal(1), relstore.StrVal("prof"))
	_ = pt.Insert(relstore.IntVal(2), relstore.StrVal("student"))
	_ = pt.Insert(relstore.IntVal(3), relstore.StrVal("prof"))
	res := mustEval(t, db, `
Prof(A, 'faculty') :- Person(A, 'prof').
Nodes(A) :- Person(A, _).
Edges(A, B) :- Prof(A, _), Prof(B, _), A != B.
`, Options{})
	got := tableTuples(t, res.DB, "prof")
	if len(got) != 2 {
		t.Fatalf("prof = %v, want 2 tuples", got)
	}
	tab, _ := res.DB.Table("prof")
	if tab.Cols[1].Type != relstore.String {
		t.Fatal("inferred type of constant head column should be String")
	}
	// The desugared Edges rule (comparison in an extraction body) must
	// reference a synthetic predicate.
	if res.Program.Edges[0].Body[0].Pred != "__extract_body_1" {
		t.Fatalf("edges body = %v, want desugared synthetic atom", res.Program.Edges[0].Body)
	}
	if got := tableTuples(t, res.DB, "__extract_body_1"); len(got) != 2 {
		t.Fatalf("aux table = %v, want 2 tuples (1-3, 3-1)", got)
	}
}

func TestCrossProductBody(t *testing.T) {
	db := edgeDB(t, 4, [][2]int64{{0, 1}, {2, 3}})
	res := mustEval(t, db, `
Pair(A, B) :- E(A, _), E(B, _).
Nodes(A) :- N(A).
Edges(A, B) :- Pair(A, B).
`, Options{})
	if got := tableTuples(t, res.DB, "pair"); len(got) != 4 {
		t.Fatalf("pair = %d tuples, want 4 (cross product of {0,2})", len(got))
	}
}

// --- guards and diagnostics ---

func TestMaxDerivedTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randomEdges(rng, 30, 60)
	ps, err := datalog.ParseProgram(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Evaluate(edgeDB(t, 30, edges), ps, Options{MaxDerivedTuples: 10})
	if !errors.Is(err, ErrTooManyDerived) {
		t.Fatalf("err = %v, want ErrTooManyDerived", err)
	}
}

func TestBaseTableCollision(t *testing.T) {
	db := edgeDB(t, 3, [][2]int64{{0, 1}})
	ps, err := datalog.ParseProgram(`
E(A, B) :- N(A), N(B).
Nodes(A) :- N(A).
Edges(A, B) :- E(A, B).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(db, ps, Options{}); err == nil {
		t.Fatal("derived predicate shadowing base table must fail")
	}
}

func TestUnknownPredicate(t *testing.T) {
	db := edgeDB(t, 3, [][2]int64{{0, 1}})
	ps, err := datalog.ParseProgram(`
P(A) :- Missing(A).
Nodes(A) :- N(A).
Edges(A, B) :- P(A), P(B).
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Evaluate(db, ps, Options{})
	if err == nil || !errors.As(err, new(*datalog.SyntaxError)) && err.Error() == "" {
		t.Fatalf("err = %v", err)
	}
}

func TestMixedTypeDerivationRejected(t *testing.T) {
	db := relstore.NewDB()
	it, _ := db.Create("I", relstore.Column{Name: "a", Type: relstore.Int})
	_ = it.Insert(relstore.IntVal(1))
	st, _ := db.Create("S", relstore.Column{Name: "a", Type: relstore.String})
	_ = st.Insert(relstore.StrVal("x"))
	ps, err := datalog.ParseProgram(`
P(A) :- I(A).
P(A) :- S(A).
Nodes(A) :- I(A).
Edges(A, B) :- P(A), P(B).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(db, ps, Options{}); err == nil {
		t.Fatal("mixed-type derivation must be rejected")
	}
}

func TestStratifyDiagnosticsSurface(t *testing.T) {
	db := edgeDB(t, 3, [][2]int64{{0, 1}})
	ps, err := datalog.ParseProgram(`
P(A) :- N(A), !P(A).
Nodes(A) :- N(A).
Edges(A, B) :- P(A), P(B).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(db, ps, Options{}); err == nil {
		t.Fatal("negation cycle must surface through Evaluate")
	}
}

// --- semi-naive vs naive performance ---

// coauthorChainDB builds the DBLP-like benchmark relation: Author(id,
// name) and AuthorPub(aid, pid) where publication i is co-authored by
// authors i and i+1, forming a collaboration chain whose reachability
// closure needs ~n iterations — the workload where semi-naive evaluation
// pays.
func coauthorChainDB(n int) *relstore.DB {
	db := relstore.NewDB()
	at, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ap, _ := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	for i := 0; i < n; i++ {
		_ = at.Insert(relstore.IntVal(int64(i)), relstore.StrVal(fmt.Sprintf("author-%d", i)))
	}
	for p := 0; p < n-1; p++ {
		_ = ap.Insert(relstore.IntVal(int64(p)), relstore.IntVal(int64(p)))
		_ = ap.Insert(relstore.IntVal(int64(p+1)), relstore.IntVal(int64(p)))
	}
	return db
}

const reachProgram = `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Nodes(ID, Name) :- Author(ID, Name).
Edges(A, B) :- Reach(A, B).
`

// TestSemiNaiveSpeedup asserts the acceptance criterion: on the DBLP-like
// reachability workload the semi-naive loop is at least 5x faster than the
// naive re-evaluation loop (measured ratios are far higher; 5x leaves
// headroom for noisy CI runners).
func TestSemiNaiveSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	n := 90
	ps, err := datalog.ParseProgram(reachProgram)
	if err != nil {
		t.Fatal(err)
	}
	run := func(naive bool) (time.Duration, *Result) {
		db := coauthorChainDB(n)
		start := time.Now()
		res, err := Evaluate(db, ps, Options{Naive: naive, ExecOpts: relstore.ExecOpts{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	// Warm up once to stabilize allocator state, then measure.
	run(false)
	semiDur, semi := run(false)
	naiveDur, naive := run(true)
	if !equalTuples(tableTuples(t, semi.DB, "reach"), tableTuples(t, naive.DB, "reach")) {
		t.Fatal("semi-naive and naive disagree")
	}
	// Chain: every ordered pair reachable, including A->A via a round
	// trip through any coauthor.
	want := int64(n * n)
	if semi.Stats.DerivedTuples != naive.Stats.DerivedTuples {
		t.Fatalf("derived: semi %d vs naive %d", semi.Stats.DerivedTuples, naive.Stats.DerivedTuples)
	}
	if got := tableTuples(t, semi.DB, "reach"); int64(len(got)) != want {
		t.Fatalf("reach = %d tuples, want %d", len(got), want)
	}
	ratio := float64(naiveDur) / float64(semiDur)
	t.Logf("naive %v / semi-naive %v = %.1fx (semi %d iters, naive %d iters)",
		naiveDur, semiDur, ratio, semi.Stats.Iterations, naive.Stats.Iterations)
	if ratio < 5 {
		t.Fatalf("semi-naive only %.1fx faster than naive, want >= 5x", ratio)
	}
}

// BenchmarkDatalogEval times recursive co-authorship reachability on the
// DBLP-like chain, semi-naive (the shipping configuration) vs the naive
// re-evaluation baseline. Evaluation adds derived tables to the database,
// so each iteration builds a fresh one with the timer (and the
// allocation count) stopped.
func BenchmarkDatalogEval(b *testing.B) {
	ps, err := datalog.ParseProgram(reachProgram)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name  string
		naive bool
	}{
		{"SemiNaive", false},
		{"Naive", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := coauthorChainDB(120)
				b.StartTimer()
				if _, err := Evaluate(db, ps, Options{Naive: cfg.naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPipeDelimiterStrings is the regression test for the rowKey encoding:
// string values containing the key delimiter must not make distinct tuples
// collide (and silently drop) in derived tables or negation sets.
func TestPipeDelimiterStrings(t *testing.T) {
	db := relstore.NewDB()
	rt, _ := db.Create("R",
		relstore.Column{Name: "a", Type: relstore.String},
		relstore.Column{Name: "b", Type: relstore.String})
	// Both rows would encode to "sa|sb|sc|" under a naive delimiter scheme.
	_ = rt.Insert(relstore.StrVal("a|sb"), relstore.StrVal("c"))
	_ = rt.Insert(relstore.StrVal("a"), relstore.StrVal("b|sc"))
	st, _ := db.Create("S",
		relstore.Column{Name: "a", Type: relstore.String},
		relstore.Column{Name: "b", Type: relstore.String})
	_ = st.Insert(relstore.StrVal("a|sb"), relstore.StrVal("c"))
	nt, _ := db.Create("N", relstore.Column{Name: "id", Type: relstore.Int})
	_ = nt.Insert(relstore.IntVal(1))
	res := mustEval(t, db, `
P(A, B) :- R(A, B).
Q(A, B) :- R(A, B), !S(A, B).
Nodes(A) :- N(A).
Edges(A, B) :- N(A), N(B).
`, Options{})
	if got := tableTuples(t, res.DB, "p"); len(got) != 2 {
		t.Fatalf("p = %d tuples, want 2 (delimiter collision dropped one)", len(got))
	}
	// Negation must remove only the exact matching tuple, not its
	// delimiter-twin.
	q := tableTuples(t, res.DB, "q")
	if len(q) != 1 {
		t.Fatalf("q = %d tuples, want 1", len(q))
	}
	if q[0] != rowKey([]relstore.Value{relstore.StrVal("a"), relstore.StrVal("b|sc")}) {
		t.Fatalf("q kept the wrong tuple: %q", q[0])
	}
}

// TestMaxDerivedTuplesBoundsIntermediates: the budget must also stop a
// rule whose joins explode even though its distinct output is tiny (the
// disconnected cross-product below outputs <= n tuples but materializes
// n^3 intermediate rows).
func TestMaxDerivedTuplesBoundsIntermediates(t *testing.T) {
	db := relstore.NewDB()
	rt, _ := db.Create("R", relstore.Column{Name: "a", Type: relstore.Int})
	for i := int64(0); i < 200; i++ {
		_ = rt.Insert(relstore.IntVal(i))
	}
	ps, err := datalog.ParseProgram(`
P(A) :- R(A), R(B), R(C).
Nodes(A) :- R(A).
Edges(A, B) :- P(A), P(B).
`)
	if err != nil {
		t.Fatal(err)
	}
	// 200^2 = 40k intermediate rows after the first cross join already
	// exceeds 16 x 100; without the intermediate check the 8M-row cross
	// product would fully materialize (distinct P output is only 200).
	_, err = Evaluate(db, ps, Options{MaxDerivedTuples: 100})
	if !errors.Is(err, ErrTooManyDerived) {
		t.Fatalf("err = %v, want ErrTooManyDerived from the intermediate guard", err)
	}
}

// TestNegationCacheCaseSensitivity: negated atoms differing only in the
// case of a string constant (or a variable name) must not share a
// membership set.
func TestNegationCacheCaseSensitivity(t *testing.T) {
	db := relstore.NewDB()
	ft, _ := db.Create("Foo", relstore.Column{Name: "x", Type: relstore.Int})
	_ = ft.Insert(relstore.IntVal(1))
	_ = ft.Insert(relstore.IntVal(2))
	bt, _ := db.Create("Bar",
		relstore.Column{Name: "x", Type: relstore.Int},
		relstore.Column{Name: "s", Type: relstore.String})
	_ = bt.Insert(relstore.IntVal(1), relstore.StrVal("ABC"))
	_ = bt.Insert(relstore.IntVal(2), relstore.StrVal("abc"))
	res := mustEval(t, db, `
P(X) :- Foo(X), !Bar(X, 'ABC').
P(X) :- Foo(X), !Bar(X, 'abc').
Q(Y) :- Foo(Y), !Bar(Y, 'ABC').
Q(y) :- Foo(y), !Bar(y, 'abc').
Nodes(X) :- Foo(X).
Edges(A, B) :- P(A), P(B).
`, Options{})
	// 1 fails !Bar(1,'ABC') but passes !Bar(1,'abc'); 2 vice versa.
	if got := tableTuples(t, res.DB, "p"); len(got) != 2 {
		t.Fatalf("p = %v, want both tuples (cache conflated 'ABC'/'abc')", got)
	}
	// Same pattern with different variable case must also work.
	if got := tableTuples(t, res.DB, "q"); len(got) != 2 {
		t.Fatalf("q = %v, want both tuples (cache conflated variable case)", got)
	}
}

// TestCaseDistinctVariables: `A` and `a` are different variables — the
// body below is a cross product, not an equi-join on a case-folded name.
func TestCaseDistinctVariables(t *testing.T) {
	db := relstore.NewDB()
	rt, _ := db.Create("R", relstore.Column{Name: "x", Type: relstore.Int})
	_ = rt.Insert(relstore.IntVal(1))
	_ = rt.Insert(relstore.IntVal(2))
	st, _ := db.Create("S", relstore.Column{Name: "x", Type: relstore.Int})
	_ = st.Insert(relstore.IntVal(3))
	_ = st.Insert(relstore.IntVal(4))
	res := mustEval(t, db, `
P(A, a) :- R(A), S(a).
Q(A) :- R(A), S(a), A < a.
Nodes(X) :- R(X).
Edges(X, Y) :- R(X), R(Y).
`, Options{})
	if got := tableTuples(t, res.DB, "p"); len(got) != 4 {
		t.Fatalf("p = %v, want the full 2x2 cross product", got)
	}
	// The comparison binds each operand to its own column: every R value
	// is below every S value.
	if got := tableTuples(t, res.DB, "q"); len(got) != 2 {
		t.Fatalf("q = %v, want {1, 2}", got)
	}
}

// rowStrings returns a table's rows rendered in table order (order
// matters: the indexed and unindexed evaluations must materialize the
// same tuples in the same sequence, not just the same set).
func rowStrings(t *testing.T, db *relstore.DB, name string) []string {
	t.Helper()
	tab, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(tab.Rows))
	for _, r := range tab.Rows {
		out = append(out, rowKey(r))
	}
	return out
}

// TestIndexedEvalEquivalence asserts the index-backed access paths change
// nothing about evaluation: on randomized graphs, the derived tables of
// the indexed and IndexOff runs are row-for-row identical (order
// included), as are the evaluation statistics, for recursive,
// negation-bearing, and comparison-bearing programs.
func TestIndexedEvalEquivalence(t *testing.T) {
	programs := []string{
		tcProgram,
		`
TC(A, B) :- E(A, B).
TC(A, C) :- TC(A, B), E(B, C).
Unreached(A, B) :- N(A), N(B), !TC(A, B), A != B.
Nodes(A) :- N(A).
Edges(A, B) :- Unreached(A, B).
`,
		`
Fwd(A, B) :- E(A, B), A < B.
Hop2(A, C) :- Fwd(A, B), Fwd(B, C).
Nodes(A) :- N(A).
Edges(A, C) :- Hop2(A, C).
`,
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(10)
		db := edgeDB(t, n, randomEdges(rng, n, 3*n))
		for pi, src := range programs {
			indexed := mustEval(t, db, src, Options{ExecOpts: relstore.ExecOpts{Workers: 2}})
			scan := mustEval(t, db, src, Options{ExecOpts: relstore.ExecOpts{Workers: 2, UseIndex: relstore.IndexOff}})
			if indexed.Stats.DerivedTuples != scan.Stats.DerivedTuples ||
				indexed.Stats.Iterations != scan.Stats.Iterations ||
				indexed.Stats.Strata != scan.Stats.Strata {
				t.Fatalf("seed %d program %d: stats diverge: indexed %+v vs scan %+v",
					seed, pi, indexed.Stats, scan.Stats)
			}
			for _, name := range indexed.DB.TableNames() {
				base, errBase := db.Table(name)
				if errBase == nil {
					it, _ := indexed.DB.Table(name)
					if it == base {
						continue // shared base table, not a derived one
					}
				}
				got := rowStrings(t, indexed.DB, name)
				want := rowStrings(t, scan.DB, name)
				if len(got) != len(want) {
					t.Fatalf("seed %d program %d: derived %s has %d rows indexed, %d unindexed", seed, pi, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d program %d: derived %s row %d differs: %q vs %q", seed, pi, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestIndexedSemiNaiveAgainstNaive crosses both switches: the indexed
// semi-naive evaluation must match the unindexed naive evaluation tuple
// for tuple on randomized graphs.
func TestIndexedSemiNaiveAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 15
	db := edgeDB(t, n, randomEdges(rng, n, 40))
	fast := mustEval(t, db, tcProgram, Options{ExecOpts: relstore.ExecOpts{Workers: 3}})
	slow := mustEval(t, db, tcProgram, Options{Naive: true, ExecOpts: relstore.ExecOpts{UseIndex: relstore.IndexOff}})
	if !equalTuples(tableTuples(t, fast.DB, "TC"), tableTuples(t, slow.DB, "TC")) {
		t.Fatal("indexed semi-naive TC differs from unindexed naive TC")
	}
}

// TestNoStreamEquivalence runs a recursive program through the default
// streaming pipelines and through relstore.MaterializingOracle on
// randomized graphs, crossed with the naive/index/worker switches. The
// derived relations must match tuple for tuple, and both modes must
// report a positive intermediate-row peak — the streaming one from
// operator-held state, the oracle's from whole staged relations.
func TestNoStreamEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 15 + rng.Intn(20)
		db := edgeDB(t, n, randomEdges(rng, n, n+rng.Intn(2*n)))
		for _, base := range []Options{{}, {Naive: true}, {ExecOpts: relstore.ExecOpts{UseIndex: relstore.IndexOff}}, {ExecOpts: relstore.ExecOpts{Workers: 4}}} {
			streaming := mustEval(t, db, tcProgram, base)
			oracle := base
			oracle.ExecOpts = relstore.MaterializingOracle(base.ExecOpts)
			materializing := mustEval(t, db, tcProgram, oracle)
			if !equalTuples(tableTuples(t, streaming.DB, "TC"), tableTuples(t, materializing.DB, "TC")) {
				t.Fatalf("seed %d opts %+v: the oracle computed a different TC relation", seed, base)
			}
			sp := streaming.Stats.PeakIntermediateRows
			mp := materializing.Stats.PeakIntermediateRows
			if sp <= 0 || mp <= 0 {
				t.Fatalf("seed %d opts %+v: peak tracking dead (streaming=%d, oracle=%d)", seed, base, sp, mp)
			}
			if sp > mp {
				t.Errorf("seed %d opts %+v: streaming peak %d exceeds materializing peak %d", seed, base, sp, mp)
			}
		}
	}
}
