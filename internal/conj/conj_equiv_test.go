package conj_test

// The three callers of conj.Plan are one evaluator only if the evaluator
// itself is right for every plan shape they can build. This file drives
// random bodies through Open three ways — streaming, under the
// materialize-every-stage oracle, and through a nested-loop reference
// written here against bare row slices (it shares no code with relstore's
// operators) — and pins the per-occurrence delta decomposition that
// incremental maintenance builds out of row-source substitution.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphgen/internal/conj"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// --- random databases and bodies ---

var (
	intDomain = []int64{1, 2, 3, 4, 5, 6}
	// Strings carrying the key encoding's separator and digit prefixes:
	// a sloppy composite key would conflate some of these.
	strDomain = []string{"a", "b|c", "1x", "|", "a|b", "12"}
)

type schema struct {
	name  string
	types []relstore.Type
}

// The positive tables, and N, which only negated atoms read (so the delta
// property never mutates a table a negation depends on).
var (
	posTables = []schema{
		{"R", []relstore.Type{relstore.Int, relstore.Int, relstore.String}},
		{"S", []relstore.Type{relstore.Int, relstore.String}},
		{"T", []relstore.Type{relstore.Int, relstore.Int}},
	}
	negTable = schema{"N", []relstore.Type{relstore.Int, relstore.String}}
)

func randValue(rng *rand.Rand, ty relstore.Type) relstore.Value {
	if ty == relstore.Int {
		return relstore.IntVal(intDomain[rng.Intn(len(intDomain))])
	}
	return relstore.StrVal(strDomain[rng.Intn(len(strDomain))])
}

func randRow(rng *rand.Rand, s schema) []relstore.Value {
	row := make([]relstore.Value, len(s.types))
	for c, ty := range s.types {
		row[c] = randValue(rng, ty)
	}
	return row
}

// randDB fills every table with 15-60 rows drawn from the small domains
// (duplicates included) and indexes every column.
func randDB(t *testing.T, rng *rand.Rand) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	for _, s := range append(slices.Clone(posTables), negTable) {
		cols := make([]relstore.Column, len(s.types))
		for c, ty := range s.types {
			cols[c] = relstore.Column{Name: fmt.Sprintf("c%d", c), Type: ty}
		}
		tbl, err := db.Create(s.name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		for n := 15 + rng.Intn(46); n > 0; n-- {
			row := randRow(rng, s)
			if err := tbl.Insert(row...); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(8) == 0 { // an exact duplicate row
				if err := tbl.Insert(row...); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, c := range cols {
			if _, err := tbl.CreateIndex(c.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// body is one random conjunctive body.
type body struct {
	atoms []datalog.Atom
	comps []datalog.Comparison
	negs  []datalog.Atom
	out   []string
}

func (b body) String() string {
	r := datalog.Rule{Head: datalog.Atom{Pred: "Out"}, Body: b.atoms, Negated: b.negs, Comps: b.comps}
	for _, v := range b.out {
		r.Head.Terms = append(r.Head.Terms, datalog.Term{Kind: datalog.TermVar, Var: v})
	}
	return r.String()
}

func constTerm(v relstore.Value) datalog.Term {
	if v.T == relstore.Int {
		return datalog.Term{Kind: datalog.TermInt, Int: v.I}
	}
	return datalog.Term{Kind: datalog.TermString, Str: v.S}
}

// randBody draws 2-5 positive atoms (at most three occurrences of one
// table) whose terms are variables from small typed pools, constants,
// wildcards and repeated variables; with probability 1/4 the last atom
// draws from a disjoint pool and so forms a disconnected component. 0-2
// comparisons and 0-1 negated atoms range over the bound variables.
func randBody(rng *rand.Rand) body {
	pools := [2]map[relstore.Type][]string{
		{relstore.Int: {"A", "B", "C", "D"}, relstore.String: {"P", "Q"}},
		{relstore.Int: {"U", "V"}, relstore.String: {"W"}},
	}
	varType := map[string]relstore.Type{}
	var bound []string
	term := func(pool int, ty relstore.Type, inAtom []string) datalog.Term {
		switch r := rng.Intn(20); {
		case r < 3:
			return constTerm(randValue(rng, ty))
		case r < 6:
			return datalog.Term{Kind: datalog.TermWildcard}
		case r < 9:
			for _, v := range inAtom { // repeat a variable of this atom
				if varType[v] == ty {
					return datalog.Term{Kind: datalog.TermVar, Var: v}
				}
			}
		}
		p := pools[pool][ty]
		return datalog.Term{Kind: datalog.TermVar, Var: p[rng.Intn(len(p))]}
	}
	var b body
	n := 2 + rng.Intn(4)
	uses := map[string]int{}
	for i := 0; i < n; i++ {
		s := posTables[rng.Intn(len(posTables))]
		for uses[s.name] == 3 {
			s = posTables[rng.Intn(len(posTables))]
		}
		uses[s.name]++
		pool := 0
		if i == n-1 && rng.Intn(4) == 0 {
			pool = 1
		}
		a := datalog.Atom{Pred: s.name, Line: 1, Col: i + 1}
		var inAtom []string
		for _, ty := range s.types {
			tm := term(pool, ty, inAtom)
			if tm.Kind == datalog.TermVar {
				varType[tm.Var] = ty
				inAtom = append(inAtom, tm.Var)
				if !slices.Contains(bound, tm.Var) {
					bound = append(bound, tm.Var)
				}
			}
			a.Terms = append(a.Terms, tm)
		}
		b.atoms = append(b.atoms, a)
	}
	if len(bound) == 0 { // every term came out constant or wildcard
		b.atoms[0].Terms[0] = datalog.Term{Kind: datalog.TermVar, Var: "A"}
		varType["A"] = relstore.Int
		bound = []string{"A"}
	}
	boundTerm := func(ty relstore.Type) (datalog.Term, bool) {
		var cands []string
		for _, v := range bound {
			if varType[v] == ty {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return datalog.Term{}, false
		}
		return datalog.Term{Kind: datalog.TermVar, Var: cands[rng.Intn(len(cands))]}, true
	}
	for k := rng.Intn(3); k > 0; k-- {
		l := datalog.Term{Kind: datalog.TermVar, Var: bound[rng.Intn(len(bound))]}
		ty := varType[l.Var]
		if rng.Intn(6) == 0 { // a cross-type comparison: ints order before strings
			ty = map[relstore.Type]relstore.Type{relstore.Int: relstore.String, relstore.String: relstore.Int}[ty]
		}
		r, ok := boundTerm(ty)
		if !ok || rng.Intn(2) == 0 {
			r = constTerm(randValue(rng, ty))
		}
		b.comps = append(b.comps, datalog.Comparison{Op: datalog.CompOp(rng.Intn(6)), L: l, R: r, Line: 1, Col: 90})
	}
	if rng.Intn(2) == 0 {
		a := datalog.Atom{Pred: negTable.name, Line: 1, Col: 80}
		for _, ty := range negTable.types {
			tm, ok := boundTerm(ty)
			switch r := rng.Intn(10); {
			case r < 2 || !ok && r < 6:
				tm = constTerm(randValue(rng, ty))
			case !ok || r < 4:
				tm = datalog.Term{Kind: datalog.TermWildcard}
			}
			a.Terms = append(a.Terms, tm)
		}
		b.negs = append(b.negs, a)
	}
	perm := rng.Perm(len(bound))
	for _, k := range perm[:1+rng.Intn(min(3, len(bound)))] {
		b.out = append(b.out, bound[k])
	}
	return b
}

// --- the nested-loop reference ---

func refEqual(a, b relstore.Value) bool { return a.T == b.T && a.I == b.I && a.S == b.S }

// refCompare orders ints before strings, then by value.
func refCompare(a, b relstore.Value) int {
	switch {
	case a.T != b.T && a.T == relstore.Int:
		return -1
	case a.T != b.T:
		return 1
	case a.T == relstore.Int && a.I != b.I:
		if a.I < b.I {
			return -1
		}
		return 1
	case a.T == relstore.Int:
		return 0
	}
	return strings.Compare(a.S, b.S)
}

// refMatch unifies one row with an atom under env, returning the variables
// it newly bound (to undo) and whether the row matches.
func refMatch(a datalog.Atom, row []relstore.Value, env map[string]relstore.Value) ([]string, bool) {
	var fresh []string
	for c, tm := range a.Terms {
		ok := true
		switch tm.Kind {
		case datalog.TermInt:
			ok = refEqual(row[c], relstore.IntVal(tm.Int))
		case datalog.TermString:
			ok = refEqual(row[c], relstore.StrVal(tm.Str))
		case datalog.TermVar:
			if v, bound := env[tm.Var]; bound {
				ok = refEqual(row[c], v)
			} else {
				env[tm.Var] = row[c]
				fresh = append(fresh, tm.Var)
			}
		}
		if !ok {
			for _, v := range fresh {
				delete(env, v)
			}
			return nil, false
		}
	}
	return fresh, true
}

// refBudget bounds the rows one reference evaluation may visit; bodies
// that need more (wide cross products) are skipped.
const refBudget = 25_000

// refEval evaluates b by nested loops over sources[i] (the rows of atom
// i's occurrence) and returns the bag of output tuples, or false when the
// loops would visit more than refBudget rows. neg holds the negated table's
// rows.
func refEval(b body, sources [][][]relstore.Value, neg [][]relstore.Value) ([][]relstore.Value, bool) {
	var out [][]relstore.Value
	visited := 0
	env := map[string]relstore.Value{}
	value := func(tm datalog.Term) relstore.Value {
		switch tm.Kind {
		case datalog.TermInt:
			return relstore.IntVal(tm.Int)
		case datalog.TermString:
			return relstore.StrVal(tm.Str)
		}
		return env[tm.Var]
	}
	var rec func(i int)
	rec = func(i int) {
		if i < len(b.atoms) {
			if visited += len(sources[i]); visited > refBudget {
				return
			}
			for _, row := range sources[i] {
				if fresh, ok := refMatch(b.atoms[i], row, env); ok {
					rec(i + 1)
					for _, v := range fresh {
						delete(env, v)
					}
				}
			}
			return
		}
		for _, c := range b.comps {
			cmp := refCompare(value(c.L), value(c.R))
			holds := map[datalog.CompOp]bool{
				datalog.OpEQ: cmp == 0, datalog.OpNE: cmp != 0, datalog.OpLT: cmp < 0,
				datalog.OpLE: cmp <= 0, datalog.OpGT: cmp > 0, datalog.OpGE: cmp >= 0,
			}[c.Op]
			if !holds {
				return
			}
		}
		for _, n := range b.negs {
			for _, row := range neg {
				if fresh, ok := refMatch(n, row, env); ok {
					for _, v := range fresh {
						delete(env, v)
					}
					return
				}
			}
		}
		tuple := make([]relstore.Value, len(b.out))
		for k, v := range b.out {
			tuple[k] = env[v]
		}
		out = append(out, tuple)
	}
	rec(0)
	return out, visited <= refBudget
}

// --- harness ---

// rowKey renders a tuple unambiguously (%q escapes the separator).
func rowKey(row []relstore.Value) string {
	var sb strings.Builder
	for _, v := range row {
		fmt.Fprintf(&sb, "%d:%d:%q,", v.T, v.I, v.S)
	}
	return sb.String()
}

func bagOf(rows [][]relstore.Value) map[string]int {
	bag := map[string]int{}
	for _, r := range rows {
		bag[rowKey(r)]++
	}
	return bag
}

func sameBag(a, b map[string]int) bool {
	for k, n := range a {
		if n != 0 && b[k] != n {
			return false
		}
	}
	for k, n := range b {
		if n != 0 && a[k] != n {
			return false
		}
	}
	return true
}

func keysOf(rows [][]relstore.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	return out
}

func tableOf(t *testing.T, db *relstore.DB, name string) *relstore.Table {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// planFor builds the all-table-backed plan of b.
func planFor(t *testing.T, db *relstore.DB, b body) conj.Plan {
	t.Helper()
	p := conj.Plan{Comps: b.comps, Out: b.out}
	for _, a := range b.atoms {
		p.Atoms = append(p.Atoms, conj.Occurrence{Atom: a, Table: tableOf(t, db, a.Pred)})
	}
	for _, n := range b.negs {
		neg, err := conj.NewNegation(n, tableOf(t, db, n.Pred))
		if err != nil {
			t.Fatal(err)
		}
		p.Negs = append(p.Negs, neg)
	}
	return p
}

func collect(t *testing.T, p conj.Plan, label string) [][]relstore.Value {
	t.Helper()
	it, err := p.Open()
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	rel, err := relstore.Collect(it)
	if err != nil {
		t.Fatalf("%s: Collect: %v", label, err)
	}
	if !slices.Equal(rel.Cols, p.Out) {
		t.Fatalf("%s: schema %v, want %v", label, rel.Cols, p.Out)
	}
	return rel.Rows
}

func tableSources(t *testing.T, db *relstore.DB, b body) [][][]relstore.Value {
	src := make([][][]relstore.Value, len(b.atoms))
	for i, a := range b.atoms {
		src[i] = tableOf(t, db, a.Pred).Rows
	}
	return src
}

// bodies yields n random (database, body) pairs the reference can afford,
// with a fresh database every tenth.
func bodies(t *testing.T, seed int64, n int, fn func(k int, rng *rand.Rand, db *relstore.DB, b body, want [][]relstore.Value)) {
	rng := rand.New(rand.NewSource(seed))
	var db *relstore.DB
	for k := 0; k < n; {
		if k%10 == 0 {
			db = randDB(t, rng)
		}
		b := randBody(rng)
		want, ok := refEval(b, tableSources(t, db, b), tableOf(t, db, negTable.name).Rows)
		if !ok {
			continue
		}
		fn(k, rng, db, b, want)
		k++
	}
}

// resident reads how many rows a tracker currently holds through its public
// API: acquiring more than the old peak makes the new peak held+n. Zero once
// every pipeline sharing the tracker has closed.
func resident(tr *relstore.Tracker) int64 {
	n := tr.Peak() + 1
	tr.Acquire(int(n))
	defer tr.Release(int(n))
	return tr.Peak() - n
}

// TestRandomBodiesAgree: streaming == oracle row for row, and both are
// bag-equal (set-equal and duplicate-free under Distinct) to the
// nested-loop reference, in both index modes.
func TestRandomBodiesAgree(t *testing.T) {
	var nonEmpty, long, disconnected, withNeg, withComps int
	bodies(t, 1, 240, func(k int, _ *rand.Rand, db *relstore.DB, b body, want [][]relstore.Value) {
		if len(want) > 0 {
			nonEmpty++
		}
		if len(b.atoms) >= 4 {
			long++
		}
		if slices.ContainsFunc(b.atoms[len(b.atoms)-1].Vars(), func(v string) bool { return v >= "U" }) {
			disconnected++
		}
		if len(b.negs) > 0 {
			withNeg++
		}
		if len(b.comps) > 0 {
			withComps++
		}
		wantBag := bagOf(want)
		for _, distinct := range []bool{false, true} {
			for _, mode := range []relstore.IndexMode{relstore.IndexAuto, relstore.IndexOff} {
				label := fmt.Sprintf("body %d %s distinct=%t index=%d", k, b, distinct, mode)
				p := planFor(t, db, b)
				p.Distinct = distinct
				p.Exec = relstore.ExecOpts{UseIndex: mode, Tracker: relstore.NewTracker()}
				streamed := collect(t, p, label)
				p.Exec = relstore.MaterializingOracle(p.Exec)
				oracle := collect(t, p, label+" oracle")
				if !slices.Equal(keysOf(streamed), keysOf(oracle)) {
					t.Fatalf("%s: streaming and oracle rows differ\nstreaming %v\noracle    %v", label, keysOf(streamed), keysOf(oracle))
				}
				if held := resident(p.Exec.Tracker); held != 0 {
					t.Fatalf("%s: tracker holds %d rows after both pipelines closed", label, held)
				}
				got := bagOf(streamed)
				if distinct {
					for key, n := range got {
						if n != 1 || wantBag[key] == 0 {
							t.Fatalf("%s: distinct output has %q x%d (reference x%d)", label, key, n, wantBag[key])
						}
					}
					if len(got) != len(wantBag) {
						t.Fatalf("%s: %d distinct rows, reference has %d", label, len(got), len(wantBag))
					}
				} else if !sameBag(got, wantBag) {
					t.Fatalf("%s: bag differs from the nested-loop reference (%d rows vs %d)", label, len(streamed), len(want))
				}
			}
		}
	})
	// The generator must actually reach the interesting shapes.
	if nonEmpty < 60 || long < 60 || disconnected < 20 || withNeg < 60 || withComps < 60 {
		t.Fatalf("weak coverage: %d non-empty, %d with 4-5 atoms, %d disconnected, %d negated, %d compared bodies",
			nonEmpty, long, disconnected, withNeg, withComps)
	}
}

// --- Close discipline ---

var errInjected = errors.New("injected mid-stream failure")

// probeIter stands in a join stage's stream (through Plan.Guard): it counts
// Close calls and can fail after a number of rows.
type probeIter struct {
	relstore.RowIter
	failAfter int // < 0: never
	n, closed int
}

func (p *probeIter) Next() (relstore.Row, bool, error) {
	if p.failAfter >= 0 && p.n == p.failAfter {
		return nil, false, errInjected
	}
	row, ok, err := p.RowIter.Next()
	if ok {
		p.n++
	}
	return row, ok, err
}

func (p *probeIter) Close() error {
	p.closed++
	return p.RowIter.Close()
}

// TestCloseDiscipline: on a full drain, an early Close after one row and a
// failure injected into each join stage in turn, every stage of the
// pipeline is closed exactly once and the tracker drains to zero —
// streaming and under the oracle.
func TestCloseDiscipline(t *testing.T) {
	var failures int
	bodies(t, 2, 60, func(k int, _ *rand.Rand, db *relstore.DB, b body, _ [][]relstore.Value) {
		joins := len(b.atoms) - 1
		for _, oracle := range []bool{false, true} {
			for _, distinct := range []bool{false, true} {
				for mode := -2; mode < joins; mode++ { // -2 drain, -1 early close, j: fail stage j
					label := fmt.Sprintf("body %d %s oracle=%t distinct=%t mode=%d", k, b, oracle, distinct, mode)
					p := planFor(t, db, b)
					p.Distinct = distinct
					p.Exec = relstore.ExecOpts{Tracker: relstore.NewTracker()}
					if oracle {
						p.Exec = relstore.MaterializingOracle(p.Exec)
					}
					var stages []*probeIter
					p.Guard = func(it relstore.RowIter) relstore.RowIter {
						s := &probeIter{RowIter: it, failAfter: -1}
						if len(stages) == mode {
							s.failAfter = 1
						}
						stages = append(stages, s)
						return s
					}
					it, err := p.Open()
					switch {
					case err != nil && !errors.Is(err, errInjected):
						t.Fatalf("%s: Open: %v", label, err)
					case err != nil: // the oracle drains stages inside Open
						failures++
					case mode == -1:
						if _, _, err := it.Next(); err != nil {
							t.Fatalf("%s: first Next: %v", label, err)
						}
						it.Close()
						if _, own := it.(*probeIter); !own {
							it.Close() // idempotent; the probe itself counts every call
						}
					default:
						_, err := relstore.Collect(it)
						if err != nil && !errors.Is(err, errInjected) {
							t.Fatalf("%s: Collect: %v", label, err)
						}
						if err != nil {
							failures++
						}
					}
					if err == nil && len(stages) != joins {
						t.Fatalf("%s: guard wrapped %d stages, want one per join (%d)", label, len(stages), joins)
					}
					for j, s := range stages {
						if s.closed != 1 {
							t.Fatalf("%s: join stage %d closed %d times, want exactly once", label, j, s.closed)
						}
					}
					if held := resident(p.Exec.Tracker); held != 0 {
						t.Fatalf("%s: tracker holds %d rows after Close", label, held)
					}
				}
			}
		}
	})
	if failures < 40 {
		t.Fatalf("only %d runs hit the injected failure: the stages under test were mostly empty", failures)
	}
}

// --- the per-occurrence delta decomposition ---

// TestOccurrenceDeltaDecomposition pins the decomposition incremental
// maintenance relies on, independently of it: for a single-tuple insert or
// delete on a table occurring k >= 1 times in a body, the sum over those
// occurrences of the plan whose row sources follow the occurrence
// convention — the changed tuple at the occurrence, the pre-update view of
// the table at the earlier (insert) or later (delete) occurrences, the
// current table everywhere else — is exactly bag(after) - bag(before).
func TestOccurrenceDeltaDecomposition(t *testing.T) {
	var moved, selfJoins int
	bodies(t, 3, 200, func(k int, rng *rand.Rand, db *relstore.DB, b body, before [][]relstore.Value) {
		changedAtom := b.atoms[rng.Intn(len(b.atoms))]
		tbl := tableOf(t, db, changedAtom.Pred)
		insert := rng.Intn(2) == 0
		var row []relstore.Value
		if insert {
			for _, s := range posTables {
				if s.name == tbl.Name {
					row = randRow(rng, s)
				}
			}
			if err := tbl.Insert(row...); err != nil {
				t.Fatal(err)
			}
		} else {
			row = slices.Clone(tbl.Rows[rng.Intn(len(tbl.Rows))])
			if ok, err := tbl.Delete(row...); err != nil || !ok {
				t.Fatalf("delete %v: ok=%t err=%v", row, ok, err)
			}
		}
		label := fmt.Sprintf("body %d %s insert=%t row=%v", k, b, insert, row)
		after := collect(t, planFor(t, db, b), label)

		// The pre-update view: subscribers (and this test) run after the
		// table has mutated.
		pre := slices.Clone(tbl.Rows)
		if insert {
			at := slices.IndexFunc(pre, func(r []relstore.Value) bool { return relstore.RowsEqual(r, row) })
			pre = slices.Delete(pre, at, at+1)
		} else {
			pre = append(pre, row)
		}
		delta := map[string]int{}
		occurrences := 0
		for i, a := range b.atoms {
			if a.Pred != tbl.Name {
				continue
			}
			occurrences++
			p := planFor(t, db, b)
			p.Start = i
			for j, o := range b.atoms {
				switch {
				case o.Pred != tbl.Name:
				case j == i:
					p.Atoms[j].Rows, p.Atoms[j].Explicit = [][]relstore.Value{row}, true
				case insert == (j < i):
					p.Atoms[j].Rows, p.Atoms[j].Explicit = pre, true
				}
			}
			for key, n := range bagOf(collect(t, p, fmt.Sprintf("%s occurrence %d", label, i))) {
				delta[key] += n
			}
		}
		want := bagOf(after)
		for key, n := range bagOf(before) {
			want[key] -= n
		}
		if !insert {
			for key := range want {
				want[key] = -want[key]
			}
		}
		if !sameBag(delta, want) {
			t.Fatalf("%s: sum over %d occurrences is %v, bag(after)-bag(before) is %v", label, occurrences, delta, want)
		}
		if len(delta) > 0 {
			moved++
		}
		if occurrences > 1 {
			selfJoins++
		}
	})
	if moved < 30 || selfJoins < 40 {
		t.Fatalf("weak coverage: %d changes moved the result, %d hit a self-join", moved, selfJoins)
	}
}

// TestDiagnostics: the evaluator's own rejections, each raised before any
// iterator exists.
func TestDiagnostics(t *testing.T) {
	db := randDB(t, rand.New(rand.NewSource(4)))
	v := func(name string) datalog.Term { return datalog.Term{Kind: datalog.TermVar, Var: name} }
	r := conj.Occurrence{Atom: datalog.Atom{Pred: "T", Terms: []datalog.Term{v("A"), v("B")}}, Table: tableOf(t, db, "T")}
	wide := datalog.Atom{Pred: "T", Terms: []datalog.Term{v("A"), v("B"), v("C")}}
	neg, err := conj.NewNegation(datalog.Atom{Pred: "N", Terms: []datalog.Term{v("Z"), v("P")}, Line: 3, Col: 9}, tableOf(t, db, "N"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan conj.Plan
		want string
	}{
		{"empty body", conj.Plan{}, "conj: empty rule body"},
		{"arity, no position", conj.Plan{Atoms: []conj.Occurrence{{Atom: wide, Table: r.Table}}},
			"conj: atom T(A, B, C) has 3 terms but table T has 2 columns"},
		{"unbound output", conj.Plan{Atoms: []conj.Occurrence{r}, Out: []string{"Z"}},
			`conj: output variable "Z" is not bound by the rule body`},
		{"unbound comparison", conj.Plan{Atoms: []conj.Occurrence{r}, Out: []string{"A"},
			Comps: []datalog.Comparison{{Op: datalog.OpLT, L: v("A"), R: v("Z"), Line: 2, Col: 5}}},
			"conj: line 2 col 5: comparison A < Z over variables the body never binds"},
		{"unsafe negation", conj.Plan{Atoms: []conj.Occurrence{r}, Out: []string{"A"}, Negs: []*conj.Negation{neg}},
			`conj: line 3 col 9: unsafe negation: variable "Z" in N(Z, P) is unbound`},
	}
	for _, c := range cases {
		if _, err := c.plan.Open(); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	wide.Line, wide.Col = 7, 2
	if err := conj.CheckArity(wide, r.Table); err == nil || err.Error() != "conj: line 7 col 2: atom T(A, B, C) has 3 terms but table T has 2 columns" {
		t.Errorf("positioned arity diagnostic = %v", err)
	}
}
