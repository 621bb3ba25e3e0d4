package extract

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphgen/internal/datalog"
	"graphgen/internal/obs"
	"graphgen/internal/relstore"
)

// This file is the pruned==unpruned oracle for EvalConjunctive: the
// default path (dead columns pruned after every stage, duplicates
// dropped early under distinct) against relstore.MaterializingOracle, which keeps
// every variable to the end and dedups once. Bodies and tables are
// generated to hit what pruning could get wrong: duplicate table rows
// (bag multiplicities), strings containing the key separator and
// digit-prefixed strings (key encoding), repeated variables (the NewJoin
// path), constants and wildcards (narrow scans).

var pruneStrings = []string{"a", "a|b", "|b", "1", "12", "1|s2:x", "s1:a"}

// pruneDB builds three tables of (int, int, string) columns over small
// domains, re-inserting a share of the rows so every table holds
// duplicates, with hash indexes on a random subset of columns. scale
// multiplies the number of distinct rows drawn.
func pruneDB(t *testing.T, rng *rand.Rand, scale int) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	for _, name := range []string{"R", "S", "T"} {
		tbl, err := db.Create(name,
			relstore.Column{Name: "x", Type: relstore.Int},
			relstore.Column{Name: "y", Type: relstore.Int},
			relstore.Column{Name: "z", Type: relstore.String})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := 0, (8+rng.Intn(25))*scale; i < n; i++ {
			row := []relstore.Value{
				relstore.IntVal(int64(rng.Intn(4))), relstore.IntVal(int64(rng.Intn(5))),
				relstore.StrVal(pruneStrings[rng.Intn(len(pruneStrings))]),
			}
			for c := 0; c < 1+rng.Intn(2); c++ {
				if err := tbl.Insert(row...); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, col := range []string{"x", "y", "z"} {
			if rng.Intn(3) == 0 {
				if _, err := tbl.CreateIndex(col); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

// pruneBody generates a connected body of 2 to min(5, maxAtoms) atoms and
// a non-empty output variable list (which may repeat a variable). Int and
// string positions draw from separate variable pools so joins can match.
func pruneBody(rng *rand.Rand, maxAtoms int) ([]datalog.Atom, []string) {
	var used [2][]string // variables so far, by column type
	pools := [2][]string{{"a", "b", "c", "d"}, {"s", "u"}}
	term := func(typ int, mustShare bool) datalog.Term {
		if mustShare {
			return datalog.Term{Kind: datalog.TermVar, Var: used[typ][rng.Intn(len(used[typ]))]}
		}
		switch rng.Intn(8) {
		case 0:
			return datalog.Term{Kind: datalog.TermWildcard}
		case 1:
			if typ == 0 {
				return datalog.Term{Kind: datalog.TermInt, Int: int64(rng.Intn(4))}
			}
			return datalog.Term{Kind: datalog.TermString, Str: pruneStrings[rng.Intn(len(pruneStrings))]}
		}
		return datalog.Term{Kind: datalog.TermVar, Var: pools[typ][rng.Intn(len(pools[typ]))]}
	}
	var atoms []datalog.Atom
	for i, n := 0, min(2+rng.Intn(4), maxAtoms); i < n; i++ {
		types := []int{0, 0, 1}
		// Every atom after the first repeats an earlier variable, so
		// the body is connected in any join order.
		share := -1
		if i > 0 {
			share = rng.Intn(3)
			if len(used[types[share]]) == 0 {
				share = rng.Intn(2) // an int variable always exists: see below
			}
		}
		a := datalog.Atom{Pred: []string{"R", "S", "T"}[rng.Intn(3)]}
		for pos, typ := range types {
			a.Terms = append(a.Terms, term(typ, pos == share))
		}
		if i == 0 && a.Terms[0].Kind != datalog.TermVar && a.Terms[1].Kind != datalog.TermVar {
			a.Terms[0] = datalog.Term{Kind: datalog.TermVar, Var: "a"}
		}
		for pos, tm := range a.Terms {
			if tm.Kind == datalog.TermVar && !slices.Contains(used[types[pos]], tm.Var) {
				used[types[pos]] = append(used[types[pos]], tm.Var)
			}
		}
		atoms = append(atoms, a)
	}
	all := append(append([]string{}, used[0]...), used[1]...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := all[:1+rng.Intn(len(all))]
	if len(out) > 3 {
		out = out[:3]
	}
	if rng.Intn(6) == 0 {
		out = append(out, out[0])
	}
	return atoms, out
}

func relString(r *relstore.Rel) []string {
	all := make([]int, len(r.Cols))
	for i := range all {
		all[i] = i
	}
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = string(relstore.AppendRowKey(nil, row, all))
	}
	return rows
}

// drained reports whether the tracker's current count is zero: acquiring
// exactly the recorded peak raises the peak iff something is still held.
func drained(tr *relstore.Tracker) bool {
	peak := tr.Peak()
	tr.Acquire(int(peak))
	defer tr.Release(int(peak))
	return tr.Peak() == peak
}

// prunePasses are TestPrunedEqualsUnprunedRandomized's two passes. The
// first is the main one: small tables, bodies of up to five atoms. The
// second scales the tables up tenfold, so every scan, build side and
// seen-set runs over longer streams, and cuts bodies to two atoms to keep
// the joins small.
var prunePasses = []struct{ seeds, scale, maxAtoms int }{
	{150, 1, 5},
	{20, 10, 2},
}

// pruneTally counts what the pruned runs exercised.
type pruneTally struct{ earlyDistinct, prunedJoins, multiAtom int }

func TestPrunedEqualsUnprunedRandomized(t *testing.T) {
	var tally pruneTally
	for _, pass := range prunePasses {
		for seed := int64(1); seed <= int64(pass.seeds); seed++ {
			prunedEqualsUnpruned(t, seed, pass.scale, pass.maxAtoms, &tally)
		}
	}
	// Guard against a generator (or a pipeline) that never prunes.
	if tally.earlyDistinct == 0 || tally.prunedJoins == 0 || tally.multiAtom == 0 {
		t.Fatalf("vacuous run: %d early distinct stages, %d pruned joins, %d bodies over two atoms",
			tally.earlyDistinct, tally.prunedJoins, tally.multiAtom)
	}
}

// prunedEqualsUnpruned evaluates one generated body on one generated
// database in both index modes, pruned, against the materializing oracle,
// and tallies what the pruned runs exercised.
func prunedEqualsUnpruned(t *testing.T, seed int64, scale, maxAtoms int, tally *pruneTally) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := pruneDB(t, rng, scale)
	atoms, outVars := pruneBody(rng, maxAtoms)
	body := fmt.Sprintf("scale %d: %v -> %v", scale, atoms, outVars)
	for _, distinct := range []bool{true, false} {
		oracleOpts := DefaultOptions()
		oracleOpts.ExecOpts = relstore.MaterializingOracle(relstore.ExecOpts{UseIndex: relstore.IndexOff})
		oracle, err := EvalConjunctive(db, atoms, outVars, distinct, oracleOpts)
		if err != nil {
			t.Fatalf("seed %d %s: oracle: %v", seed, body, err)
		}
		want := relString(oracle)
		for _, noIndex := range []bool{false, true} {
			label := fmt.Sprintf("seed %d %s distinct=%t noIndex=%t", seed, body, distinct, noIndex)
			opts := DefaultOptions()
			if noIndex {
				opts.UseIndex = relstore.IndexOff
			}
			opts.Tracker = relstore.NewTracker()
			opts.Trace = obs.NewTrace()
			rel, err := EvalConjunctive(db, atoms, outVars, distinct, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if fmt.Sprint(rel.Cols) != fmt.Sprint(oracle.Cols) {
				t.Fatalf("%s: cols %v, oracle %v", label, rel.Cols, oracle.Cols)
			}
			got := relString(rel)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				if !distinct {
					// Say whether multiplicities or only order broke.
					g, w := append([]string{}, got...), append([]string{}, want...)
					sort.Strings(g)
					sort.Strings(w)
					if strings.Join(g, "\n") != strings.Join(w, "\n") {
						t.Fatalf("%s: bags differ: %d rows vs oracle %d", label, len(got), len(want))
					}
				}
				t.Fatalf("%s: rows differ from the unpruned oracle (%d vs %d rows)", label, len(got), len(want))
			}
			if !drained(opts.Tracker) {
				t.Fatalf("%s: tracker still holds rows after the pipeline closed", label)
			}
			opts.Trace.Finish().Walk(func(s *obs.Span) {
				switch {
				case s.Strategy == "distinct early":
					tally.earlyDistinct++
					if !distinct {
						t.Fatalf("%s: early distinct stage in a bag evaluation", label)
					}
				case strings.Contains(s.Detail, " -> "):
					tally.prunedJoins++
				}
			})
		}
	}
	if len(atoms) > 2 {
		tally.multiAtom++
	}
}
