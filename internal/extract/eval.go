package extract

import (
	"fmt"
	"slices"

	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// This file evaluates conjunctive queries (atom lists) against the relstore
// substrate as one fused pull-based pipeline: per-atom scans with constant
// selections pushed into the table (or index-bucket) walk, streaming hash
// joins on all shared variables, and a final distinct projection — the
// single materialization boundary, where Collect produces the result Rel.
// The extraction planner uses it both for the in-segment joins it "hands
// to the database" and for Case 2 full expansion. Parallel stages run on
// the shared worker pool (internal/parallel) with chunk-ordered merges,
// and the table joins defer the index-vs-scan access-path choice until
// the accumulated side has drained — every choice produces an identical
// row stream, so results do not depend on the worker count or on which
// indexes happen to exist.
//
// Column liveness is part of the pipeline. A variable is live after a
// stage when it is an output variable or occurs in an atom still to be
// joined; every scan and join emits only its live columns (the join
// kernels build the pruned row directly), so a join attribute stops being
// carried the moment its last join is done. Under distinct, a stage that
// dropped a column also drops the duplicates the narrowing exposed, in
// stream order (relstore.NewDistinct): a pruned-away attribute is exactly
// what made those rows differ, and each one would otherwise multiply
// through every later join. Keeping first occurrences on what becomes the
// next join's build side, with join output probe-major, removes from the
// final stream only rows that repeat an earlier one — so the DISTINCT
// result is row-for-row the one the unpruned plan produces. Without
// distinct the caller wants bag multiplicities (incremental.ExtractLive
// counts supports), so only the pruning applies.
//
// Options.NoStream interposes a materialization (relstore.Materialize)
// after every operator and keeps every variable to the end with one late
// distinct, reproducing the old operator-at-a-time execution exactly; it
// is the equivalence oracle for both the streaming and the pruning, and
// the peak-memory baseline.

// EvalConjunctive joins the atoms on their shared variables and projects
// outVars. The atom list must be connected (every atom shares a variable
// with the part already joined). opts supplies the scan/probe parallelism
// (Workers <= 0 means GOMAXPROCS), the NoIndex and NoStream switches, and
// the peak-intermediate-rows Tracker.
func EvalConjunctive(db *relstore.DB, atoms []datalog.Atom, outVars []string, distinct bool, opts Options) (*relstore.Rel, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("extract: empty rule body")
	}
	pending := make([]datalog.Atom, len(atoms)-1)
	copy(pending, atoms[1:])
	prune := !opts.NoStream
	// narrowed closes a stage whose natural output is wide columns:
	// duplicates are dropped early when the stage kept fewer, the caller
	// wants a set, and a later join would otherwise multiply them.
	narrowed := func(cur relstore.RowIter, wide int) relstore.RowIter {
		if prune && distinct && len(pending) > 0 && len(cur.Cols()) < wide {
			return relstore.NewDistinct(cur, execOpts(opts))
		}
		return cur
	}

	sc, err := compileAtomScan(db, atoms[0])
	if err != nil {
		return nil, err
	}
	wide := len(sc.names)
	if prune {
		sc.restrict(liveVars(outVars, pending))
	}
	cur, err := stage(narrowed(scanCompiled(sc, opts), wide), opts)
	if err != nil {
		return nil, err
	}
	for len(pending) > 0 {
		// Pick the next atom sharing a variable with the current
		// relation, so disconnected bodies are detected rather than
		// silently cross-producted. Shared variables are live, so pruning
		// never changes which atom is picked.
		picked := -1
		var shared []string
		for i, a := range pending {
			s := sharedVars(cur.Cols(), a)
			if len(s) > 0 {
				picked, shared = i, s
				break
			}
		}
		if picked < 0 {
			cur.Close()
			return nil, fmt.Errorf("extract: rule body is disconnected (atom %s shares no variable)", pending[0])
		}
		sc, err := compileAtomScan(db, pending[picked])
		if err != nil {
			cur.Close()
			return nil, err
		}
		pending = append(pending[:picked], pending[picked+1:]...)
		wide := len(cur.Cols()) + len(sc.names) - len(shared)
		var keep []string
		if prune {
			live := liveVars(outVars, pending)
			keep = make([]string, 0, wide)
			for _, c := range cur.Cols() {
				if live[c] {
					keep = append(keep, c)
				}
			}
			for _, n := range sc.names {
				if live[n] && !slices.Contains(shared, n) {
					keep = append(keep, n)
				}
			}
			// The atom's scan feeds only this join: it projects the
			// join keys and what stays live.
			for _, v := range shared {
				live[v] = true
			}
			sc.restrict(live)
		}
		if cur, err = joinAtom(cur, sc, shared, keep, opts); err != nil {
			return nil, err
		}
		if cur, err = stage(narrowed(cur, wide), opts); err != nil {
			return nil, err
		}
	}
	proj, err := relstore.NewProject(cur, outVars, distinct, execOpts(opts))
	if err != nil {
		return nil, err
	}
	return relstore.Collect(proj)
}

// liveVars is the live-variable rule: the output variables plus every
// variable of an atom still to be joined.
func liveVars(outVars []string, pending []datalog.Atom) map[string]bool {
	live := make(map[string]bool, len(outVars))
	for _, v := range outVars {
		live[v] = true
	}
	for _, a := range pending {
		for _, v := range a.Vars() {
			live[v] = true
		}
	}
	return live
}

// execOpts maps extraction options onto the operator execution knobs.
func execOpts(opts Options) relstore.ExecOpts {
	mode := relstore.IndexAuto
	if opts.NoIndex {
		mode = relstore.IndexOff
	}
	return relstore.ExecOpts{Workers: opts.Workers, UseIndex: mode, Tracker: opts.Tracker, Trace: opts.Trace}
}

// stage is the NoStream oracle's boundary: it materializes the pipeline
// head after each operator (tracking the staged rows), so peak memory is
// the sum of intermediates exactly as in the pre-streaming engine. In the
// streaming default it is a no-op.
func stage(cur relstore.RowIter, opts Options) (relstore.RowIter, error) {
	if !opts.NoStream {
		return cur, nil
	}
	return relstore.Materialize(cur, opts.Tracker)
}

// joinAtom extends the pipeline with a streaming join against one more
// compiled atom, emitting the keep columns (nil: all). The common
// no-repeated-variable case goes through NewTableJoin, which defers the
// index-vs-scan choice (probing the persistent index touches ~|cur| * N/d
// table rows versus all N for a scan plus a throwaway hash table; the
// index wins when the accumulated relation is small next to the column's
// distinct count) until cur has drained and its exact cardinality is
// known. Both paths produce identical output.
func joinAtom(cur relstore.RowIter, sc *atomScan, shared, keep []string, opts Options) (relstore.RowIter, error) {
	if len(sc.equalities) == 0 {
		return relstore.NewTableJoin(cur, sc.t, sc.preds, sc.cols, sc.names, shared, keep, execOpts(opts))
	}
	return relstore.NewJoin(cur, scanCompiled(sc, opts), shared, keep, execOpts(opts))
}

func sharedVars(cols []string, a datalog.Atom) []string {
	var out []string
	for _, v := range a.Vars() {
		for _, c := range cols {
			if c == v {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// atomScan is one atom compiled against its table: constant terms as
// selection predicates, intra-atom repeated variables as equality filters,
// and the projection of the distinct variable positions under their
// variable names.
type atomScan struct {
	t          *relstore.Table
	preds      []relstore.Pred
	cols       []int
	names      []string
	equalities [][2]int
}

// restrict narrows the scan's projection to the variables in live.
func (sc *atomScan) restrict(live map[string]bool) {
	cols, names := sc.cols[:0], sc.names[:0]
	for i, n := range sc.names {
		if live[n] {
			cols, names = append(cols, sc.cols[i]), append(names, n)
		}
	}
	sc.cols, sc.names = cols, names
}

func compileAtomScan(db *relstore.DB, atom datalog.Atom) (*atomScan, error) {
	t, err := db.Table(atom.Pred)
	if err != nil {
		return nil, err
	}
	if len(atom.Terms) > len(t.Cols) {
		return nil, fmt.Errorf("extract: atom %s has %d terms but table %s has %d columns",
			atom, len(atom.Terms), t.Name, len(t.Cols))
	}
	sc := &atomScan{t: t}
	firstPos := make(map[string]int)
	for i, term := range atom.Terms {
		switch term.Kind {
		case datalog.TermInt:
			sc.preds = append(sc.preds, relstore.Pred{Col: i, Value: relstore.IntVal(term.Int)})
		case datalog.TermString:
			sc.preds = append(sc.preds, relstore.Pred{Col: i, Value: relstore.StrVal(term.Str)})
		case datalog.TermWildcard:
			// ignored position
		case datalog.TermVar:
			if j, dup := firstPos[term.Var]; dup {
				sc.equalities = append(sc.equalities, [2]int{j, i})
				continue
			}
			firstPos[term.Var] = i
			sc.cols = append(sc.cols, i)
			sc.names = append(sc.names, term.Var)
		}
	}
	return sc, nil
}

// scanCompiled streams a compiled atom scan. Without repeated variables
// it is a table scan under the planner's access-path choice (NewScan with
// IndexAuto/IndexOff); with them it is a one-pass select over the table
// rows applying predicates, equality filters, and the projection together.
func scanCompiled(sc *atomScan, opts Options) relstore.RowIter {
	if len(sc.equalities) == 0 {
		it, err := relstore.NewScan(sc.t, sc.preds, sc.cols, sc.names, execOpts(opts))
		if err == nil {
			return it
		}
		// Compilation bounds every column index, so NewScan cannot
		// reject the plan; fall through to the equivalent select walk.
	}
	return relstore.NewSelect(sc.t.Rows, sc.preds, sc.equalities, sc.cols, sc.names, execOpts(opts))
}

// EnsureIndexes walks the rules' positive bodies and creates (idempotently)
// hash indexes on every column an access path can use: columns bound to a
// constant term (equality predicates) and columns bound to a variable that
// occurs more than once in the rule body (join columns, including the
// chain planner's large-join attributes). Missing tables and excess terms
// are skipped silently — evaluation surfaces those errors later with full
// diagnostics. Indexes persist on the tables, maintained through the
// mutation path, so one EnsureIndexes call serves every later extraction,
// semi-naive delta round, and live rebuild over the same database.
func EnsureIndexes(db *relstore.DB, rules []datalog.Rule) {
	for _, r := range rules {
		occurrences := make(map[string]int)
		for _, a := range r.Body {
			for _, term := range a.Terms {
				if term.Kind == datalog.TermVar {
					occurrences[term.Var]++
				}
			}
		}
		for _, a := range r.Body {
			t, err := db.Table(a.Pred)
			if err != nil {
				continue
			}
			for i, term := range a.Terms {
				if i >= len(t.Cols) {
					break
				}
				switch term.Kind {
				case datalog.TermInt, datalog.TermString:
					_, _ = t.CreateIndex(t.Cols[i].Name)
				case datalog.TermVar:
					if occurrences[term.Var] >= 2 {
						_, _ = t.CreateIndex(t.Cols[i].Name)
					}
				}
			}
		}
	}
}
