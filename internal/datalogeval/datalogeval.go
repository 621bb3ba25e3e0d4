// Package datalogeval is GraphGen's bottom-up evaluator for multi-rule
// Datalog programs: derived (IDB) predicates, recursion, stratified
// negation, and comparison literals, computed over the relstore substrate
// and handed to the extraction planner.
//
// Evaluation proceeds stratum by stratum (datalog.Stratify orders the
// mutually recursive predicate groups dependency-first). Each stratum runs
// a semi-naive fixpoint loop: derived predicates materialize as temporary
// relstore tables inside an overlay database (base tables attached by
// reference, nothing copied), each table paired with a deduplicating tuple
// set, and every iteration joins only the previous iteration's delta
// against the full relations — so work is proportional to what is new, not
// to what is known. Joins are hash joins on the bound positions; negated
// atoms become anti-joins against the already-complete tables of lower
// strata; comparison literals are applied as filters as soon as their
// variables are bound.
//
// The Nodes/Edges extraction statements are not evaluated here: Evaluate
// returns the overlay database plus a datalog.Program referencing the
// materialized predicates, which the caller hands to internal/extract
// unchanged — so condensed representations, deduplication, analytics, and
// serving all work on recursive graphs for free. Their negated atoms and
// comparisons go along: the extraction planner places them as filters in
// its chain segments, and a negated derived predicate is complete by then.
//
// The overlay database and its temporary tables live exactly as long as
// the caller needs the extraction: nothing registers with the base DB, so
// dropping the Result frees every derived tuple.
package datalogeval

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"graphgen/internal/conj"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// Options tunes program evaluation: the embedded execution context
// (UseIndex, Tracker, Trace — see relstore.ExecOpts, which every rule-body
// plan runs under as it is) plus the two settings only the evaluator
// decides on. The evaluated relations are identical for every UseIndex
// setting; UseIndex == relstore.IndexOff also stops Evaluate from
// auto-creating indexes on the rules' join and predicate columns (base
// tables and derived temp tables alike); Evaluate installs a Tracker when
// none is set (reported in Stats.PeakIntermediateRows) and pushes a
// container span per stratum, fixpoint round and rule derivation onto Trace
// — round spans carry the fresh-tuple count, so their row totals sum to
// Stats.DerivedTuples.
type Options struct {
	relstore.ExecOpts
	// MaxDerivedTuples aborts evaluation once the total number of
	// materialized derived tuples exceeds the budget; 0 disables.
	MaxDerivedTuples int64
	// Naive disables the semi-naive delta optimization and re-evaluates
	// every rule against the full relations each iteration until
	// fixpoint. It exists as the benchmark baseline; results are
	// identical.
	Naive bool
}

// Stats describes one program evaluation.
type Stats struct {
	// Strata is the number of evaluation strata (mutually recursive
	// derived-predicate groups; extraction statements add none).
	Strata int
	// Iterations is the total number of fixpoint iterations across all
	// strata (each stratum contributes at least its seeding round).
	Iterations int
	// DerivedTuples is the total number of distinct tuples materialized
	// into temporary tables.
	DerivedTuples int64
	// TempTables is the number of temporary tables created.
	TempTables int
	// PeakIntermediateRows is the high-water mark of operator-held
	// intermediate rows across all rule-body pipelines: join build
	// sides and negation/index gathers on the streaming path, whole
	// staged relations under relstore.MaterializingOracle.
	PeakIntermediateRows int64
	Duration             time.Duration
}

// Result is an evaluated program: the overlay database holding base tables
// (shared) plus materialized derived predicates (owned), and the
// extraction statements, which read both.
type Result struct {
	DB      *relstore.DB
	Program *datalog.Program
	Stats   Stats
}

// ErrTooManyDerived marks an evaluation aborted by MaxDerivedTuples.
var ErrTooManyDerived = fmt.Errorf("datalogeval: derived tuples exceed the configured budget")

// Evaluate runs the program's derived-predicate rules to fixpoint and
// returns the overlay database and the extraction statements to hand to
// the extraction planner.
func Evaluate(base *relstore.DB, ps *datalog.ProgramSet, opts Options) (*Result, error) {
	start := time.Now()
	strata, err := datalog.Stratify(ps)
	if err != nil {
		return nil, err
	}
	for _, p := range ps.IDBPreds() {
		if _, err := base.Table(p); err == nil {
			return nil, fmt.Errorf("datalogeval: derived predicate %q collides with a base table of the same name", p)
		}
	}

	ov := relstore.NewDB()
	for _, name := range base.TableNames() {
		t, err := base.Table(name)
		if err != nil {
			return nil, err
		}
		if err := ov.Attach(t); err != nil {
			return nil, err
		}
	}
	if opts.Tracker == nil {
		opts.Tracker = relstore.NewTracker()
	}
	ev := &evaluator{db: ov, opts: opts, sets: make(map[string]*relstore.RowSet)}
	if err := ev.checkPredicates(ps); err != nil {
		return nil, err
	}
	if err := ev.createTempTables(ps); err != nil {
		return nil, err
	}
	// Index the IDB rules' join and predicate columns up front: temp
	// tables are created empty, so their indexes cost nothing to build and
	// are then maintained incrementally by every insert — which is what
	// lets the semi-naive loop probe a persistent index each delta round
	// instead of rebuilding a hash table per iteration. (The Nodes/Edges
	// statements are indexed later by extract.Extract over the same
	// overlay database.)
	if opts.UseIndex != relstore.IndexOff {
		extract.EnsureIndexes(ov, ps.IDB)
	}
	ev.stats.Strata = len(strata.Levels)
	psp := opts.Trace.Push("program_eval", "")
	for _, level := range strata.Levels {
		if err := ev.evalStratum(ps, level); err != nil {
			psp.End()
			return nil, err
		}
	}
	psp.End()
	ev.stats.PeakIntermediateRows = opts.Tracker.Peak()
	ev.stats.Duration = time.Since(start)
	return &Result{
		DB:      ov,
		Program: &datalog.Program{Nodes: ps.Nodes, Edges: ps.Edges},
		Stats:   ev.stats,
	}, nil
}

type evaluator struct {
	db   *relstore.DB
	opts Options
	// sets deduplicates each derived table's tuples (keyed by lowercased
	// predicate name); each holds the tuples it admitted, keyed on every
	// column.
	sets map[string]*relstore.RowSet
	// slab holds the derived tuples themselves: the rows the sets and the
	// derived tables keep.
	slab  relstore.RowSlab
	stats Stats
}

// checkPredicates verifies every body atom references either a base table
// or a derived predicate, up front, so the error names the offending rule
// rather than surfacing mid-iteration.
func (ev *evaluator) checkPredicates(ps *datalog.ProgramSet) error {
	idb := make(map[string]struct{})
	for _, p := range ps.IDBPreds() {
		idb[p] = struct{}{}
	}
	for _, r := range ps.Rules {
		for _, a := range append(append([]datalog.Atom(nil), r.Body...), r.Negated...) {
			name := strings.ToLower(a.Pred)
			if _, ok := idb[name]; ok {
				continue
			}
			if _, err := ev.db.Table(name); err != nil {
				return fmt.Errorf("datalogeval: line %d col %d: predicate %q is neither a base table nor defined by a rule",
					a.Line, a.Col, a.Pred)
			}
		}
	}
	return nil
}

// createTempTables infers a column type for every position of every
// derived predicate by propagating types from the base tables through the
// rules to fixpoint, then creates one empty temporary table per predicate.
// Positions that remain unconstrained (the predicate can never derive a
// tuple) default to Int.
func (ev *evaluator) createTempTables(ps *datalog.ProgramSet) error {
	preds := ps.IDBPreds()
	arity := make(map[string]int, len(preds))
	displayName := make(map[string]string, len(preds))
	for _, r := range ps.IDB {
		name := strings.ToLower(r.Head.Pred)
		if _, ok := arity[name]; !ok {
			arity[name] = len(r.Head.Terms)
			displayName[name] = r.Head.Pred
		}
	}
	types := make(map[string][]relstore.Type, len(preds))
	known := make(map[string][]bool, len(preds))
	for _, p := range preds {
		types[p] = make([]relstore.Type, arity[p])
		known[p] = make([]bool, arity[p])
	}
	// varType resolves the type a variable gets from the positive body of
	// a rule, if any binding position has a known type yet.
	varType := func(r datalog.Rule, v string) (relstore.Type, bool, error) {
		for _, a := range r.Body {
			for j, t := range a.Terms {
				if t.Kind != datalog.TermVar || t.Var != v {
					continue
				}
				name := strings.ToLower(a.Pred)
				if _, ok := types[name]; ok {
					if known[name][j] {
						return types[name][j], true, nil
					}
					continue
				}
				tab, err := ev.db.Table(name)
				if err != nil {
					return 0, false, err
				}
				if j >= len(tab.Cols) {
					return 0, false, conj.CheckArity(a, tab)
				}
				return tab.Cols[j].Type, true, nil
			}
		}
		return 0, false, nil
	}
	for changed := true; changed; {
		changed = false
		for _, r := range ps.IDB {
			name := strings.ToLower(r.Head.Pred)
			for i, t := range r.Head.Terms {
				var ty relstore.Type
				var ok bool
				var err error
				switch t.Kind {
				case datalog.TermInt:
					ty, ok = relstore.Int, true
				case datalog.TermString:
					ty, ok = relstore.String, true
				default:
					ty, ok, err = varType(r, t.Var)
					if err != nil {
						return err
					}
				}
				if !ok {
					continue
				}
				if known[name][i] && types[name][i] != ty {
					return fmt.Errorf("datalogeval: line %d col %d: predicate %q derives both integer and string values at position %d",
						r.Head.Line, r.Head.Col, r.Head.Pred, i+1)
				}
				if !known[name][i] {
					known[name][i] = true
					types[name][i] = ty
					changed = true
				}
			}
		}
	}
	for _, p := range preds {
		cols := make([]relstore.Column, arity[p])
		all := make([]int, arity[p])
		for i := range cols {
			cols[i] = relstore.Column{Name: fmt.Sprintf("c%d", i), Type: types[p][i]}
			all[i] = i
		}
		if _, err := ev.db.Create(displayName[p], cols...); err != nil {
			return err
		}
		ev.sets[p] = relstore.NewRowSet(all, 0)
		ev.stats.TempTables++
	}
	return nil
}

// evalStratum runs the fixpoint loop for one stratum (a set of mutually
// recursive predicates, lowercased).
func (ev *evaluator) evalStratum(ps *datalog.ProgramSet, level []string) error {
	ssp := ev.opts.Trace.Push("stratum", strings.Join(level, ","))
	defer ssp.End()
	inLevel := make(map[string]struct{}, len(level))
	for _, p := range level {
		inLevel[p] = struct{}{}
	}
	var rules []*compiledRule
	negCache := make(map[string]*conj.Negation)
	for _, r := range ps.IDB {
		if _, ok := inLevel[strings.ToLower(r.Head.Pred)]; !ok {
			continue
		}
		cr, err := ev.compileRule(r, negCache)
		if err != nil {
			return err
		}
		for i, a := range r.Body {
			if _, rec := inLevel[strings.ToLower(a.Pred)]; rec {
				cr.recOcc = append(cr.recOcc, i)
			}
		}
		rules = append(rules, cr)
	}
	if ev.opts.Naive {
		return ev.evalStratumNaive(rules)
	}

	// Seeding round: every rule once against the current state (stratum
	// tables empty, lower strata complete).
	rsp := ev.opts.Trace.Push("round", "seed")
	delta := make(map[string][][]relstore.Value)
	for _, cr := range rules {
		fresh, err := ev.deriveRule(cr, -1, nil)
		if err != nil {
			rsp.End()
			return err
		}
		rsp.AddRows(int64(len(fresh)))
		pred := strings.ToLower(cr.rule.Head.Pred)
		delta[pred] = append(delta[pred], fresh...)
	}
	rsp.End()
	ev.stats.Iterations++

	// Delta rounds: re-derive only through rules with a recursive atom,
	// substituting the delta for one occurrence at a time.
	for round := 1; ; round++ {
		any := false
		for _, rows := range delta {
			if len(rows) > 0 {
				any = true
				break
			}
		}
		if !any {
			return nil
		}
		rsp := ev.opts.Trace.Push("round", fmt.Sprintf("delta %d", round))
		next := make(map[string][][]relstore.Value)
		for _, cr := range rules {
			for _, occ := range cr.recOcc {
				dpred := strings.ToLower(cr.rule.Body[occ].Pred)
				if len(delta[dpred]) == 0 {
					continue
				}
				fresh, err := ev.deriveRule(cr, occ, delta[dpred])
				if err != nil {
					rsp.End()
					return err
				}
				rsp.AddRows(int64(len(fresh)))
				pred := strings.ToLower(cr.rule.Head.Pred)
				next[pred] = append(next[pred], fresh...)
			}
		}
		rsp.End()
		ev.stats.Iterations++
		delta = next
	}
}

// deriveRule evaluates one rule body (against the delta occurrence, if
// any) and inserts the result, under a per-derivation trace span whose
// row count is the fresh tuples the derivation contributed.
func (ev *evaluator) deriveRule(cr *compiledRule, deltaOcc int, deltaRows [][]relstore.Value) ([][]relstore.Value, error) {
	dsp := ev.opts.Trace.Push("rule", cr.rule.Head.String())
	if deltaOcc >= 0 {
		dsp.Set("delta_occurrence", int64(deltaOcc))
		dsp.Set("delta_rows", int64(len(deltaRows)))
	}
	defer dsp.End()
	body, err := ev.evalRuleBody(cr, deltaOcc, deltaRows)
	if err != nil {
		return nil, err
	}
	fresh, err := ev.insert(cr.rule.Head, body)
	if err != nil {
		return nil, err
	}
	dsp.AddRows(int64(len(fresh)))
	return fresh, nil
}

// evalStratumNaive is the benchmark baseline: re-evaluate every rule
// against the full relations until a full round derives nothing new.
func (ev *evaluator) evalStratumNaive(rules []*compiledRule) error {
	for round := 1; ; round++ {
		rsp := ev.opts.Trace.Push("round", fmt.Sprintf("naive %d", round))
		changed := false
		for _, cr := range rules {
			fresh, err := ev.deriveRule(cr, -1, nil)
			if err != nil {
				rsp.End()
				return err
			}
			rsp.AddRows(int64(len(fresh)))
			if len(fresh) > 0 {
				changed = true
			}
		}
		rsp.End()
		ev.stats.Iterations++
		if !changed {
			return nil
		}
	}
}

// insert drains the evaluated body pipeline, projecting each row onto
// the head terms and appending the tuples not already present, and
// returns the fresh ones (the next delta). It closes the pipeline on
// every path — this is the single materialization boundary of a rule
// evaluation, and only distinct head tuples ever materialize: each row is
// projected into one reused scratch tuple, and only a new tuple is copied
// (into the evaluator's slab), which is the copy the set and the table
// keep.
func (ev *evaluator) insert(head datalog.Atom, body relstore.RowIter) ([][]relstore.Value, error) {
	defer body.Close()
	pred := strings.ToLower(head.Pred)
	t, err := ev.db.Table(pred)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(head.Terms))
	consts := make([]relstore.Value, len(head.Terms))
	for i, term := range head.Terms {
		switch term.Kind {
		case datalog.TermVar:
			// The plan's output is exactly the head's variables (conj
			// rejects one the body does not bind), so this always resolves.
			idx[i] = slices.Index(body.Cols(), term.Var)
		case datalog.TermInt:
			idx[i] = -1
			consts[i] = relstore.IntVal(term.Int)
		case datalog.TermString:
			idx[i] = -1
			consts[i] = relstore.StrVal(term.Str)
		default:
			return nil, fmt.Errorf("datalogeval: wildcard in head of %q", head.Pred)
		}
	}
	set := ev.sets[pred]
	var fresh [][]relstore.Value
	tuple := make([]relstore.Value, len(head.Terms))
	for {
		row, ok, err := body.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for i := range tuple {
			if idx[i] < 0 {
				tuple[i] = consts[i]
			} else {
				tuple[i] = row[idx[i]]
			}
		}
		out, added := set.AddCopy(tuple, &ev.slab)
		if !added {
			continue
		}
		if err := t.Insert(out...); err != nil {
			return nil, err
		}
		ev.stats.DerivedTuples++
		if ev.opts.MaxDerivedTuples > 0 && ev.stats.DerivedTuples > ev.opts.MaxDerivedTuples {
			return nil, fmt.Errorf("%w (%d)", ErrTooManyDerived, ev.opts.MaxDerivedTuples)
		}
		fresh = append(fresh, out)
	}
	return fresh, nil
}
