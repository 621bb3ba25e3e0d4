package datalogeval

import (
	"fmt"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// This file is the oracle for filtered extraction bodies: the extraction
// planner places comparisons and negated atoms inside its chain segments,
// and every such program must extract the graph it extracted when the
// evaluator still materialized each filtered Nodes/Edges body into a
// derived predicate first (desugarExtraction, kept here verbatim).

// desugarExtraction rewrites Nodes/Edges statements whose bodies use
// negation or comparisons: the body becomes a synthetic derived predicate
// over the statement's head variables and the statement keeps one positive
// atom, which is all the extraction planner understands. Statements with
// plain positive bodies pass through untouched (so chain planning and
// condensation still apply to them).
func desugarExtraction(ps *datalog.ProgramSet) *datalog.ProgramSet {
	out := &datalog.ProgramSet{IDB: append([]datalog.Rule(nil), ps.IDB...)}
	aux := 0
	rewrite := func(r datalog.Rule) datalog.Rule {
		if len(r.Negated) == 0 && len(r.Comps) == 0 {
			return r
		}
		aux++
		name := fmt.Sprintf("__extract_body_%d", aux)
		var terms []datalog.Term
		seen := make(map[string]struct{})
		for _, t := range r.Head.Terms {
			if t.Kind != datalog.TermVar {
				continue
			}
			if _, dup := seen[t.Var]; dup {
				continue
			}
			seen[t.Var] = struct{}{}
			terms = append(terms, t)
		}
		auxHead := datalog.Atom{Pred: name, Terms: terms, Line: r.Line, Col: r.Col}
		out.IDB = append(out.IDB, datalog.Rule{
			Head: auxHead, Body: r.Body, Negated: r.Negated, Comps: r.Comps,
			Line: r.Line, Col: r.Col,
		})
		return datalog.Rule{
			Head: r.Head,
			Body: []datalog.Atom{{Pred: name, Terms: terms, Line: r.Line, Col: r.Col}},
			Line: r.Line, Col: r.Col,
		}
	}
	for _, r := range ps.Nodes {
		out.Nodes = append(out.Nodes, rewrite(r))
	}
	for _, r := range ps.Edges {
		out.Edges = append(out.Edges, rewrite(r))
	}
	out.Rules = append(append(append([]datalog.Rule(nil), out.IDB...), out.Nodes...), out.Edges...)
	return out
}

// filterDB is a small temporal co-authorship database plus the tables the
// negated atoms read: Retracted(pid), Banned(aid) and Blocked(a, b).
func filterDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := datagen.DBLPTemporal(5, 60, 90, 2000, 2019)
	retracted, err1 := db.Create("Retracted", relstore.Column{Name: "pid", Type: relstore.Int})
	banned, err2 := db.Create("Banned", relstore.Column{Name: "aid", Type: relstore.Int})
	blocked, err3 := db.Create("Blocked", relstore.Column{Name: "a", Type: relstore.Int}, relstore.Column{Name: "b", Type: relstore.Int})
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for p := int64(1_000_001); p <= 1_000_090; p += 7 {
		retracted.Insert(relstore.IntVal(p))
	}
	for a := int64(1); a <= 60; a++ {
		if a%5 == 0 {
			banned.Insert(relstore.IntVal(a))
		}
		blocked.Insert(relstore.IntVal(a), relstore.IntVal(a*7%60+1))
	}
	return db
}

// logicalGraph is what the two paths must agree on: the logical edge set
// and every vertex's N property ("" when unset).
type logicalGraph struct {
	edges map[[2]int64]bool
	props map[int64]string
}

func logical(g *core.Graph) logicalGraph {
	lg := logicalGraph{edges: make(map[[2]int64]bool), props: make(map[int64]string)}
	g.ForEachReal(func(r int32) bool {
		lg.props[g.RealID(r)], _ = g.Property(r, "N")
		g.ForNeighbors(r, func(t int32) bool {
			lg.edges[[2]int64{g.RealID(r), g.RealID(t)}] = true
			return true
		})
		return true
	})
	return lg
}

func (lg logicalGraph) diff(o logicalGraph) string {
	if len(lg.props) != len(o.props) {
		return fmt.Sprintf("%d vertices vs %d", len(lg.props), len(o.props))
	}
	for v, p := range lg.props {
		if q, ok := o.props[v]; !ok || p != q {
			return fmt.Sprintf("vertex %d: %q vs %q (present %v)", v, p, q, ok)
		}
	}
	if len(lg.edges) != len(o.edges) {
		return fmt.Sprintf("%d logical edges vs %d", len(lg.edges), len(o.edges))
	}
	for e := range lg.edges {
		if !o.edges[e] {
			return fmt.Sprintf("edge %v missing", e)
		}
	}
	return ""
}

// extractProgram is the ExtractProgram path: evaluate, then extract the
// statements as Evaluate hands them over.
func extractProgram(t *testing.T, db *relstore.DB, ps *datalog.ProgramSet, opts extract.Options) *extract.Result {
	t.Helper()
	ev, err := Evaluate(db, ps, Options{ExecOpts: opts.ExecOpts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract.Extract(ev.DB, ev.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const filterNodes = "Nodes(ID, N) :- Author(ID, N).\n"

// TestFilteredExtractionMatchesDesugared extracts every filtered program
// directly and through the desugaring oracle, under the default planner,
// forced condensation, forced expansion and kept self loops: logical
// edges and vertex properties must be identical. A program without
// derived predicates must also extract the same through Parse (the
// Engine.Extract path) as through Evaluate (Engine.ExtractProgram).
// case2 is the number of Edges rules forced condensation plans as Case 2.
func TestFilteredExtractionMatchesDesugared(t *testing.T) {
	db := filterDB(t)
	cases := []struct {
		name, src string
		case2     int
	}{
		{"comparison in segment 0", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, Y), AuthorPubYear(B, P, _), Y >= 2010.", 0},
		{"comparison on the join attribute", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), P < 1000050.", 0},
		{"comparison spanning segments", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, Y), AuthorPubYear(C, P, _), AuthorPubYear(C, Q, Z), AuthorPubYear(B, Q, _), Y < Z.", 1},
		{"ordered endpoints", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), A < B.", 1},
		{"distinct endpoints", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), A != B.", 0},
		{"constants only, true", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), 1 < 2.", 0},
		{"constants only, false", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), 'b' < 'a'.", 0},
		{"negated atom on the join attribute", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), !Retracted(P).", 0},
		{"negated atom in segment 0", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), not Banned(A).", 0},
		{"negated atom spanning segments", filterNodes +
			"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), !Blocked(A, B).", 1},
		{"filtered Nodes body",
			"Nodes(ID, N) :- Author(ID, N), !Banned(ID), ID <= 40.\n" +
				"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _).", 0},
		{"negated derived predicate",
			"Early(A) :- AuthorPubYear(A, _, Y), Y < 2004.\n" + filterNodes +
				"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, _), !Early(B).", 0},
		{"two filtered rules",
			"Nodes(ID, N) :- Author(ID, N), ID > 3.\n" +
				"Edges(A, B) :- AuthorPubYear(A, P, Y), AuthorPubYear(B, P, _), Y < 2005, !Retracted(P).\n" +
				"Edges(A, B) :- AuthorPubYear(A, P, _), AuthorPubYear(B, P, Y), Y >= 2015, A != B.", 0},
	}
	settings := []struct {
		name string
		opts func(*extract.Options)
	}{
		{"default", func(*extract.Options) {}},
		{"condensed", func(o *extract.Options) { o.ForceCondensed = true }},
		{"expanded", func(o *extract.Options) { o.ForceExpand = true }},
		{"self loops", func(o *extract.Options) { o.SelfLoops = true }},
	}
	for _, c := range cases {
		ps, err := datalog.ParseProgram(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		oracleProg := desugarExtraction(ps)
		for _, s := range settings {
			opts := extract.DefaultOptions()
			s.opts(&opts)
			what := c.name + " / " + s.name
			direct := extractProgram(t, db, ps, opts)
			want := logical(extractProgram(t, db, oracleProg, opts).Graph)
			got := logical(direct.Graph)
			if d := got.diff(want); d != "" {
				t.Fatalf("%s: direct vs desugared: %s", what, d)
			}
			if empty := len(got.edges) == 0; empty != (c.name == "constants only, false") {
				t.Fatalf("%s: %d logical edges: the case tests nothing", what, len(got.edges))
			}
			if direct.Graph.Symmetric {
				for e := range got.edges {
					if !got.edges[[2]int64{e[1], e[0]}] {
						t.Fatalf("%s: graph marked symmetric, but %v has no reverse", what, e)
					}
				}
			}
			if s.name == "condensed" && direct.Stats.Case2Rules != c.case2 {
				t.Errorf("%s: %d Case 2 rules, want %d", what, direct.Stats.Case2Rules, c.case2)
			}
			if len(ps.IDB) > 0 {
				continue
			}
			prog, err := datalog.Parse(c.src)
			if err != nil {
				t.Fatalf("%s: Parse: %v", what, err)
			}
			res, err := extract.Extract(db, prog, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if d := logical(res.Graph).diff(got); d != "" {
				t.Fatalf("%s: Parse vs ParseProgram: %s", what, d)
			}
		}
	}
}

// TestFilteredQueryExtractsCondensed is the point of planning filters into
// segments: the year-filtered co-authorship query keeps its virtual nodes
// under forced condensation (the desugared body was one atom, and had
// none), and its logical edges are still the oracle's.
func TestFilteredQueryExtractsCondensed(t *testing.T) {
	db := datagen.DBLPTemporal(2, 20000, 30000, 2000, 2019)
	src := "Nodes(ID, N) :- Author(ID, N).\n" +
		"Edges(A, B) :- AuthorPubYear(A, P, Y), AuthorPubYear(B, P, _), Y >= 2010."
	ps, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.DefaultOptions()
	opts.ForceCondensed = true
	direct := extractProgram(t, db, ps, opts)
	oracle := extractProgram(t, db, desugarExtraction(ps), opts)
	if d := logical(direct.Graph).diff(logical(oracle.Graph)); d != "" {
		t.Fatalf("direct vs desugared: %s", d)
	}
	t.Logf("virtual nodes: direct %d, desugared %d; logical edges %d",
		direct.Graph.NumVirtualNodes(), oracle.Graph.NumVirtualNodes(), direct.Graph.LogicalEdges())
	if direct.Graph.NumVirtualNodes() == 0 || oracle.Graph.NumVirtualNodes() != 0 {
		t.Fatalf("virtual nodes: direct %d, desugared %d; want some, none",
			direct.Graph.NumVirtualNodes(), oracle.Graph.NumVirtualNodes())
	}
}
