package datalog

import (
	"strings"
	"testing"
)

// wrap appends minimal Nodes/Edges statements so IDB-only fixtures satisfy
// ParseProgram's structural requirements.
func wrap(idb string) string {
	return idb + "\nNodes(A) :- R(A).\nEdges(A, B) :- R(A), R(B)."
}

func mustParseProgram(t *testing.T, src string) *ProgramSet {
	t.Helper()
	ps, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	return ps
}

func TestParseProgramRecursiveWithNegationAndComparisons(t *testing.T) {
	src := `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Distant(A, B) :- Reach(A, B), !Coauthor(A, B).
Nodes(ID, Name) :- Author(ID, Name).
Edges(A, B) :- Distant(A, B).
`
	ps := mustParseProgram(t, src)
	if len(ps.IDB) != 4 || len(ps.Nodes) != 1 || len(ps.Edges) != 1 {
		t.Fatalf("idb=%d nodes=%d edges=%d", len(ps.IDB), len(ps.Nodes), len(ps.Edges))
	}
	if got := ps.IDBPreds(); len(got) != 3 || got[0] != "coauthor" || got[1] != "reach" || got[2] != "distant" {
		t.Fatalf("IDBPreds = %v", got)
	}
	co := ps.IDB[0]
	if len(co.Comps) != 1 || co.Comps[0].Op != OpNE {
		t.Fatalf("comparison not parsed: %+v", co.Comps)
	}
	di := ps.IDB[3]
	if len(di.Negated) != 1 || di.Negated[0].Pred != "Coauthor" {
		t.Fatalf("negation not parsed: %+v", di.Negated)
	}
}

func TestParseProgramNegationKeywordAndBang(t *testing.T) {
	src := `
P(A) :- R(A), not S(A).
Q(A) :- R(A), !S(A).
Nodes(A) :- R(A).
Edges(A, B) :- P(A), Q(B).
`
	ps := mustParseProgram(t, src)
	for i := 0; i < 2; i++ {
		if len(ps.IDB[i].Negated) != 1 || ps.IDB[i].Negated[0].Pred != "S" {
			t.Fatalf("rule %d: negation = %+v", i, ps.IDB[i].Negated)
		}
	}
}

func TestParseProgramNotAsPredicateAndVariable(t *testing.T) {
	// `not` followed by '(' is an atom named not; followed by an operator
	// it is a plain variable.
	src := `
P(A) :- not(A).
Q(not) :- R(not), not < 5.
Nodes(A) :- R(A).
Edges(A, B) :- P(A), Q(B).
`
	ps := mustParseProgram(t, src)
	if ps.IDB[0].Body[0].Pred != "not" {
		t.Fatalf("atom named not: %+v", ps.IDB[0].Body)
	}
	if len(ps.IDB[1].Comps) != 1 || ps.IDB[1].Comps[0].L.Var != "not" {
		t.Fatalf("variable named not: %+v", ps.IDB[1].Comps)
	}
}

func TestParseProgramComparisonOperators(t *testing.T) {
	src := `
P(A, B) :- R(A, B), A < B, A <= 10, B > 0, B >= A, A = A, A != B, A == A.
Nodes(A) :- R(A, _).
Edges(A, B) :- P(A, B).
`
	ps := mustParseProgram(t, src)
	ops := []CompOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE, OpEQ}
	comps := ps.IDB[0].Comps
	if len(comps) != len(ops) {
		t.Fatalf("comps = %d, want %d", len(comps), len(ops))
	}
	for i, op := range ops {
		if comps[i].Op != op {
			t.Fatalf("comp %d: op = %v, want %v", i, comps[i].Op, op)
		}
	}
}

// TestParseLegacyRejectsProgramConstructs: Parse rejects derived
// predicates, the one program construct extraction cannot plan, and keeps
// the negated atoms and comparisons of Nodes/Edges bodies for the planner.
func TestParseLegacyRejectsProgramConstructs(t *testing.T) {
	if _, err := Parse(wrap(`P(A) :- R(A).`)); err == nil || !strings.Contains(err.Error(), "ExtractProgram") {
		t.Errorf("idb rule: err = %v, want mention of %q", err, "ExtractProgram")
	}
	p, err := Parse("Nodes(A) :- R(A), A > 0.\nEdges(A, B) :- R(A), R(B), !S(A, B), A != B.")
	if err != nil {
		t.Fatal(err)
	}
	if n, e := p.Nodes[0], p.Edges[0]; len(n.Comps) != 1 || len(e.Negated) != 1 || len(e.Comps) != 1 {
		t.Fatalf("filters lost: nodes %s, edges %s", n, e)
	}
}

func TestStratifyLevels(t *testing.T) {
	ps := mustParseProgram(t, `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Nodes(ID, N) :- Author(ID, N).
Edges(A, B) :- Reach(A, B).
`)
	st, err := Stratify(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Levels) != 2 {
		t.Fatalf("levels = %v, want 2", st.Levels)
	}
	if st.LevelOf["coauthor"] != 0 || st.LevelOf["reach"] != 1 {
		t.Fatalf("LevelOf = %v", st.LevelOf)
	}
}

func TestStratifyMutualRecursionOneStratum(t *testing.T) {
	ps := mustParseProgram(t, `
Even(A) :- Zero(A).
Even(B) :- Odd(A), Succ(A, B).
Odd(B) :- Even(A), Succ(A, B).
Nodes(A) :- Succ(A, _).
Edges(A, B) :- Even(A), Odd(B).
`)
	st, err := Stratify(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Levels) != 1 || len(st.Levels[0]) != 2 {
		t.Fatalf("levels = %v, want one stratum {even, odd}", st.Levels)
	}
}

// TestStratifyDiagnostics asserts that each validation failure produces its
// own distinct, recognizable error message.
func TestStratifyDiagnostics(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{
			name: "unsafe negation",
			src:  wrap(`P(A) :- R(A), !S(A, B).`),
			want: "unsafe negation",
		},
		{
			name: "negation cycle",
			src:  wrap("P(A) :- R(A), !Q(A).\nQ(A) :- R(A), !P(A)."),
			want: "negation cycle",
		},
		{
			name: "self negation cycle",
			src:  wrap(`P(A) :- R(A), !P(A).`),
			want: "negation cycle",
		},
		{
			name: "unbound head variable",
			src:  wrap(`P(A, B) :- R(A).`),
			want: "unbound head variable",
		},
		{
			name: "head variable bound only negatively",
			src:  wrap(`P(A, B) :- R(A), !S(B).`),
			want: "unbound head variable",
		},
		{
			name: "arity mismatch between definitions",
			src:  wrap("P(A) :- R(A).\nP(A, B) :- R(A), R(B)."),
			want: "predicate arity mismatch",
		},
		{
			name: "arity mismatch at use",
			src:  wrap("P(A) :- R(A).\nQ(A) :- P(A, A)."),
			want: "predicate arity mismatch",
		},
		{
			name: "unbound comparison variable",
			src:  wrap(`P(A) :- R(A), A < B.`),
			want: "unbound variable",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps := mustParseProgram(t, c.src)
			_, err := Stratify(ps)
			if err == nil {
				t.Fatalf("Stratify succeeded, want error mentioning %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestStratifyNegationOfLowerStratumOK(t *testing.T) {
	ps := mustParseProgram(t, `
Base(A, B) :- R(A, B).
TC(A, B) :- Base(A, B).
TC(A, C) :- TC(A, B), Base(B, C).
NotDirect(A, B) :- TC(A, B), !Base(A, B).
Nodes(A) :- R(A, _).
Edges(A, B) :- NotDirect(A, B).
`)
	st, err := Stratify(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Levels) != 3 {
		t.Fatalf("levels = %v, want 3", st.Levels)
	}
	if st.LevelOf["notdirect"] != 2 {
		t.Fatalf("notdirect level = %d", st.LevelOf["notdirect"])
	}
}

// TestSyntaxErrorsCarryLineAndColumn exercises a representative error from
// each parser path and asserts a real position (column > 1 where the
// offending token is mid-line).
func TestSyntaxErrorsCarryLineAndColumn(t *testing.T) {
	cases := []struct {
		name, src        string
		wantLine, minCol int
	}{
		{"missing dot", "Nodes(A) :- R(A)", 1, 2},
		{"bad term", "Nodes(A) :- R(,).", 1, 15},
		{"missing implies", "Nodes(A) R(A).", 1, 10},
		{"bad escape", `Nodes(A) :- R('x\q').`, 1, 2},
		{"stray char", "Nodes(A) :- R(A$).", 1, 16},
		{"comparison wildcard", "P(A) :- R(A), _ < 3.\nNodes(A) :- R(A).\nEdges(A,B) :- R(A), R(B).", 1, 15},
		{"second line", "Nodes(A) :- R(A).\nEdges(A,B) :- R(A,B), S(B", 2, 23},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseProgram(c.src)
			se, ok := err.(*SyntaxError)
			if !ok {
				t.Fatalf("err = %v (%T), want *SyntaxError", err, err)
			}
			if se.Line != c.wantLine {
				t.Fatalf("line = %d, want %d (%v)", se.Line, c.wantLine, se)
			}
			if se.Col < c.minCol {
				t.Fatalf("col = %d, want >= %d (%v)", se.Col, c.minCol, se)
			}
		})
	}
}

func TestProgramSetStringRoundTrip(t *testing.T) {
	src := `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Far(A, B) :- Coauthor(A, B), !Strong(A, B), A < B.
Nodes(ID, N) :- Author(ID, N, 'O\'Brien', 7).
Edges(A, B) :- Far(A, B).
`
	ps := mustParseProgram(t, src)
	out := ps.String()
	ps2, err := ParseProgram(out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if ps2.String() != out {
		t.Fatalf("render not stable:\nfirst:  %q\nsecond: %q", out, ps2.String())
	}
}

// TestParseMisspelledHeadDiagnostic: the legacy entry point must point at
// the typo'd head predicate, not at a missing-Nodes program error.
func TestParseMisspelledHeadDiagnostic(t *testing.T) {
	_, err := Parse("Node(A) :- R(A).\nEdges(A, B) :- R(A, X), R(B, X).")
	if err == nil || !strings.Contains(err.Error(), `got "Node"`) {
		t.Fatalf("err = %v, want the bad-head diagnostic naming \"Node\"", err)
	}
	se, ok := err.(*SyntaxError)
	if !ok || se.Line != 1 || se.Col != 1 {
		t.Fatalf("position = %+v, want the offending rule's position", err)
	}
}
