package datalog

import (
	"errors"
	"testing"
)

// fuzzSeeds are the inline half of the FuzzParse corpus (the other half is
// checked in under testdata/fuzz/FuzzParse): valid programs spanning the
// whole grammar, plus malformed inputs near every lexer/parser error path.
var fuzzSeeds = []string{
	// Valid: the legacy fragment.
	"Nodes(ID, Name) :- Author(ID, Name).\nEdges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).",
	"Nodes(A) :- R(A, _, 5, 'x').\nEdges(A, B) :- R(A, B, _, _).",
	// Valid: recursion, negation (both spellings), comparisons.
	"Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.\nReach(A, B) :- Coauthor(A, B).\nReach(A, C) :- Reach(A, B), Coauthor(B, C).\nNodes(ID, N) :- Author(ID, N).\nEdges(A, B) :- Reach(A, B).",
	"P(A) :- R(A), not S(A).\nQ(A) :- R(A), !S(A).\nNodes(A) :- R(A).\nEdges(A, B) :- P(A), Q(B).",
	"P(A, B) :- R(A, B), A < B, A <= 10, B > 0, B >= A, A = A, A == B.\nNodes(A) :- R(A, _).\nEdges(A, B) :- P(A, B).",
	"Q(not) :- R(not), not < 5.\nP(A) :- not(A).\nNodes(A) :- R(A).\nEdges(A, B) :- P(A), Q(B).",
	// Valid: filtered extraction bodies (Parse accepts them too).
	"Nodes(ID, N) :- Author(ID, N).\nEdges(A, B) :- AuthorPubYear(A, P, Y), AuthorPubYear(B, P, _), Y >= 2010.",
	"Nodes(ID, N) :- Author(ID, N), !Banned(ID), ID <= 40.\nEdges(A, B) :- R(A, P), R(B, P), not Retracted(P), A != B, 1 < 2.",
	"Nodes(A) :- R(A, _).\nEdges(A, B) :- R(A, C), R(C, D), R(D, B), A < D, !S(B, 'x').",
	// Valid: escapes, comments, negative ints.
	"% comment\nNodes(A) :- R(A, 'O\\'Brien', \"say \\\"hi\\\"\", 'a\\\\b\\n\\t'). // tail\nEdges(A, B) :- R(A, B), S(B, -42).",
	// Garbage and truncations.
	"",
	"Nodes(",
	"Nodes(A) :- R(A)",
	"Nodes(A) R(A).",
	"Nodes(A) :- R(A, 'x).",
	"Nodes(A) :- R(A$).",
	"Edges(A, B) :- R(A, B).",
	"P(A) :- R(A), _ < 3.\nNodes(A) :- R(A).\nEdges(A, B) :- R(A), R(B).",
	"Nodes(A) :- R(A), !.",
	"Nodes(A) :- R(A), A <.",
	"Nodes(A) :- R(A), A ! B.",
	"Nodes(9999999999999999999999) :- R(A).",
	":- R(A).",
}

// FuzzParse asserts three invariants over arbitrary input: parsing never
// panics and always fails with a positioned *SyntaxError; any program that
// parses renders (String) to source that re-parses to a stable rendering —
// so error reporting and the printer can be trusted on any input; and
// Parse succeeds exactly when ParseProgram does with no derived
// predicates, returning the same extraction statements.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ps, err := ParseProgram(src)
		p, perr := Parse(src)
		if want := err == nil && len(ps.IDB) == 0; (perr == nil) != want {
			t.Fatalf("Parse err = %v, ParseProgram err = %v: Parse must succeed exactly on programs without derived predicates", perr, err)
		}
		if perr == nil && p.String() != (&Program{Nodes: ps.Nodes, Edges: ps.Edges}).String() {
			t.Fatalf("Parse/ParseProgram disagree:\n%s\nvs\n%s", p, ps)
		}
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("non-SyntaxError from ParseProgram: %v (%T)", err, err)
			}
			if se.Line < 1 || se.Col < 1 {
				t.Fatalf("error without position: %+v", se)
			}
			return
		}
		out := ps.String()
		ps2, err := ParseProgram(out)
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v\nsource: %q\nrendered: %q", err, src, out)
		}
		if again := ps2.String(); again != out {
			t.Fatalf("rendering unstable:\nfirst:  %q\nsecond: %q", out, again)
		}
	})
}
