package datalog

import (
	"fmt"
	"strings"
)

// TermKind discriminates the kinds of atom arguments.
type TermKind uint8

// Term kinds.
const (
	// TermVar is a Datalog variable.
	TermVar TermKind = iota
	// TermWildcard is the anonymous variable _.
	TermWildcard
	// TermInt is an integer constant (a selection predicate).
	TermInt
	// TermString is a string constant (a selection predicate).
	TermString
)

// Term is one argument of an atom.
type Term struct {
	Kind TermKind
	Var  string
	Int  int64
	Str  string
}

// String renders the term in source form.
func (t Term) String() string {
	switch t.Kind {
	case TermVar:
		return t.Var
	case TermWildcard:
		return "_"
	case TermInt:
		return fmt.Sprintf("%d", t.Int)
	default:
		return Quote(t.Str)
	}
}

// Quote renders s as a single-quoted Datalog string literal using only the
// escape sequences the lexer understands (\\ \' \n \t), so String output
// always re-parses.
func Quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\'':
			sb.WriteString(`\'`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('\'')
	return sb.String()
}

// Atom is a predicate applied to terms: Pred(t1, ..., tn). In rule bodies
// Pred names a database table or a derived (IDB) predicate; in heads it is
// Nodes, Edges, or a derived predicate being defined.
type Atom struct {
	Pred  string
	Terms []Term
	Line  int
	Col   int
}

// String renders the atom in source form.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ", "))
}

// Vars returns the distinct variable names of the atom, in order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]struct{})
	for _, t := range a.Terms {
		if t.Kind != TermVar {
			continue
		}
		if _, dup := seen[t.Var]; dup {
			continue
		}
		seen[t.Var] = struct{}{}
		out = append(out, t.Var)
	}
	return out
}

// HasVar reports whether the atom mentions the variable.
func (a Atom) HasVar(name string) bool {
	for _, t := range a.Terms {
		if t.Kind == TermVar && t.Var == name {
			return true
		}
	}
	return false
}

// CompOp is a comparison operator usable as a rule-body literal.
type CompOp uint8

// Comparison operators.
const (
	OpEQ CompOp = iota // =
	OpNE               // !=
	OpLT               // <
	OpLE               // <=
	OpGT               // >
	OpGE               // >=
)

// String renders the operator in source form.
func (op CompOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	default:
		return ">="
	}
}

// Comparison is a body literal of the form `t1 op t2` (e.g. A != B, X < 5).
// Operands are variables or constants; wildcards are rejected at parse.
type Comparison struct {
	Op   CompOp
	L, R Term
	Line int
	Col  int
}

// String renders the comparison in source form.
func (c Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// Vars returns the distinct variable names of the comparison, in order.
func (c Comparison) Vars() []string {
	var out []string
	if c.L.Kind == TermVar {
		out = append(out, c.L.Var)
	}
	if c.R.Kind == TermVar && (c.L.Kind != TermVar || c.R.Var != c.L.Var) {
		out = append(out, c.R.Var)
	}
	return out
}

// Rule is head :- body. Body holds the positive atoms; Negated the atoms
// prefixed with `!` (or `not`); Comps the comparison literals.
type Rule struct {
	Head    Atom
	Body    []Atom
	Negated []Atom
	Comps   []Comparison
	Line    int
	Col     int
}

// String renders the rule in source form (positive atoms, then negated
// atoms, then comparisons — a reordering of the source that is logically
// identical, since body literals are a conjunction).
func (r Rule) String() string {
	parts := make([]string, 0, len(r.Body)+len(r.Negated)+len(r.Comps))
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, a := range r.Negated {
		parts = append(parts, "!"+a.String())
	}
	for _, c := range r.Comps {
		parts = append(parts, c.String())
	}
	return fmt.Sprintf("%s :- %s.", r.Head.String(), strings.Join(parts, ", "))
}

// Program is a parsed extraction query: one or more Nodes rules followed by
// one or more Edges rules (multiple statements extract heterogeneous
// graphs, Section 3.2).
type Program struct {
	Nodes []Rule
	Edges []Rule
}

// String renders the program in source form.
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Nodes {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	for _, r := range p.Edges {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ProgramSet is a parsed multi-rule Datalog program (ParseProgram): derived
// (IDB) predicate rules — possibly recursive, with stratified negation and
// comparison literals — plus the Nodes/Edges extraction rules that feed the
// graph extractor. Rules preserves source order across all three groups.
type ProgramSet struct {
	Rules []Rule
	IDB   []Rule
	Nodes []Rule
	Edges []Rule
}

// IDBPreds returns the lowercased names of the derived predicates (rule
// heads other than Nodes/Edges), each once, in first-definition order.
func (p *ProgramSet) IDBPreds() []string {
	var out []string
	seen := make(map[string]struct{})
	for _, r := range p.IDB {
		name := strings.ToLower(r.Head.Pred)
		if _, dup := seen[name]; dup {
			continue
		}
		seen[name] = struct{}{}
		out = append(out, name)
	}
	return out
}

// String renders the program set in source order.
func (p *ProgramSet) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
