package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses an extraction program in the non-recursive fragment. It
// enforces the structural rules of Section 3.2: at least one Nodes
// statement, at least one Edges statement, head predicates restricted to
// Nodes/Edges, Nodes heads with >= 1 term and Edges heads with >= 2 terms
// (the ID positions), and bodies over base tables only. Bodies may carry
// negated atoms and comparison literals; the extraction planner places
// them as filters. Programs that need derived predicates or recursion must
// go through ParseProgram and the program evaluator instead.
func Parse(src string) (*Program, error) {
	// The derived-predicate check runs before the structural
	// Nodes/Edges-presence checks so a misspelled head (`Node(A) :- ...`)
	// is reported as the bad head it is, at its own position, rather than
	// as a missing-Nodes-statement program error.
	ps, err := parseProgramSet(src)
	if err != nil {
		return nil, err
	}
	if len(ps.IDB) > 0 {
		r := ps.IDB[0]
		return nil, &SyntaxError{Line: r.Head.Line, Col: r.Head.Col,
			Msg: fmt.Sprintf("head predicate must be Nodes or Edges, got %q (derived predicates need program evaluation — ExtractProgram)", r.Head.Pred)}
	}
	if err := checkPresence(ps); err != nil {
		return nil, err
	}
	return &Program{Nodes: ps.Nodes, Edges: ps.Edges}, nil
}

// ParseProgram parses a multi-rule Datalog program: any number of derived
// (IDB) predicate rules plus the Nodes/Edges extraction statements. Bodies
// may contain negated atoms and comparison literals; semantic validation
// (safety, arity consistency, stratifiability) is Stratify's job.
func ParseProgram(src string) (*ProgramSet, error) {
	ps, err := parseProgramSet(src)
	if err != nil {
		return nil, err
	}
	if err := checkPresence(ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// checkPresence enforces the structural minimum of an extraction program:
// at least one Nodes and one Edges statement.
func checkPresence(ps *ProgramSet) error {
	if len(ps.Nodes) == 0 {
		return &SyntaxError{Line: 1, Col: 1, Msg: "program needs at least one Nodes statement"}
	}
	if len(ps.Edges) == 0 {
		return &SyntaxError{Line: 1, Col: 1, Msg: "program needs at least one Edges statement"}
	}
	return nil
}

// parseProgramSet parses rules without the Nodes/Edges-presence checks, so
// the two entry points can order their diagnostics differently.
func parseProgramSet(src string) (*ProgramSet, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	ps := &ProgramSet{}
	for p.tok.kind != tokEOF {
		rule, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(rule.Head.Pred) {
		case "nodes":
			if len(rule.Head.Terms) < 1 {
				return nil, p.errAt(rule.Head, "Nodes head needs at least an ID term")
			}
			if rule.Head.Terms[0].Kind != TermVar {
				return nil, p.errAt(rule.Head, "the first Nodes term must be the ID variable")
			}
			ps.Nodes = append(ps.Nodes, rule)
		case "edges":
			if len(rule.Head.Terms) < 2 {
				return nil, p.errAt(rule.Head, "Edges head needs two ID terms")
			}
			if rule.Head.Terms[0].Kind != TermVar || rule.Head.Terms[1].Kind != TermVar {
				return nil, p.errAt(rule.Head, "the first two Edges terms must be ID variables")
			}
			ps.Edges = append(ps.Edges, rule)
		default:
			for _, t := range rule.Head.Terms {
				if t.Kind == TermWildcard {
					return nil, p.errAt(rule.Head, fmt.Sprintf("wildcard _ cannot appear in the head of %q", rule.Head.Pred))
				}
			}
			ps.IDB = append(ps.IDB, rule)
		}
		for _, a := range append(append([]Atom{}, rule.Body...), rule.Negated...) {
			lower := strings.ToLower(a.Pred)
			if lower == "nodes" || lower == "edges" {
				return nil, p.errAt(a, "Nodes/Edges cannot appear in rule bodies; define a derived predicate instead")
			}
		}
		ps.Rules = append(ps.Rules, rule)
	}
	return ps, nil
}

type parser struct {
	lex   *lexer
	tok   token
	ahead *token // one-token lookahead buffer, filled by peek
}

func (p *parser) advance() error {
	if p.ahead != nil {
		p.tok = *p.ahead
		p.ahead = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the token after the current one without consuming it.
func (p *parser) peek() (token, error) {
	if p.ahead == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.ahead = &t
	}
	return *p.ahead, nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, &SyntaxError{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected %s, got %s", what, p.tok)}
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) errAt(a Atom, msg string) error {
	return &SyntaxError{Line: a.Line, Col: a.Col, Msg: msg}
}

func (p *parser) parseRule() (Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return Rule{}, err
	}
	if _, err := p.expect(tokImplies, "':-'"); err != nil {
		return Rule{}, err
	}
	rule := Rule{Head: head, Line: head.Line, Col: head.Col}
	for {
		if err := p.parseBodyLiteral(&rule); err != nil {
			return Rule{}, err
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return Rule{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

// parseBodyLiteral parses one body literal — a positive atom, a negated
// atom (`!P(...)` or `not P(...)`), or a comparison (`X < Y`) — and appends
// it to the rule.
func (p *parser) parseBodyLiteral(rule *Rule) error {
	switch {
	case p.tok.kind == tokNot:
		if err := p.advance(); err != nil {
			return err
		}
		a, err := p.parseAtom()
		if err != nil {
			return err
		}
		rule.Negated = append(rule.Negated, a)
		return nil
	case p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "not"):
		// `not` is a negation keyword only when followed by a predicate
		// name; `not(...)` stays an atom named "not", and `not < 3` a
		// comparison on a variable named "not".
		nxt, err := p.peek()
		if err != nil {
			return err
		}
		if nxt.kind == tokIdent {
			if err := p.advance(); err != nil {
				return err
			}
			a, err := p.parseAtom()
			if err != nil {
				return err
			}
			rule.Negated = append(rule.Negated, a)
			return nil
		}
	}
	if p.tok.kind == tokIdent {
		nxt, err := p.peek()
		if err != nil {
			return err
		}
		if nxt.kind == tokLParen {
			a, err := p.parseAtom()
			if err != nil {
				return err
			}
			rule.Body = append(rule.Body, a)
			return nil
		}
	}
	// Comparison literal: term op term.
	line, col := p.tok.line, p.tok.col
	l, err := p.parseTerm()
	if err != nil {
		return err
	}
	if p.tok.kind != tokCmp {
		return &SyntaxError{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected '(' (atom) or a comparison operator, got %s", p.tok)}
	}
	op, err := compOpOf(p.tok.text)
	if err != nil {
		return &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: err.Error()}
	}
	if err := p.advance(); err != nil {
		return err
	}
	r, err := p.parseTerm()
	if err != nil {
		return err
	}
	for _, t := range []Term{l, r} {
		if t.Kind == TermWildcard {
			return &SyntaxError{Line: line, Col: col,
				Msg: "comparison operands must be variables or constants, not the wildcard _"}
		}
	}
	rule.Comps = append(rule.Comps, Comparison{Op: op, L: l, R: r, Line: line, Col: col})
	return nil
}

func compOpOf(text string) (CompOp, error) {
	switch text {
	case "=":
		return OpEQ, nil
	case "!=":
		return OpNE, nil
	case "<":
		return OpLT, nil
	case "<=":
		return OpLE, nil
	case ">":
		return OpGT, nil
	case ">=":
		return OpGE, nil
	default:
		return OpEQ, fmt.Errorf("unknown comparison operator %q", text)
	}
}

func (p *parser) parseAtom() (Atom, error) {
	name, err := p.expect(tokIdent, "predicate name")
	if err != nil {
		return Atom{}, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return Atom{}, err
	}
	atom := Atom{Pred: name.text, Line: name.line, Col: name.col}
	for {
		term, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		atom.Terms = append(atom.Terms, term)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return Atom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Atom{}, err
	}
	return atom, nil
}

func (p *parser) parseTerm() (Term, error) {
	switch p.tok.kind {
	case tokIdent:
		v := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return Term{Kind: TermVar, Var: v}, nil
	case tokUnderscore:
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return Term{Kind: TermWildcard}, nil
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return Term{}, &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: "invalid integer literal"}
		}
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return Term{Kind: TermInt, Int: n}, nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return Term{Kind: TermString, Str: s}, nil
	default:
		return Term{}, &SyntaxError{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected a term, got %s", p.tok)}
	}
}
