// Package datalog implements GraphGen's graph-extraction DSL (Section 3.2).
// Two entry points parse two fragments of the language:
//
// Parse accepts the non-recursive fragment — only the special head
// predicates Nodes and Edges, conjunctive bodies over base tables with
// negated atoms (`!P(X)` or `not P(X)`) and comparison literals (`<`, `<=`,
// `>`, `>=`, `=`, `!=`), which the extraction planner places as filters:
//
//	Nodes(ID, Name) :- Author(ID, Name).
//	Edges(ID1, ID2) :- AuthorPubYear(ID1, PubID, Y), AuthorPubYear(ID2, PubID, _), Y >= 2010.
//
// ParseProgram accepts full multi-rule programs: the same bodies plus
// derived (IDB) predicates and recursion, stratified by Stratify and
// evaluated bottom-up by internal/datalogeval:
//
//	Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
//	Reach(A, B)    :- Coauthor(A, B).
//	Reach(A, C)    :- Reach(A, B), Coauthor(B, C).
//	Nodes(ID, N)   :- Author(ID, N).
//	Edges(A, B)    :- Reach(A, B).
//
// Body atoms reference database tables or derived predicates positionally;
// terms are variables, the wildcard _, or constants (integers and quoted
// strings) which act as selection predicates. String literals accept either
// quote style and the escape sequences \', \", \\, \n, and \t.
package datalog

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokVar             // same surface form as ident; classified by parser
	tokInt
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokImplies // :-
	tokUnderscore
	tokNot // '!' (negation prefix; '!=' lexes as tokCmp)
	tokCmp // comparison operator: < <= > >= = !=  ('==' normalizes to '=')
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokImplies:
		return "':-'"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// SyntaxError reports a lexical or parse error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("datalog: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

func (l *lexer) errorf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%': // Datalog line comment
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	r := l.peek()
	switch {
	case r == '(':
		l.advance()
		return token{tokLParen, "(", line, col}, nil
	case r == ')':
		l.advance()
		return token{tokRParen, ")", line, col}, nil
	case r == ',':
		l.advance()
		return token{tokComma, ",", line, col}, nil
	case r == '.':
		l.advance()
		return token{tokDot, ".", line, col}, nil
	case r == '_' && !isIdentRune(peekAt(l, 1)):
		l.advance()
		return token{tokUnderscore, "_", line, col}, nil
	case r == ':':
		l.advance()
		if l.peek() != '-' {
			return token{}, l.errorf("expected '-' after ':'")
		}
		l.advance()
		return token{tokImplies, ":-", line, col}, nil
	case r == '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{tokCmp, "!=", line, col}, nil
		}
		return token{tokNot, "!", line, col}, nil
	case r == '=':
		l.advance()
		if l.peek() == '=' {
			l.advance()
		}
		return token{tokCmp, "=", line, col}, nil
	case r == '<':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{tokCmp, "<=", line, col}, nil
		}
		return token{tokCmp, "<", line, col}, nil
	case r == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{tokCmp, ">=", line, col}, nil
		}
		return token{tokCmp, ">", line, col}, nil
	case r == '\'' || r == '"':
		quote := r
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf("unterminated string literal")
			}
			c := l.advance()
			if c == quote {
				break
			}
			if c == '\\' {
				if l.pos >= len(l.src) {
					return token{}, l.errorf("unterminated string literal")
				}
				switch e := l.advance(); e {
				case '\\', '\'', '"':
					sb.WriteRune(e)
				case 'n':
					sb.WriteRune('\n')
				case 't':
					sb.WriteRune('\t')
				default:
					return token{}, l.errorf("unknown escape sequence \\%c in string literal", e)
				}
				continue
			}
			sb.WriteRune(c)
		}
		return token{tokString, sb.String(), line, col}, nil
	case unicode.IsDigit(r) || (r == '-' && unicode.IsDigit(peekAt(l, 1))):
		var sb strings.Builder
		sb.WriteRune(l.advance())
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			sb.WriteRune(l.advance())
		}
		return token{tokInt, sb.String(), line, col}, nil
	case isIdentStart(r):
		var sb strings.Builder
		for l.pos < len(l.src) && isIdentRune(l.peek()) {
			sb.WriteRune(l.advance())
		}
		return token{tokIdent, sb.String(), line, col}, nil
	default:
		return token{}, l.errorf("unexpected character %q", r)
	}
}

func peekAt(l *lexer, off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
