package datalog

import (
	"errors"
	"fmt"
)

// This file implements the Case 1 / Case 2 classification of Section 3.3.
// An Edges rule qualifies for condensed extraction (Case 1) when its body is
// an acyclic chain
//
//	R1(ID1, a1), R2(a1, a2), ..., Rn(a_{n-1}, ID2)
//
// where consecutive atoms share exactly one join variable and no variable
// joins more than two atoms. Everything else (cyclic bodies, multi-attribute
// joins, disconnected bodies) is Case 2 and falls back to full expansion:
// the whole body is one conjunctive query, and components that share no
// variable — a second chain, a variable-free guard atom — are
// cross-producted.

// ErrNotChain marks an Edges rule that does not qualify for condensed
// extraction; the extractor then evaluates it as a full join (Case 2).
var ErrNotChain = errors.New("datalog: rule body is not an acyclic join chain")

// ChainStep is one atom of an analyzed chain with its role annotations.
type ChainStep struct {
	Atom Atom
	// InVar is the variable connecting this atom to the previous one (or
	// ID1 for the first step); OutVar connects to the next (or ID2 for
	// the last step).
	InVar, OutVar string
}

// Chain is an Edges rule body ordered into a join path. JoinVars[i] is the
// variable joining Steps[i] to Steps[i+1].
type Chain struct {
	ID1, ID2 string
	Steps    []ChainStep
	JoinVars []string
}

// AnalyzeChain classifies rule and, for Case 1, returns its join chain.
func AnalyzeChain(rule Rule) (*Chain, error) {
	id1 := rule.Head.Terms[0].Var
	id2 := rule.Head.Terms[1].Var
	if id1 == id2 {
		return nil, fmt.Errorf("%w: the two edge endpoints use the same variable %q", ErrNotChain, id1)
	}
	atoms := rule.Body
	// Which atoms mention each variable?
	occ := make(map[string][]int)
	for i, a := range atoms {
		for _, v := range a.Vars() {
			occ[v] = append(occ[v], i)
		}
	}
	if len(occ[id1]) != 1 || len(occ[id2]) != 1 {
		return nil, fmt.Errorf("%w: each edge endpoint must occur in exactly one body atom", ErrNotChain)
	}
	start, end := occ[id1][0], occ[id2][0]
	// Single-atom special case: Edges(ID1, ID2) :- Follows(ID1, ID2).
	if len(atoms) == 1 {
		if start != 0 || end != 0 {
			return nil, ErrNotChain
		}
		return &Chain{ID1: id1, ID2: id2, Steps: []ChainStep{{Atom: atoms[0], InVar: id1, OutVar: id2}}}, nil
	}
	if start == end {
		return nil, fmt.Errorf("%w: both endpoints in one atom of a multi-atom body", ErrNotChain)
	}
	// Shared variables define the atom adjacency. A variable in 3+ atoms
	// or two atoms sharing 2+ variables breaks the simple-chain shape.
	adj := make(map[int]map[int]string) // atom -> atom -> join var
	for v, idxs := range occ {
		if v == id1 || v == id2 {
			continue
		}
		if len(idxs) == 1 {
			continue // projected-away free variable
		}
		if len(idxs) > 2 {
			return nil, fmt.Errorf("%w: variable %q joins %d atoms", ErrNotChain, v, len(idxs))
		}
		a, b := idxs[0], idxs[1]
		if adj[a] == nil {
			adj[a] = make(map[int]string)
		}
		if adj[b] == nil {
			adj[b] = make(map[int]string)
		}
		if _, dup := adj[a][b]; dup {
			return nil, fmt.Errorf("%w: atoms %d and %d share multiple join variables", ErrNotChain, a, b)
		}
		adj[a][b] = v
		adj[b][a] = v
	}
	// Walk the path from the ID1 atom; it must visit every atom exactly
	// once and terminate at the ID2 atom.
	chain := &Chain{ID1: id1, ID2: id2}
	visited := make([]bool, len(atoms))
	cur, prevVar := start, id1
	for {
		visited[cur] = true
		step := ChainStep{Atom: atoms[cur], InVar: prevVar}
		next, nextVar := -1, ""
		for n, v := range adj[cur] {
			if visited[n] {
				continue
			}
			if next != -1 {
				return nil, fmt.Errorf("%w: atom %s branches", ErrNotChain, atoms[cur])
			}
			next, nextVar = n, v
		}
		if next == -1 {
			if cur != end {
				return nil, fmt.Errorf("%w: chain from %q does not end at the %q atom", ErrNotChain, id1, id2)
			}
			step.OutVar = id2
			chain.Steps = append(chain.Steps, step)
			break
		}
		if cur == end {
			return nil, fmt.Errorf("%w: the %q atom is interior to the chain", ErrNotChain, id2)
		}
		step.OutVar = nextVar
		chain.Steps = append(chain.Steps, step)
		chain.JoinVars = append(chain.JoinVars, nextVar)
		cur, prevVar = next, nextVar
	}
	for i, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("%w: atom %s is disconnected from the chain", ErrNotChain, atoms[i])
		}
	}
	// Cycle check: a visited-once walk covering all atoms with unique
	// pairwise join vars is acyclic by construction, but an extra edge
	// between non-consecutive chain atoms would be a cycle.
	edges := 0
	for _, m := range adj {
		edges += len(m)
	}
	if edges/2 != len(atoms)-1 {
		return nil, fmt.Errorf("%w: body joins form a cycle", ErrNotChain)
	}
	return chain, nil
}

// TermIndex returns the index of the first term binding the named variable.
func (a Atom) TermIndex(name string) (int, bool) {
	for i, t := range a.Terms {
		if t.Kind == TermVar && t.Var == name {
			return i, true
		}
	}
	return 0, false
}
