package extract

import (
	"fmt"
	"strconv"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// LoadNodes evaluates one Nodes rule, comparisons and negated atoms
// included, and streams its rows into g as real nodes with properties
// named after the head variables; no row is kept or collected. Per ID,
// the last of the rule's distinct rows in first-occurrence order sets the
// properties, so rows (1,a),(1,b),(1,a) leave b, and a row equal to an
// earlier row of its ID changes nothing. A rule whose body is one atom
// presizes the graph's node arrays from that atom's table. It is exported
// for the per-layer benchmark, which times the node load alone.
func LoadNodes(db *relstore.DB, g *core.Graph, rule datalog.Rule, opts Options) error {
	var outVars []string
	for _, t := range rule.Head.Terms {
		if t.Kind != datalog.TermVar {
			return fmt.Errorf("extract: Nodes head terms must be variables: %s", rule.Head)
		}
		outVars = append(outVars, t.Var)
	}
	sp := opts.Trace.Push("nodes_rule", rule.Head.String())
	defer sp.End()
	body := SegmentPlan{Atoms: rule.Body, Comps: rule.Comps, Negated: rule.Negated}
	p, err := body.Compile(db, outVars, false, opts)
	if err != nil {
		return err
	}
	if len(p.Atoms) == 1 {
		g.Grow(p.Atoms[0].Table.NumRows())
	}
	ld := nodeLoad{g: g, keys: outVars[1:]}
	var distinct int64
	_, err = Stream(p, func(row relstore.Row) error {
		if row[0].T != relstore.Int {
			return fmt.Errorf("extract: node ID attribute must be an integer column (rule %s)", rule.Head)
		}
		if ld.add(row) {
			distinct++
		}
		return nil
	})
	sp.AddRows(distinct)
	return err
}

// nodeLoad streams one Nodes rule's rows into a graph. A vertex's first
// row in the rule sets its properties; a later row sets them only if it
// differs from every earlier row of the vertex. Only a vertex that repeats
// pays for that check: its rows go into a row set, and its first row,
// which nothing kept, is rebuilt from the property strings it set and the
// rule's column types. Ints print in decimal and strings as themselves, so
// that rebuild is exact while every row has the first row's column types;
// once one does not, each vertex's first row is filed as it arrives.
type nodeLoad struct {
	g    *core.Graph
	keys []string // property names: the head variables after the ID
	// state holds per real slot what the rule has seen of it: 0 no row,
	// 1 its first row, 2 its first row filed in rows.
	state []uint8
	types []relstore.Type // the column types of the rule's first row
	mixed bool            // a row's column types differed from types
	rows  *relstore.RowSet
	slab  relstore.RowSlab
	first relstore.Row // scratch for a rebuilt first row
}

// add loads one row and reports whether it is a distinct row of the rule.
func (ld *nodeLoad) add(row relstore.Row) bool {
	if ld.types == nil {
		for _, v := range row {
			ld.types = append(ld.types, v.T)
		}
	} else if !ld.mixed {
		for k, v := range row {
			ld.mixed = ld.mixed || v.T != ld.types[k]
		}
	}
	r := ld.g.AddRealNode(row[0].I)
	if int(r) >= len(ld.state) {
		ld.state = append(ld.state, make([]uint8, max(int(r)+1, 2*len(ld.state))-len(ld.state))...)
	}
	switch ld.state[r] {
	case 0:
		ld.state[r] = 1
		if ld.mixed {
			ld.file(row)
			ld.state[r] = 2
		}
	case 1:
		ld.file(ld.rebuild(r))
		ld.state[r] = 2
		fallthrough
	default:
		if !ld.file(row) {
			return false
		}
	}
	for k, key := range ld.keys {
		ld.g.SetProperty(r, key, row[k+1].String())
	}
	return true
}

// file adds a copy of row to the rows of repeated vertices and reports
// whether it was new.
func (ld *nodeLoad) file(row relstore.Row) bool {
	if ld.rows == nil {
		cols := make([]int, len(row))
		for k := range cols {
			cols[k] = k
		}
		ld.rows = relstore.NewRowSet(cols, 0)
	}
	_, added := ld.rows.AddCopy(row, &ld.slab)
	return added
}

// rebuild returns the first row of slot r, which has seen only that row
// of the rule, from the properties it set. Before the types mixed, its
// columns had the rule's first types, so an Int column's string is the
// decimal form of its value.
func (ld *nodeLoad) rebuild(r int32) relstore.Row {
	row := append(ld.first[:0], relstore.IntVal(ld.g.RealID(r)))
	for k, key := range ld.keys {
		s, _ := ld.g.Property(r, key)
		v := relstore.StrVal(s)
		if ld.types[k+1] == relstore.Int {
			i, _ := strconv.ParseInt(s, 10, 64) // printed from an int64 by Value.String
			v = relstore.IntVal(i)
		}
		row = append(row, v)
	}
	ld.first = row
	return row
}
