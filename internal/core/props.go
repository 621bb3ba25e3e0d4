package core

import "slices"

// This file stores vertex properties column by column: one column per
// property key, with keys interned per graph in the order they were first
// set. A column holds a value per real slot and records which slots are
// set, so an empty string and an unset property stay apart. Columns grow
// on demand: a slot past a column's end is unset, so AddRealNode touches
// no column and a graph without properties holds none.

// propColumn is the column of one property key.
type propColumn struct {
	key  string
	vals []string // by real slot (in a Frozen, by dense index)
	set  []bool   // set[r] reports that vals[r] holds a value
}

// get returns the value at slot r.
func (c *propColumn) get(r int32) (string, bool) {
	if int(r) >= len(c.set) || !c.set[r] {
		return "", false
	}
	return c.vals[r], true
}

// extend lengthens c to n slots, unset. A reallocation reserves at least
// capHint slots, the graph's real-slot capacity: after Graph.Grow a column
// reaches its final size in one step. Only Compact shrinks a column in
// place, and it zeroes the slots it cuts off, so the slots past len are
// still zero.
func (c *propColumn) extend(n, capHint int) {
	if n <= len(c.vals) {
		return
	}
	if n > cap(c.vals) {
		size := max(n, capHint, 2*cap(c.vals))
		vals := make([]string, len(c.vals), size)
		set := make([]bool, len(c.set), size)
		copy(vals, c.vals)
		copy(set, c.set)
		c.vals, c.set = vals, set
	}
	c.vals, c.set = c.vals[:n], c.set[:n]
}

// findColumn returns the column of key in cols, or nil.
func findColumn(cols []propColumn, key string) *propColumn {
	for i := range cols {
		if cols[i].key == key {
			return &cols[i]
		}
	}
	return nil
}

// lookupProperty returns the value of key at slot r of cols.
func lookupProperty(cols []propColumn, r int32, key string) (string, bool) {
	if c := findColumn(cols, key); c != nil {
		return c.get(r)
	}
	return "", false
}

// column returns g's column of key, interning the key on first use.
func (g *Graph) column(key string) *propColumn {
	if c := findColumn(g.props, key); c != nil {
		return c
	}
	g.props = append(g.props, propColumn{key: key})
	return &g.props[len(g.props)-1]
}

// gatherColumns returns cols re-indexed by order: slot i of the result is
// slot order[i] of the input. Freeze renumbers with it.
func gatherColumns(cols []propColumn, order []int32) []propColumn {
	out := make([]propColumn, len(cols))
	for k := range cols {
		c := &cols[k]
		nc := propColumn{key: c.key, vals: make([]string, len(order)), set: make([]bool, len(order))}
		for i, r := range order {
			nc.vals[i], nc.set[i] = c.get(r)
		}
		out[k] = nc
	}
	return out
}

// cloneColumns returns an independent copy of cols.
func cloneColumns(cols []propColumn) []propColumn {
	out := make([]propColumn, len(cols))
	for k, c := range cols {
		out[k] = propColumn{key: c.key, vals: slices.Clone(c.vals), set: slices.Clone(c.set)}
	}
	return out
}

// Property returns the named property of real index r.
func (g *Graph) Property(r int32, key string) (string, bool) {
	return lookupProperty(g.props, r, key)
}

// SetProperty sets a property on real index r.
func (g *Graph) SetProperty(r int32, key, value string) {
	_ = g.realID[r] // r must be a real slot
	c := g.column(key)
	c.extend(int(r)+1, cap(g.realID))
	c.vals[r], c.set[r] = value, true
}

// ForEachProperty calls fn for each property set on real index r, in the
// graph's key order (the order in which keys were first set), until fn
// returns false. It allocates nothing.
func (g *Graph) ForEachProperty(r int32, fn func(key, value string) bool) {
	for i := range g.props {
		if v, ok := g.props[i].get(r); ok && !fn(g.props[i].key, v) {
			return
		}
	}
}

// CopyProperties sets on g the properties of src's live real slots, slot r
// becoming g's slot remap[r], one column at a time in src's key order. It
// is the bulk copy for conversions that renumber the vertices (Expand,
// DEDUP-2).
func (g *Graph) CopyProperties(src *Graph, remap []int32) {
	for k := range src.props {
		sc := &src.props[k]
		c := g.column(sc.key)
		for r, ok := range sc.set {
			if !ok || src.dead[r] {
				continue
			}
			nr := remap[r]
			c.extend(int(nr)+1, cap(g.realID))
			c.vals[nr], c.set[nr] = sc.vals[r], true
		}
	}
}

// propBytes is what the columns hold: per column its key, a string header
// and a set flag per slot, and the bytes of every value set.
func propBytes(cols []propColumn) int64 {
	const stringHeader = 16
	var b int64
	for _, c := range cols {
		b += int64(len(c.key)) + int64(len(c.vals))*(stringHeader+1)
		for r, ok := range c.set {
			if ok {
				b += int64(len(c.vals[r]))
			}
		}
	}
	return b
}
