package core

// This file holds the one compaction every node-removing pass ends with.
// Real slots are tombstoned by DeleteVertexID and dropped by Compact.
// Virtual slots are freed by RemoveVirtualNode, reused by the next
// AddVirtualNode, and dropped by compactVirtual, which ends
// PreprocessExpandSmall, FlattenToSingleLayer and Compact. Both run in
// place and renumber monotonically: survivors keep their order, so every
// row keeps its order and a sorted row stays sorted. The rows of dropped
// slots become their arenas' slack (adj.go).

// slotRemap maps each slot to its rank among the live ones, and a dead
// slot to none.
func slotRemap(dead []bool) []int32 {
	remap := make([]int32, len(dead))
	var n int32
	for i, d := range dead {
		if d {
			remap[i] = none
			continue
		}
		remap[i] = n
		n++
	}
	return remap
}

// pack moves each entry of s to the slot remap gives it, drops the ones
// remap sends to none, and returns s cut to the survivors. remap covers at
// least len(s) slots and never moves one up, so the moves run forward in
// place. The cut-off tail is zeroed: nothing stays reachable from it, and
// a later append finds zero values there.
func pack[T any](s []T, remap []int32) []T {
	n := 0
	for i := range s {
		if to := remap[i]; to != none {
			s[to] = s[i]
			n++
		}
	}
	clear(s[n:])
	return s[:n]
}

// compactVirtual drops the slots of removed virtual nodes: the live ones
// are renumbered 0..NumVirtualNodes()-1 and every reference to them is
// rewritten. Apart from the virtual IDs the graph is unchanged.
func (g *Graph) compactVirtual() {
	if len(g.vFree) == 0 {
		return
	}
	remap := slotRemap(g.vDead)
	g.vLayer = pack(g.vLayer, remap)
	for _, a := range g.virtKinds() {
		a.dropSlots(remap)
	}
	if g.masks != nil {
		g.masks = pack(g.masks, remap)
	}
	g.vDead = pack(g.vDead, remap)
	g.vFree = g.vFree[:0]
	for _, a := range [...]*adjacency{&g.outVirt, &g.inVirt, &g.vInVirt, &g.vOutVirt, &g.vUndir} {
		a.remapEntries(remap)
	}
}

// Compact physically removes tombstoned real vertices: adjacency entries
// pointing at dead vertices are dropped and the survivors are renumbered
// in place. This is the batched second half of lazy deletion. Virtual
// nodes left without sources or targets go too, and their slots with
// them. A BITMAP graph keeps its masks, renumbered and packed to the
// surviving targets, so it stays duplicate-free.
func (g *Graph) Compact() {
	if g.numDead == 0 {
		return
	}
	remap := slotRemap(g.dead)
	if g.masks != nil {
		for v := range g.vLayer {
			if !g.vDead[v] {
				g.compactMasks(v, remap) // reads vOut's row before its remap
			}
		}
	}
	g.vIn.remapEntries(remap)
	g.vOut.remapEntries(remap)
	for r, id := range g.realID {
		if to := remap[r]; to != none && to != int32(r) {
			g.realIdx[id] = to
		}
	}
	g.realID = pack(g.realID, remap)
	for _, a := range g.realKinds() {
		a.dropSlots(remap)
	}
	g.outReal.remapEntries(remap)
	g.inReal.remapEntries(remap)
	for k := range g.props {
		c := &g.props[k]
		c.vals, c.set = pack(c.vals, remap), pack(c.set, remap)
	}
	g.dead = pack(g.dead, remap)
	g.numDead = 0
	for v := int32(0); int(v) < len(g.vLayer); v++ {
		if g.vDead[v] {
			continue
		}
		if len(g.vIn.row(v))+len(g.vInVirt.row(v)) == 0 || len(g.vOut.row(v))+len(g.vOutVirt.row(v)) == 0 {
			if g.mode == DEDUP2 && len(g.vOut.row(v)) > 0 {
				continue // DEDUP-2 members are reachable via undirected hops
			}
			g.RemoveVirtualNode(v)
		}
	}
	g.compactVirtual()
}
