package core

import "slices"

// Batch records a graph's virtual nodes and edges for one Load. Its
// methods mirror the Graph construction methods of the same names (and
// AddUndirectedNeighbor half of ConnectVirtUndirected), but record
// instead of appending to rows: virtual nodes are numbered in the
// order they are added, each with its layer, and each edge kind keeps its
// (source, target) pairs end to end in one pair slab, in call order. A
// builder that adds through either a *Graph or a *Batch therefore builds
// the same graph both ways, and the batch way grows no row one append at
// a time. The zero value is empty and ready to use.
type Batch struct {
	layers []int32
	// undir holds half-edges: (v, w) lists w among v's undirected
	// neighbours.
	direct, realToVirt, virtToReal, virtToVirt, undir pairSlab
}

// pairSlab holds pairs end to end in chunks that are never copied: each
// new chunk is as large as the slab so far, between pairChunkMin and
// pairChunkMax values, so recording n pairs allocates about 8n bytes.
type pairSlab struct {
	chunks [][]int32
	n      int // values held
}

const (
	pairChunkMin = 64
	pairChunkMax = 1 << 14
)

func (s *pairSlab) add(a, b int32) {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		s.chunks = append(s.chunks, make([]int32, 0, min(max(s.n, pairChunkMin), pairChunkMax)))
		k++
	}
	s.chunks[k] = append(s.chunks[k], a, b)
	s.n += 2
}

// AddVirtualNode records a virtual node in the given layer and returns the
// index it will have in the loaded graph.
func (b *Batch) AddVirtualNode(layer int32) int32 {
	b.layers = append(b.layers, layer)
	return int32(len(b.layers) - 1)
}

// AddDirectEdgeIdx records the direct real edge u -> w.
func (b *Batch) AddDirectEdgeIdx(u, w int32) { b.direct.add(u, w) }

// ConnectRealToVirt records the edge u_s -> V.
func (b *Batch) ConnectRealToVirt(r, v int32) { b.realToVirt.add(r, v) }

// ConnectVirtToReal records the edge V -> u_t.
func (b *Batch) ConnectVirtToReal(v, r int32) { b.virtToReal.add(v, r) }

// ConnectVirtToVirt records the directed edge V -> W between virtual nodes.
func (b *Batch) ConnectVirtToVirt(v, w int32) { b.virtToVirt.add(v, w) }

// AddUndirectedNeighbor records one half of a DEDUP-2 undirected edge: w
// among v's undirected neighbours. Each half is recorded on its own, so a
// builder that holds each virtual node's neighbour list in an order of its
// own gets rows in that order; Graph.ConnectVirtUndirected(v, w) is the
// halves (v, w) and (w, v).
func (b *Batch) AddUndirectedNeighbor(v, w int32) { b.undir.add(v, w) }

// Load writes b into g, which must hold real nodes and nothing else: no
// edges and no virtual nodes. It counts, then fills: every row is cut at
// its exact size from one backing array per adjacency kind, so each has
// len == cap and a later append to it reallocates instead of writing into
// a neighbour. Each row lists its entries in the order b recorded them,
// which is the row that adding the same nodes and edges one at a time
// gives. b is not retained.
func (g *Graph) Load(b *Batch) {
	if len(g.vLayer) > 0 {
		panic("core: Load on a graph that already has virtual nodes")
	}
	nv := len(b.layers)
	g.vLayer = slices.Clone(b.layers)
	g.vIn = make([][]int32, nv)
	g.vInVirt = make([][]int32, nv)
	g.vOut = make([][]int32, nv)
	g.vOutVirt = make([][]int32, nv)
	g.vDead = make([]bool, nv)
	g.vUndir = make([][]int32, nv)
	if g.masks != nil {
		g.masks = make([]maskRow, nv)
	}
	for _, l := range b.layers {
		g.layerHint = max(g.layerHint, l)
	}
	deg := make([]int32, max(len(g.realID), nv))
	fillRows(g.outReal, &b.direct, 0, deg)
	fillRows(g.inReal, &b.direct, 1, deg)
	fillRows(g.outVirt, &b.realToVirt, 0, deg)
	fillRows(g.vIn, &b.realToVirt, 1, deg)
	fillRows(g.vOut, &b.virtToReal, 0, deg)
	fillRows(g.inVirt, &b.virtToReal, 1, deg)
	fillRows(g.vOutVirt, &b.virtToVirt, 0, deg)
	fillRows(g.vInVirt, &b.virtToVirt, 1, deg)
	fillRows(g.vUndir, &b.undir, 0, deg)
	g.vOutSorted = !slices.ContainsFunc(g.vOut, func(row []int32) bool { return !slices.IsSorted(row) })
}

// fillRows gives each node on one side of pairs (side 0: the sources, 1:
// the targets) its row of partners, in pair order, cut at its exact size
// from one backing array. deg is scratch of at least len(rows).
func fillRows(rows [][]int32, pairs *pairSlab, side int, deg []int32) {
	if pairs.n == 0 {
		return
	}
	deg = deg[:len(rows)]
	clear(deg)
	for _, c := range pairs.chunks {
		for i := side; i < len(c); i += 2 {
			deg[c[i]]++
		}
	}
	arena := make([]int32, pairs.n/2)
	for k, d := range deg {
		if d > 0 {
			rows[k] = arena[:0:d]
			arena = arena[d:]
		}
	}
	for _, c := range pairs.chunks {
		for i := 0; i < len(c); i += 2 {
			k := c[i+side]
			rows[k] = append(rows[k], c[i+1-side])
		}
	}
}

// CompactVirtual drops the slots of removed virtual nodes, in place: the
// live ones keep their order and are renumbered 0..NumVirtualNodes()-1,
// and every reference to them is rewritten. The renumbering is monotone,
// so each row keeps its order and a sorted row stays sorted; apart from
// the virtual IDs the graph is unchanged.
func (g *Graph) CompactVirtual() {
	if g.vNumDead == 0 {
		return
	}
	rows := [...]*[][]int32{&g.vIn, &g.vInVirt, &g.vOut, &g.vOutVirt, &g.vUndir}
	remap := make([]int32, len(g.vLayer))
	var n int32
	for v := range g.vLayer {
		if g.vDead[v] {
			remap[v] = none
			continue
		}
		remap[v] = n
		g.vLayer[n] = g.vLayer[v]
		for _, a := range rows {
			(*a)[n] = (*a)[v]
		}
		if g.masks != nil {
			g.masks[n] = g.masks[v]
		}
		n++
	}
	for _, a := range rows {
		clear((*a)[n:])
		*a = (*a)[:n]
	}
	if g.masks != nil {
		clear(g.masks[n:])
		g.masks = g.masks[:n]
	}
	g.vLayer = g.vLayer[:n]
	g.vDead = g.vDead[:n]
	clear(g.vDead)
	g.vNumDead = 0
	for _, a := range [...][][]int32{g.outVirt, g.inVirt, g.vInVirt, g.vOutVirt, g.vUndir} {
		for _, row := range a {
			for i, v := range row {
				row[i] = remap[v]
			}
		}
	}
}
