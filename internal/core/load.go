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
	direct, realToVirt, virtToReal, virtToVirt, undir slab
}

// slab holds int32 values end to end in chunks that are never copied:
// each new chunk is as large as the slab so far, between slabChunkMin and
// slabChunkMax values, so holding n values allocates about 4n bytes. A
// slab holds either pairs (add) or single values (push), never both, so
// a pair never straddles two chunks.
type slab struct {
	chunks [][]int32
	n      int // values held
}

const (
	slabChunkMin = 64
	slabChunkMax = 1 << 14
)

// room makes room for one more value at the end of the last chunk.
func (s *slab) room() {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		s.chunks = append(s.chunks, make([]int32, 0, min(max(s.n, slabChunkMin), slabChunkMax)))
	}
}

// add appends the pair (a, b).
func (s *slab) add(a, b int32) {
	s.room()
	k := len(s.chunks) - 1
	s.chunks[k] = append(s.chunks[k], a, b)
	s.n += 2
}

// push appends the single value a.
func (s *slab) push(a int32) {
	s.room()
	k := len(s.chunks) - 1
	s.chunks[k] = append(s.chunks[k], a)
	s.n++
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
// edges and no virtual nodes. It counts, then fills: each adjacency kind
// gets one arena cut at exact size, rows end to end in slot order with
// no slack, and a kind b records nothing for keeps no records. Each row
// lists its entries in the order b recorded them, which is the row that
// adding the same nodes and edges one at a time gives. b is not retained.
func (g *Graph) Load(b *Batch) {
	if len(g.vLayer) > 0 {
		panic("core: Load on a graph that already has virtual nodes")
	}
	nv, nr := len(b.layers), len(g.realID)
	g.vLayer = slices.Clone(b.layers)
	g.vDead = make([]bool, nv)
	if g.masks != nil {
		g.masks = make([]maskRow, nv)
	}
	for _, l := range b.layers {
		g.layerHint = max(g.layerHint, l)
	}
	deg := make([]int32, max(nr, nv))
	g.outReal.fill(&b.direct, 0, nr, deg)
	g.inReal.fill(&b.direct, 1, nr, deg)
	g.outVirt.fill(&b.realToVirt, 0, nr, deg)
	g.vIn.fill(&b.realToVirt, 1, nv, deg)
	g.vOut.fill(&b.virtToReal, 0, nv, deg)
	g.inVirt.fill(&b.virtToReal, 1, nr, deg)
	g.vOutVirt.fill(&b.virtToVirt, 0, nv, deg)
	g.vInVirt.fill(&b.virtToVirt, 1, nv, deg)
	g.vUndir.fill(&b.undir, 0, nv, deg)
	g.vOutSorted = g.vOut.sorted()
}
