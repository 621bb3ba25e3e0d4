// Package core implements GraphGen's condensed in-memory graph — the primary
// contribution of "Extracting and Analyzing Hidden Graphs from Relational
// Databases" (SIGMOD 2017).
//
// A condensed graph GC stores two kinds of nodes:
//
//   - real nodes: the entities the user asked for in a Nodes(...) statement,
//     identified externally by an int64 NodeID;
//   - virtual nodes: one per distinct value of a large-output join attribute,
//     introduced by the extraction algorithm of Section 4.2 of the paper.
//
// For two real nodes u and v, the logical edge u -> v exists iff there is a
// directed path from u's source copy (u_s) to v's target copy (v_t) in GC.
// Physically only one copy of each real node is stored: outgoing adjacency
// plays the role of u_s and incoming adjacency the role of u_t.
//
// The same storage core backs all five in-memory representations of
// Section 4.3 (C-DUP, EXP, DEDUP-1, DEDUP-2, BITMAP); the Mode field selects
// how Neighbors resolves duplicate paths. Deduplication algorithms that
// convert between representations live in internal/dedup.
//
// Concurrency: every accessor that does not mutate the graph — the
// adjacency readers (VirtSources, VirtTargets, OutDirect, OutVirtuals, ...),
// the traversals (ForNeighbors, OutDegree, HasEdgeIdx), and the size metrics
// — performs no lazy initialization and is safe for concurrent use from
// multiple goroutines. Traversal working memory comes from a pool outside
// the Graph (see neighbors.go), never from shared graph state. The parallel
// phases in internal/extract, internal/bsp, and internal/dedup rely on this
// read-only contract. Mutating methods require external synchronization (the
// parallel callers stage mutations per worker and apply them serially).
package core

import (
	"fmt"
	"slices"

	"graphgen/internal/bitset"
)

// Mode identifies the in-memory representation semantics of a Graph.
type Mode uint8

// The five in-memory representations of Section 4.3.
const (
	// CDUP is the raw condensed representation with duplicate paths;
	// Neighbors deduplicates on the fly against a pooled dense mark set
	// (see neighbors.go), so a call allocates nothing.
	CDUP Mode = iota
	// EXP is the fully expanded graph: direct real-to-real edges only.
	EXP
	// DEDUP1 is the condensed representation with duplicate paths removed
	// by edge surgery; traversal needs no visited set over real nodes. With
	// C-DUP's set reduced to one array store per neighbor, the scan gap
	// between the two is narrower here than in the paper's Figure 11.
	DEDUP1
	// DEDUP2 is the single-layer symmetric optimization using undirected
	// edges between virtual nodes (members reach through a virtual node
	// and its 1-hop virtual neighborhood).
	DEDUP2
	// BITMAP is the condensed representation with per-virtual-node bitmaps
	// masking duplicate traversal paths. The masks are per origin, so they
	// work forward only; in-neighbor iteration deduplicates like C-DUP.
	BITMAP
)

// String returns the paper's name for the representation.
func (m Mode) String() string {
	switch m {
	case CDUP:
		return "C-DUP"
	case EXP:
		return "EXP"
	case DEDUP1:
		return "DEDUP-1"
	case DEDUP2:
		return "DEDUP-2"
	case BITMAP:
		return "BITMAP"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// none marks the absence of a dense index.
const none int32 = -1

// Graph is the condensed graph storage core. All node references in the
// exported index-level API are dense indices: real nodes and virtual nodes
// live in separate index spaces.
//
// Adjacency uses the paper's CSR variant: per-node mutable in/out slices.
// Real-node deletion is lazy (Section 3.4): deleted vertices are tombstoned
// and skipped during iteration until Compact is called.
type Graph struct {
	mode Mode

	// SelfLoops controls whether a logical self edge u -> u (which arises
	// naturally from self-join extraction queries) is reported by
	// Neighbors and counted by LogicalEdges. The paper's analyses use
	// loop-free graphs, so the default is false.
	SelfLoops bool

	// Symmetric records that the logical graph is undirected (every edge
	// extracted in both directions); DEDUP-2 requires it.
	Symmetric bool

	// Real nodes.
	realID  []int64
	realIdx map[int64]int32
	props   []map[string]string
	dead    []bool
	numDead int

	outVirt [][]int32 // real -> virtual out-neighbors (u_s -> V)
	outReal [][]int32 // real -> direct real out-neighbors
	inVirt  [][]int32 // real -> virtual in-neighbors (V -> u_t)
	inReal  [][]int32 // real -> direct real in-neighbors

	// Virtual nodes.
	vLayer   []int32   // distance-from-source layer tag (1 = first layer)
	vIn      [][]int32 // real sources pointing at this virtual node
	vInVirt  [][]int32 // virtual sources pointing at this virtual node
	vOut     [][]int32 // real targets of this virtual node
	vOutVirt [][]int32 // virtual targets of this virtual node
	vDead    []bool
	vNumDead int

	// vOutSorted records that every vOut list is in ascending order, which
	// lets edge-existence probes binary-search it. SortAdjacency sets it;
	// ConnectVirtToReal clears it on the first out-of-order append
	// (removals and Compact's monotone remap keep the order).
	vOutSorted bool

	// DEDUP-2: undirected virtual-virtual edges (stored on both sides).
	vUndir [][]int32

	// BITMAP: per virtual node, per traversal-origin real node, a bitmap
	// over the virtual node's outgoing edges (vOut entries first, then
	// vOutVirt entries). A missing bitmap means "traverse everything".
	bitmaps []map[int32]*bitset.Set

	// layerHint is an upper bound on MaxLayer maintained incrementally so
	// traversals can decide in O(1) whether multi-layer bookkeeping is
	// needed. Removing virtual nodes may leave it stale-high, which only
	// costs an unnecessary visited set, never correctness.
	layerHint int32
}

// New returns an empty condensed graph in the given representation mode.
func New(mode Mode) *Graph {
	return &Graph{mode: mode, realIdx: make(map[int64]int32), vOutSorted: true}
}

// Mode returns the representation mode of the graph.
func (g *Graph) Mode() Mode { return g.mode }

// SetMode changes the representation mode. It is used by deduplication
// algorithms after they have established the target representation's
// invariants; see internal/dedup.
func (g *Graph) SetMode(m Mode) { g.mode = m }

// NumRealNodes returns the number of live real nodes.
func (g *Graph) NumRealNodes() int { return len(g.realID) - g.numDead }

// NumRealSlots returns the number of dense real-node slots including
// tombstones; valid indices are [0, NumRealSlots).
func (g *Graph) NumRealSlots() int { return len(g.realID) }

// NumVirtualNodes returns the number of live virtual nodes.
func (g *Graph) NumVirtualNodes() int { return len(g.vLayer) - g.vNumDead }

// NumVirtualSlots returns the number of dense virtual-node slots including
// tombstones.
func (g *Graph) NumVirtualSlots() int { return len(g.vLayer) }

// Alive reports whether real index r is live.
func (g *Graph) Alive(r int32) bool {
	return r >= 0 && int(r) < len(g.dead) && !g.dead[r]
}

// VirtAlive reports whether virtual index v is live.
func (g *Graph) VirtAlive(v int32) bool {
	return v >= 0 && int(v) < len(g.vDead) && !g.vDead[v]
}

// AddRealNode adds a real node with the given external ID and returns its
// dense index. Adding a duplicate ID returns the existing index.
func (g *Graph) AddRealNode(id int64) int32 {
	if idx, ok := g.realIdx[id]; ok {
		return idx
	}
	idx := int32(len(g.realID))
	g.realID = append(g.realID, id)
	g.realIdx[id] = idx
	g.props = append(g.props, nil)
	g.dead = append(g.dead, false)
	g.outVirt = append(g.outVirt, nil)
	g.outReal = append(g.outReal, nil)
	g.inVirt = append(g.inVirt, nil)
	g.inReal = append(g.inReal, nil)
	return idx
}

// AddVirtualNode adds a virtual node in the given layer (1-based from the
// source side) and returns its dense index.
func (g *Graph) AddVirtualNode(layer int32) int32 {
	idx := int32(len(g.vLayer))
	if layer > g.layerHint {
		g.layerHint = layer
	}
	g.vLayer = append(g.vLayer, layer)
	g.vIn = append(g.vIn, nil)
	g.vInVirt = append(g.vInVirt, nil)
	g.vOut = append(g.vOut, nil)
	g.vOutVirt = append(g.vOutVirt, nil)
	g.vDead = append(g.vDead, false)
	g.vUndir = append(g.vUndir, nil)
	g.bitmaps = append(g.bitmaps, nil)
	return idx
}

// RealID returns the external ID of dense real index r.
func (g *Graph) RealID(r int32) int64 { return g.realID[r] }

// RealIndex returns the dense index of external ID id.
func (g *Graph) RealIndex(id int64) (int32, bool) {
	idx, ok := g.realIdx[id]
	return idx, ok
}

// VirtLayer returns the layer tag of virtual node v.
func (g *Graph) VirtLayer(v int32) int32 { return g.vLayer[v] }

// Property returns the named property of real index r.
func (g *Graph) Property(r int32, key string) (string, bool) {
	if g.props[r] == nil {
		return "", false
	}
	val, ok := g.props[r][key]
	return val, ok
}

// SetProperty sets a property on real index r.
func (g *Graph) SetProperty(r int32, key, value string) {
	if g.props[r] == nil {
		g.props[r] = make(map[string]string, 1)
	}
	g.props[r][key] = value
}

// Properties returns the property map of real index r (nil when the node has
// none). The returned map must not be mutated.
func (g *Graph) Properties(r int32) map[string]string { return g.props[r] }

// --- Edge construction (used by extraction, generators, and dedup) ---

// ConnectRealToVirt adds the edge u_s -> V.
func (g *Graph) ConnectRealToVirt(r, v int32) {
	g.outVirt[r] = append(g.outVirt[r], v)
	g.vIn[v] = append(g.vIn[v], r)
}

// ConnectVirtToReal adds the edge V -> u_t.
func (g *Graph) ConnectVirtToReal(v, r int32) {
	if n := len(g.vOut[v]); n > 0 && g.vOut[v][n-1] > r {
		g.vOutSorted = false
	}
	g.vOut[v] = append(g.vOut[v], r)
	g.inVirt[r] = append(g.inVirt[r], v)
}

// ConnectVirtToVirt adds the directed edge V -> W between virtual nodes.
func (g *Graph) ConnectVirtToVirt(v, w int32) {
	g.vOutVirt[v] = append(g.vOutVirt[v], w)
	g.vInVirt[w] = append(g.vInVirt[w], v)
}

// ConnectVirtUndirected adds the DEDUP-2 undirected edge V <-> W.
func (g *Graph) ConnectVirtUndirected(v, w int32) {
	g.vUndir[v] = append(g.vUndir[v], w)
	g.vUndir[w] = append(g.vUndir[w], v)
}

// AddDirectEdgeIdx adds the direct real edge u -> w.
func (g *Graph) AddDirectEdgeIdx(u, w int32) {
	g.outReal[u] = append(g.outReal[u], w)
	g.inReal[w] = append(g.inReal[w], u)
}

// AddMember adds real node r as both a source and a target of virtual node
// v, the common case for symmetric (undirected) extractions where
// I(V) == O(V).
func (g *Graph) AddMember(v, r int32) {
	g.ConnectRealToVirt(r, v)
	g.ConnectVirtToReal(v, r)
}

// --- Edge removal (used by deduplication algorithms) ---

func removeOne(s []int32, x int32) []int32 {
	for i, e := range s {
		if e == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// DisconnectRealToVirt removes one u_s -> V edge.
func (g *Graph) DisconnectRealToVirt(r, v int32) {
	g.outVirt[r] = removeOne(g.outVirt[r], v)
	g.vIn[v] = removeOne(g.vIn[v], r)
}

// DisconnectVirtToReal removes one V -> u_t edge.
func (g *Graph) DisconnectVirtToReal(v, r int32) {
	g.vOut[v] = removeOne(g.vOut[v], r)
	g.inVirt[r] = removeOne(g.inVirt[r], v)
}

// DisconnectVirtToVirt removes one V -> W edge.
func (g *Graph) DisconnectVirtToVirt(v, w int32) {
	g.vOutVirt[v] = removeOne(g.vOutVirt[v], w)
	g.vInVirt[w] = removeOne(g.vInVirt[w], v)
}

// DisconnectVirtUndirected removes the undirected edge V <-> W.
func (g *Graph) DisconnectVirtUndirected(v, w int32) {
	g.vUndir[v] = removeOne(g.vUndir[v], w)
	g.vUndir[w] = removeOne(g.vUndir[w], v)
}

// RemoveDirectEdgeIdx removes one direct edge u -> w.
func (g *Graph) RemoveDirectEdgeIdx(u, w int32) {
	g.outReal[u] = removeOne(g.outReal[u], w)
	g.inReal[w] = removeOne(g.inReal[w], u)
}

// RemoveVirtualNode deletes a virtual node and all its edges.
func (g *Graph) RemoveVirtualNode(v int32) {
	for _, r := range g.vIn[v] {
		g.outVirt[r] = removeOne(g.outVirt[r], v)
	}
	for _, w := range g.vInVirt[v] {
		g.vOutVirt[w] = removeOne(g.vOutVirt[w], v)
	}
	for _, r := range g.vOut[v] {
		g.inVirt[r] = removeOne(g.inVirt[r], v)
	}
	for _, w := range g.vOutVirt[v] {
		g.vInVirt[w] = removeOne(g.vInVirt[w], v)
	}
	for _, w := range g.vUndir[v] {
		g.vUndir[w] = removeOne(g.vUndir[w], v)
	}
	g.vIn[v], g.vInVirt[v], g.vOut[v], g.vOutVirt[v], g.vUndir[v] = nil, nil, nil, nil, nil
	g.bitmaps[v] = nil
	if !g.vDead[v] {
		g.vDead[v] = true
		g.vNumDead++
	}
}

// --- Accessors for deduplication algorithms ---

// VirtSources returns the real sources I(V) of virtual node v. The returned
// slice must not be mutated.
func (g *Graph) VirtSources(v int32) []int32 { return g.vIn[v] }

// VirtTargets returns the real targets O(V) of virtual node v.
func (g *Graph) VirtTargets(v int32) []int32 { return g.vOut[v] }

// VirtOutVirt returns the virtual out-neighbors of virtual node v.
func (g *Graph) VirtOutVirt(v int32) []int32 { return g.vOutVirt[v] }

// VirtInVirt returns the virtual in-neighbors of virtual node v.
func (g *Graph) VirtInVirt(v int32) []int32 { return g.vInVirt[v] }

// VirtUndirected returns the DEDUP-2 undirected neighbors of v.
func (g *Graph) VirtUndirected(v int32) []int32 { return g.vUndir[v] }

// OutVirtuals returns the virtual out-neighbors of real node r.
func (g *Graph) OutVirtuals(r int32) []int32 { return g.outVirt[r] }

// InVirtuals returns the virtual in-neighbors of real node r.
func (g *Graph) InVirtuals(r int32) []int32 { return g.inVirt[r] }

// OutDirect returns the direct real out-neighbors of real node r.
func (g *Graph) OutDirect(r int32) []int32 { return g.outReal[r] }

// InDirect returns the direct real in-neighbors of real node r.
func (g *Graph) InDirect(r int32) []int32 { return g.inReal[r] }

// SetBitmap attaches a traversal bitmap for origin real node r at virtual
// node v. The bitmap indexes v's outgoing edges: vOut entries first,
// followed by vOutVirt entries.
func (g *Graph) SetBitmap(v, r int32, b *bitset.Set) {
	if g.bitmaps[v] == nil {
		g.bitmaps[v] = make(map[int32]*bitset.Set)
	}
	g.bitmaps[v][r] = b
}

// Bitmap returns the traversal bitmap for origin r at virtual node v.
func (g *Graph) Bitmap(v, r int32) (*bitset.Set, bool) {
	if g.bitmaps[v] == nil {
		return nil, false
	}
	b, ok := g.bitmaps[v][r]
	return b, ok
}

// RemoveBitmap drops the bitmap for origin r at virtual node v.
func (g *Graph) RemoveBitmap(v, r int32) {
	if g.bitmaps[v] != nil {
		delete(g.bitmaps[v], r)
	}
}

// ForEachBitmap calls fn for every (origin, bitmap) pair stored at virtual
// node v. Iteration order is unspecified.
func (g *Graph) ForEachBitmap(v int32, fn func(origin int32, b *bitset.Set)) {
	for origin, b := range g.bitmaps[v] {
		fn(origin, b)
	}
}

// NumBitmaps returns the total number of bitmaps stored in the graph.
func (g *Graph) NumBitmaps() int {
	n := 0
	for _, m := range g.bitmaps {
		n += len(m)
	}
	return n
}

// SortAdjacency sorts every adjacency slice. Sorted adjacency makes the
// overlap computations of the deduplication algorithms (Section 5.2) fast;
// the paper keeps neighbor lists in sorted order for the same reason.
func (g *Graph) SortAdjacency() {
	for r := range g.realID {
		slices.Sort(g.outVirt[r])
		slices.Sort(g.outReal[r])
		slices.Sort(g.inVirt[r])
		slices.Sort(g.inReal[r])
	}
	for v := range g.vLayer {
		slices.Sort(g.vIn[v])
		slices.Sort(g.vInVirt[v])
		slices.Sort(g.vOut[v])
		slices.Sort(g.vOutVirt[v])
		slices.Sort(g.vUndir[v])
	}
	g.vOutSorted = true
}

// MaxLayer returns the maximum virtual-node layer (0 when the graph has no
// virtual nodes). A graph is multi-layer when MaxLayer > 1, i.e. it contains
// a directed path of length > 2 (Section 4.1).
func (g *Graph) MaxLayer() int32 {
	var max int32
	for v, l := range g.vLayer {
		if !g.vDead[v] && l > max {
			max = l
		}
	}
	g.layerHint = max
	return max
}

// multiLayer reports (in O(1), possibly conservatively) whether the graph
// may contain more than one layer of virtual nodes.
func (g *Graph) multiLayer() bool { return g.layerHint > 1 }

// Clone returns a deep copy of the graph. Benchmarks use it to run several
// deduplication algorithms from the same C-DUP starting point.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		mode:       g.mode,
		SelfLoops:  g.SelfLoops,
		Symmetric:  g.Symmetric,
		realID:     append([]int64(nil), g.realID...),
		realIdx:    make(map[int64]int32, len(g.realIdx)),
		props:      make([]map[string]string, len(g.props)),
		dead:       append([]bool(nil), g.dead...),
		numDead:    g.numDead,
		outVirt:    cloneAdj(g.outVirt),
		outReal:    cloneAdj(g.outReal),
		inVirt:     cloneAdj(g.inVirt),
		inReal:     cloneAdj(g.inReal),
		vLayer:     append([]int32(nil), g.vLayer...),
		vIn:        cloneAdj(g.vIn),
		vInVirt:    cloneAdj(g.vInVirt),
		vOut:       cloneAdj(g.vOut),
		vOutVirt:   cloneAdj(g.vOutVirt),
		vDead:      append([]bool(nil), g.vDead...),
		vNumDead:   g.vNumDead,
		vOutSorted: g.vOutSorted,
		vUndir:     cloneAdj(g.vUndir),
		bitmaps:    make([]map[int32]*bitset.Set, len(g.bitmaps)),
		layerHint:  g.layerHint,
	}
	for id, idx := range g.realIdx {
		ng.realIdx[id] = idx
	}
	for i, p := range g.props {
		if p != nil {
			np := make(map[string]string, len(p))
			for k, v := range p {
				np[k] = v
			}
			ng.props[i] = np
		}
	}
	for i, m := range g.bitmaps {
		if m != nil {
			nm := make(map[int32]*bitset.Set, len(m))
			for k, b := range m {
				nm[k] = b.Clone()
			}
			ng.bitmaps[i] = nm
		}
	}
	return ng
}

func cloneAdj(a [][]int32) [][]int32 {
	na := make([][]int32, len(a))
	for i, s := range a {
		if s != nil {
			na[i] = append([]int32(nil), s...)
		}
	}
	return na
}
