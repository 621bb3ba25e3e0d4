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
// supersteps in internal/bsp and internal/vertexcentric rely on this
// read-only contract. Mutating methods require external synchronization.
package core

import (
	"fmt"
	"maps"
	"slices"
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
	// masking duplicate traversal paths: one bit per real target of the
	// virtual node, per traversal origin (masks.go). The masks are per
	// origin, so they work forward only; in-neighbor iteration
	// deduplicates like C-DUP.
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
// Adjacency uses the paper's CSR variant, kept mutable: each adjacency
// kind is one int32 arena with a 12-byte (offset, length, capacity)
// record per node (adj.go). Rows grow and shrink in place, move to the
// arena's tail when full, and are repacked when half the arena is dead.
// Real-node deletion is lazy (Section 3.4): deleted vertices are tombstoned
// and skipped during iteration until Compact is called. A removed virtual
// node's slot is free: the next AddVirtualNode reuses it, and every pass
// that removes virtual nodes in bulk ends by dropping the free slots
// (compact.go).
//
// Nothing is allocated per vertex outside the ID map: real nodes live in
// flat per-slot arrays, adjacency in per-kind arenas, and vertex
// properties one column per key (props.go). Grow sizes the per-slot arrays
// and the ID map once before a bulk load.
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
	realIdx map[int64]int32 // external ID -> live slot
	props   []propColumn    // one column per property key, in first-set order
	dead    []bool
	numDead int

	outVirt adjacency // real -> virtual out-neighbors (u_s -> V)
	outReal adjacency // real -> direct real out-neighbors
	inVirt  adjacency // real -> virtual in-neighbors (V -> u_t)
	inReal  adjacency // real -> direct real in-neighbors

	// Virtual nodes.
	vLayer   []int32   // distance-from-source layer tag (1 = first layer)
	vIn      adjacency // real sources pointing at this virtual node
	vInVirt  adjacency // virtual sources pointing at this virtual node
	vOut     adjacency // real targets of this virtual node
	vOutVirt adjacency // virtual targets of this virtual node
	vDead    []bool
	vFree    []int32 // the dead slots, reused last-freed first

	// vOutSorted records that every vOut list is in ascending order, which
	// lets edge-existence probes binary-search it. SortAdjacency sets it,
	// Load computes it, and ConnectVirtToReal clears it on the first
	// out-of-order append (removals and the monotone remaps of compact.go
	// keep the order).
	vOutSorted bool

	// DEDUP-2: undirected virtual-virtual edges (stored on both sides).
	vUndir adjacency

	// BITMAP: per virtual node, its traversal origins and their masks
	// over vOut (masks.go). nil until the first SetBitmap; otherwise one
	// row per virtual slot. A missing mask means "traverse everything".
	masks []maskRow

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

// Grow reserves room for reals more real nodes: the ID array, the
// tombstone flags and the row records of every real-node adjacency kind
// that holds entries are sized once, so adding that many nodes (and
// setting a property on each) grows no array one node at a time. The ID map, which a Go map cannot grow in place, is
// presized only while the graph has no live nodes. Like slices.Grow it is a
// capacity hint only; the graph's contents do not change.
func (g *Graph) Grow(reals int) {
	if reals <= 0 {
		return
	}
	g.realID = slices.Grow(g.realID, reals)
	g.dead = slices.Grow(g.dead, reals)
	for _, a := range g.realKinds() {
		if a.recs != nil {
			a.recs = slices.Grow(a.recs, reals)
		}
	}
	if len(g.realIdx) == 0 {
		g.realIdx = make(map[int64]int32, reals)
	}
}

// realKinds returns the four real-node adjacency kinds.
func (g *Graph) realKinds() [4]*adjacency {
	return [4]*adjacency{&g.outVirt, &g.outReal, &g.inVirt, &g.inReal}
}

// virtKinds returns the five virtual-node adjacency kinds.
func (g *Graph) virtKinds() [5]*adjacency {
	return [5]*adjacency{&g.vIn, &g.vInVirt, &g.vOut, &g.vOutVirt, &g.vUndir}
}

// Mode returns the representation mode of the graph.
func (g *Graph) Mode() Mode { return g.mode }

// SetMode changes the representation mode. It is used by deduplication
// algorithms after they have established the target representation's
// invariants; see internal/dedup. Only a BITMAP graph holds masks, so any
// other mode drops them.
func (g *Graph) SetMode(m Mode) {
	g.mode = m
	if m != BITMAP {
		g.masks = nil
	}
}

// NumRealNodes returns the number of live real nodes.
func (g *Graph) NumRealNodes() int { return len(g.realID) - g.numDead }

// NumRealSlots returns the number of dense real-node slots including
// tombstones; valid indices are [0, NumRealSlots).
func (g *Graph) NumRealSlots() int { return len(g.realID) }

// NumVirtualNodes returns the number of live virtual nodes.
func (g *Graph) NumVirtualNodes() int { return len(g.vLayer) - len(g.vFree) }

// NumVirtualSlots returns the number of dense virtual-node slots including
// free ones.
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
	g.dead = append(g.dead, false)
	for _, a := range g.realKinds() {
		a.addSlot()
	}
	return idx
}

// AddVirtualNode adds a virtual node in the given layer (1-based from the
// source side) and returns its dense index: the slot RemoveVirtualNode
// freed last, if any, else a new one.
func (g *Graph) AddVirtualNode(layer int32) int32 {
	if layer > g.layerHint {
		g.layerHint = layer
	}
	if n := len(g.vFree); n > 0 {
		idx := g.vFree[n-1]
		g.vFree = g.vFree[:n-1]
		g.vLayer[idx] = layer
		g.vDead[idx] = false
		if g.masks != nil {
			g.masks[idx] = maskRow{}
		}
		return idx
	}
	idx := int32(len(g.vLayer))
	g.vLayer = append(g.vLayer, layer)
	g.vDead = append(g.vDead, false)
	for _, a := range g.virtKinds() {
		a.addSlot()
	}
	if g.masks != nil {
		g.masks = append(g.masks, maskRow{})
	}
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

// --- Edge construction (used by extraction, generators, and dedup) ---

// ConnectRealToVirt adds the edge u_s -> V.
func (g *Graph) ConnectRealToVirt(r, v int32) {
	g.outVirt.push(r, v, len(g.realID))
	g.vIn.push(v, r, len(g.vLayer))
}

// ConnectVirtToReal adds the edge V -> u_t.
func (g *Graph) ConnectVirtToReal(v, r int32) {
	if row := g.vOut.row(v); len(row) > 0 && row[len(row)-1] > r {
		g.vOutSorted = false
	}
	g.vOut.push(v, r, len(g.vLayer))
	g.inVirt.push(r, v, len(g.realID))
}

// ConnectVirtToVirt adds the directed edge V -> W between virtual nodes.
func (g *Graph) ConnectVirtToVirt(v, w int32) {
	g.vOutVirt.push(v, w, len(g.vLayer))
	g.vInVirt.push(w, v, len(g.vLayer))
}

// ConnectVirtUndirected adds the DEDUP-2 undirected edge V <-> W.
func (g *Graph) ConnectVirtUndirected(v, w int32) {
	g.vUndir.push(v, w, len(g.vLayer))
	g.vUndir.push(w, v, len(g.vLayer))
}

// AddDirectEdgeIdx adds the direct real edge u -> w.
func (g *Graph) AddDirectEdgeIdx(u, w int32) {
	g.outReal.push(u, w, len(g.realID))
	g.inReal.push(w, u, len(g.realID))
}

// AddMember adds real node r as both a source and a target of virtual node
// v, the common case for symmetric (undirected) extractions where
// I(V) == O(V).
func (g *Graph) AddMember(v, r int32) {
	g.ConnectRealToVirt(r, v)
	g.ConnectVirtToReal(v, r)
}

// --- Edge removal (used by deduplication algorithms) ---

// DisconnectRealToVirt removes one u_s -> V edge.
func (g *Graph) DisconnectRealToVirt(r, v int32) {
	g.outVirt.remove(r, v)
	g.vIn.remove(v, r)
}

// DisconnectVirtToReal removes one V -> u_t edge.
func (g *Graph) DisconnectVirtToReal(v, r int32) {
	g.vOut.remove(v, r)
	g.inVirt.remove(r, v)
}

// DisconnectVirtToVirt removes one V -> W edge.
func (g *Graph) DisconnectVirtToVirt(v, w int32) {
	g.vOutVirt.remove(v, w)
	g.vInVirt.remove(w, v)
}

// RemoveDirectEdgeIdx removes one direct edge u -> w.
func (g *Graph) RemoveDirectEdgeIdx(u, w int32) {
	g.outReal.remove(u, w)
	g.inReal.remove(w, u)
}

// RemoveVirtualNode deletes a virtual node and all its edges, and frees
// its slot for the next AddVirtualNode.
func (g *Graph) RemoveVirtualNode(v int32) {
	for _, r := range g.vIn.row(v) {
		g.outVirt.remove(r, v)
	}
	for _, w := range g.vInVirt.row(v) {
		g.vOutVirt.remove(w, v)
	}
	for _, r := range g.vOut.row(v) {
		g.inVirt.remove(r, v)
	}
	for _, w := range g.vOutVirt.row(v) {
		g.vInVirt.remove(w, v)
	}
	for _, w := range g.vUndir.row(v) {
		g.vUndir.remove(w, v)
	}
	for _, a := range g.virtKinds() {
		a.free(v)
	}
	if g.masks != nil {
		g.masks[v] = maskRow{}
	}
	if !g.vDead[v] {
		g.vDead[v] = true
		g.vFree = append(g.vFree, v)
	}
}

// --- Accessors for deduplication algorithms ---
//
// Each returns a row with cap == len: appending to it copies the row, and
// a row taken before a mutation keeps reading what it read then, except
// for removals from that same row, which shift it in place.

// VirtSources returns the real sources I(V) of virtual node v. The returned
// slice must not be mutated.
func (g *Graph) VirtSources(v int32) []int32 { return g.vIn.row(v) }

// VirtTargets returns the real targets O(V) of virtual node v.
func (g *Graph) VirtTargets(v int32) []int32 { return g.vOut.row(v) }

// VirtOutVirt returns the virtual out-neighbors of virtual node v.
func (g *Graph) VirtOutVirt(v int32) []int32 { return g.vOutVirt.row(v) }

// VirtInVirt returns the virtual in-neighbors of virtual node v.
func (g *Graph) VirtInVirt(v int32) []int32 { return g.vInVirt.row(v) }

// VirtUndirected returns the DEDUP-2 undirected neighbors of v.
func (g *Graph) VirtUndirected(v int32) []int32 { return g.vUndir.row(v) }

// OutVirtuals returns the virtual out-neighbors of real node r.
func (g *Graph) OutVirtuals(r int32) []int32 { return g.outVirt.row(r) }

// InVirtuals returns the virtual in-neighbors of real node r.
func (g *Graph) InVirtuals(r int32) []int32 { return g.inVirt.row(r) }

// OutDirect returns the direct real out-neighbors of real node r.
func (g *Graph) OutDirect(r int32) []int32 { return g.outReal.row(r) }

// InDirect returns the direct real in-neighbors of real node r.
func (g *Graph) InDirect(r int32) []int32 { return g.inReal.row(r) }

// SortAdjacency sorts every adjacency row. Sorted adjacency makes the
// overlap computations of the deduplication algorithms (Section 5.2) fast;
// the paper keeps neighbor lists in sorted order for the same reason.
func (g *Graph) SortAdjacency() {
	for _, a := range g.realKinds() {
		a.sortRows()
	}
	for _, a := range g.virtKinds() {
		a.sortRows()
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

// Pack copies every adjacency kind whose arena holds more than twice its
// entries into a fresh arena, rows end to end at their lengths. Growth by
// edge surgery leaves an arena up to about four times its entries: each
// row at up to double its length, and up to half the arena the space of
// moved rows (adj.go). Conversions that add edges row by row call Pack
// when they are done; a later append to a packed row moves it as usual.
func (g *Graph) Pack() {
	for _, a := range g.realKinds() {
		a.packLoose()
	}
	for _, a := range g.virtKinds() {
		a.packLoose()
	}
}

// Clone returns a deep copy of the graph, its adjacency packed: each kind
// in one exactly sized arena, every row at its length, no slack.
// Benchmarks use it to run several deduplication algorithms from the same
// C-DUP starting point.
func (g *Graph) Clone() *Graph {
	return &Graph{
		mode:       g.mode,
		SelfLoops:  g.SelfLoops,
		Symmetric:  g.Symmetric,
		realID:     append([]int64(nil), g.realID...),
		realIdx:    maps.Clone(g.realIdx),
		props:      cloneColumns(g.props),
		dead:       append([]bool(nil), g.dead...),
		numDead:    g.numDead,
		outVirt:    g.outVirt.clone(),
		outReal:    g.outReal.clone(),
		inVirt:     g.inVirt.clone(),
		inReal:     g.inReal.clone(),
		vLayer:     append([]int32(nil), g.vLayer...),
		vIn:        g.vIn.clone(),
		vInVirt:    g.vInVirt.clone(),
		vOut:       g.vOut.clone(),
		vOutVirt:   g.vOutVirt.clone(),
		vDead:      append([]bool(nil), g.vDead...),
		vFree:      slices.Clone(g.vFree),
		vOutSorted: g.vOutSorted,
		vUndir:     g.vUndir.clone(),
		masks:      cloneMasks(g.masks),
		layerHint:  g.layerHint,
	}
}
