package bsp

import (
	"time"

	"graphgen/internal/core"
	"graphgen/internal/parallel"
)

// PageRank runs iters rounds of damped PageRank on the BSP engine.
//
// On EXP each round is one superstep: every real node sends rank/degree
// along each out-edge. On DEDUP-1 and BITMAP each round takes two
// supersteps: reals push rank/degree to their virtual out-neighbors (and
// direct neighbors), then each virtual node aggregates and forwards one
// value per outgoing edge — the paper's virtual-node message aggregation,
// which bounds traffic at 2x the representation's edges per round. BITMAP
// virtual nodes compute per-target masked sums from their origin-tagged
// inputs. Out-degrees are precomputed (the paper notes the degree is not
// available during a superstep on condensed representations).
//
// Vertex partitions run concurrently (Options.Workers); per-vertex rank
// state is partition-private and messages only move at the barrier, so the
// results match the serial run up to float summation order.
func PageRank(g *core.Graph, iters int, damping float64, opts ...Options) (*Result, error) {
	start := time.Now() //lint:ignore determinism wall clock feeds only Result.Duration
	mode := g.Mode()
	if mode == core.CDUP {
		return nil, ErrNeedsDedup
	}
	workers := resolveOpts(opts)
	degRes, err := Degree(g, Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	deg := degRes.Values
	e := newEngine(g, workers)
	n := float64(g.NumRealNodes())
	rank := make([]float64, g.NumRealSlots())
	g.ForEachReal(func(r int32) bool {
		rank[r] = 1.0 / n
		return true
	})

	sendFromReals := func() {
		e.forReals(func(st *stage, r int32) {
			if deg[r] <= 0 {
				return
			}
			share := rank[r] / deg[r]
			for _, t := range g.OutDirect(r) {
				st.send(e.realVertex(t), message{value: share, origin: r})
			}
			for _, v := range g.OutVirtuals(r) {
				st.send(e.virtualVertex(v), message{value: share, origin: r})
			}
			if mode == core.DEDUP2 {
				// Members also reach the 1-hop virtual
				// neighborhood; route one copy per hop edge.
				for _, v := range g.OutVirtuals(r) {
					for _, w := range g.VirtUndirected(v) {
						st.send(e.virtualVertex(w), message{value: share, origin: r})
					}
				}
			}
		})
	}
	forwardFromVirtuals := func() {
		e.forVirtuals(func(st *stage, v int32) {
			msgs := e.inbox[e.virtualVertex(v)]
			if len(msgs) == 0 {
				return
			}
			switch mode {
			case core.BITMAP:
				// Per-origin masked sums. Origins must stay
				// tagged through deeper layers: the bitmaps that
				// suppress duplicate paths are keyed by origin,
				// and a diamond (two paths from one origin to
				// this virtual node) must count once — incoming
				// duplicates per origin are collapsed.
				targets := g.VirtTargets(v)
				sums := make([]float64, len(targets))
				perOrigin := make(map[int32]float64, len(msgs))
				for _, m := range msgs {
					if _, dup := perOrigin[m.origin]; dup {
						continue
					}
					perOrigin[m.origin] = m.value
					mask, ok := g.Bitmap(v, m.origin)
					for i := range targets {
						if ok && mask[i>>6]&(1<<(i&63)) == 0 {
							continue
						}
						if !ok && targets[i] == m.origin && !g.SelfLoops {
							continue
						}
						sums[i] += m.value
					}
				}
				for i, t := range targets {
					if sums[i] != 0 {
						st.send(e.realVertex(t), message{value: sums[i], origin: -1})
					}
				}
				// Forward per-origin values to deeper layers.
				// Iterate incoming messages (not the map) so the
				// forwarding order is deterministic.
				seen := make(map[int32]struct{}, len(perOrigin))
				for _, w := range g.VirtOutVirt(v) {
					clear(seen)
					for _, m := range msgs {
						if _, dup := seen[m.origin]; dup {
							continue
						}
						seen[m.origin] = struct{}{}
						st.send(e.virtualVertex(w), message{value: perOrigin[m.origin], origin: m.origin})
					}
				}
			default: // DEDUP1, DEDUP2: exactly one path per pair
				var sum float64
				perOrigin := make(map[int32]float64, len(msgs))
				for _, m := range msgs {
					sum += m.value
					if m.origin >= 0 {
						perOrigin[m.origin] += m.value
					}
				}
				for _, t := range g.VirtTargets(v) {
					out := sum
					if !g.SelfLoops {
						out -= perOrigin[t] // exclude the self path
					}
					if out != 0 {
						st.send(e.realVertex(t), message{value: out, origin: -1})
					}
				}
				for _, w := range g.VirtOutVirt(v) {
					st.send(e.virtualVertex(w), message{value: sum, origin: -1})
				}
			}
		})
	}
	applyAtReals := func() {
		e.forReals(func(_ *stage, r int32) {
			var sum float64
			for _, m := range e.inbox[e.realVertex(r)] {
				sum += m.value
			}
			rank[r] = (1-damping)/n + damping*sum
		})
	}

	for it := 0; it < iters; it++ {
		sendFromReals()
		e.sync()
		if mode == core.EXP {
			applyAtReals()
			continue
		}
		// Messages to real nodes can arrive at every intermediate
		// superstep (direct edges immediately, virtual layers later);
		// drain them into an accumulator after each sync so a swap
		// does not discard them. carried is indexed by dense real slot;
		// each worker only touches its own partition's entries.
		carried := make([]float64, g.NumRealSlots())
		drainReals := func() {
			parallel.RunMin(g.NumRealSlots(), e.workers, bspGrain, func(_, lo, hi int) {
				for r := int32(lo); r < int32(hi); r++ {
					if !g.Alive(r) {
						continue
					}
					box := e.inbox[e.realVertex(r)]
					for _, m := range box {
						carried[r] += m.value
					}
					e.inbox[e.realVertex(r)] = box[:0]
				}
			})
		}
		drainReals()
		layers := int(g.MaxLayer())
		for l := 0; l < layers; l++ {
			forwardFromVirtuals()
			e.sync()
			drainReals()
		}
		e.forReals(func(_ *stage, r int32) {
			rank[r] = (1-damping)/n + damping*carried[r]
		})
	}
	e.res.Values = rank
	e.res.Messages += degRes.Messages
	e.finish(start)
	return e.res, nil
}
