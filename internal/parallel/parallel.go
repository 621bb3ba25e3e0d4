// Package parallel is the shared worker pool behind every multi-core path
// in GraphGen. A caller uses it only where 2 workers were measured to beat
// 1 on a 2-vCPU box; the ratio is a comment at the call site:
//   - the BSP superstep engine (internal/bsp);
//   - the vertex-centric supersteps (internal/vertexcentric);
//   - closeness over several 64-source batches (internal/workload);
//   - the per-entity phases of the SNB generator (internal/datagen).
//
// The Step-6 preprocessing scan (internal/core) measured flat and keeps its
// pool only while the benchmark harness passes it a worker count. The
// representation conversions and the relational pipeline are serial.
//
// The design goal is determinism, not just speed: every caller partitions
// its input into contiguous chunks, computes per-chunk results in isolation,
// and merges them in chunk order, so the output of a parallel run is
// independent of the worker count (and with one worker the code path is the
// plain serial loop, bit-for-bit identical to the pre-parallel engine).
//
// The pool is size-aware: Run falls back to the serial path when the input
// is too small for the goroutine fan-out to pay for itself, so callers can
// hand it every loop without guarding tiny inputs themselves.
package parallel

import (
	"runtime"
	"sync"
)

// minPerWorker is the default smallest chunk worth a goroutine. Below this
// the fan-out/synchronization overhead dominates the work saved.
const minPerWorker = 64

// Resolve normalizes a caller-supplied worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Chunks partitions [0, n) into at most workers contiguous [lo, hi) ranges
// of near-equal size, each holding at least min items (the last may be
// smaller). min <= 0 selects the package default. The returned ranges cover
// [0, n) exactly and in order, which is what makes chunk-order merges
// deterministic.
func Chunks(n, workers, min int) [][2]int {
	if n <= 0 {
		return nil
	}
	if min <= 0 {
		min = minPerWorker
	}
	workers = Resolve(workers)
	if workers > n/min {
		workers = n / min
	}
	if workers < 1 {
		workers = 1
	}
	out := make([][2]int, 0, workers)
	size := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// Run splits [0, n) into contiguous chunks and calls fn(chunk, lo, hi) for
// each, concurrently when it pays: with workers resolved to 1, or n below
// the size threshold, everything runs inline on the calling goroutine (the
// serial path takes no locks and spawns nothing). chunk is the dense chunk
// index callers use to stage per-chunk results for an ordered merge.
//
// fn must not touch another chunk's mutable state; reads of shared
// structures are safe because Run inserts a full barrier (WaitGroup) before
// returning.
func Run(n, workers int, fn func(chunk, lo, hi int)) int {
	return RunMin(n, workers, minPerWorker, fn)
}

// RunMin is Run with an explicit per-worker size threshold, for callers
// whose per-item work is far from the default's assumption (e.g. a
// set-cover plan per item wants min=1).
func RunMin(n, workers, min int, fn func(chunk, lo, hi int)) int {
	chunks := Chunks(n, workers, min)
	if len(chunks) == 0 {
		return 0
	}
	if len(chunks) == 1 {
		fn(0, chunks[0][0], chunks[0][1])
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for i, c := range chunks {
		go func(i, lo, hi int) {
			defer wg.Done()
			fn(i, lo, hi)
		}(i, c[0], c[1])
	}
	wg.Wait()
	return len(chunks)
}

// MapChunks computes a per-chunk value for each contiguous chunk of [0, n)
// and returns the values in chunk order — the gather half of the
// scatter/gather pattern the deterministic merges use.
func MapChunks[T any](n, workers, min int, fn func(lo, hi int) T) []T {
	chunks := Chunks(n, workers, min)
	out := make([]T, len(chunks))
	if len(chunks) == 1 {
		out[0] = fn(chunks[0][0], chunks[0][1])
		return out
	}
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for i, c := range chunks {
		go func(i, lo, hi int) {
			defer wg.Done()
			out[i] = fn(lo, hi)
		}(i, c[0], c[1])
	}
	wg.Wait()
	return out
}
