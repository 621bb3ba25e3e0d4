package main

import (
	"runtime"
	"time"

	"graphgen"
)

// runner is one workload set up over a fresh database. measure and traced
// run on the caller's goroutine (serving workloads start and join their
// client goroutines inside measure).
type runner interface {
	// measure drives the workload untraced for about d and returns every
	// op's latency.
	measure(d time.Duration) *window
	// traced spends about d on an untraced reference window followed by
	// the traced decomposed replay, recording spans into rec.
	traced(d time.Duration, rec *recorder) (*tracedResult, error)
	// oracle checks outputs against an independent computation, outside
	// any timed window.
	oracle() (checked, mismatched int, err error)
	dataset() datasetInfo
	clients() int
	close()
}

// window is the outcome of one measured interval.
type window struct {
	// Samples holds successful ops' latencies in milliseconds by class
	// and variant. A variant is one of a workload's distinct inputs
	// (program-recursive's tags); other workloads have one.
	Samples   map[string][][]float64
	Attempted int
	Failed    int
	Elapsed   time.Duration
	// AllocBytes is the process's TotalAlloc growth over the window.
	AllocBytes uint64
}

func newWindow() *window { return &window{Samples: map[string][][]float64{}} }

func (w *window) add(class string, variant int, ms float64) {
	vs := w.Samples[class]
	for len(vs) <= variant {
		vs = append(vs, nil)
	}
	vs[variant] = append(vs[variant], ms)
	w.Samples[class] = vs
}

func (w *window) succeeded() int { return w.Attempted - w.Failed }

// latency summarizes one class. The median is the mean of the per-variant
// medians: variants are inputs of different size run equally often, and a
// plain median over their mixture would jump between modes. With one
// variant it is the plain median. The tail is taken over all samples.
func (w *window) latency(class string) latency {
	var all, medians []float64
	for _, v := range w.Samples[class] {
		if len(v) == 0 {
			continue
		}
		all = append(all, v...)
		medians = append(medians, median(v))
	}
	l := summarize(all)
	if len(medians) > 0 {
		l.Median = mean(medians)
	}
	return l
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// detailMetric is one workload-specific per-layer number.
type detailMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedResult is the outcome of a traced pass.
type tracedResult struct {
	// Untraced is the reference window, driven the same way as the
	// traced replay; Traced holds the replay's whole-op span durations.
	// trace_overhead_pct compares the two.
	Untraced *window
	Traced   *window
	Detail   []detailMetric
}

// datasetInfo records the sizes of what a workload ran on.
type datasetInfo struct {
	Generator    string         `json:"generator"`
	Rows         map[string]int `json:"rows_per_table"`
	Vertices     int            `json:"vertices"`
	LogicalEdges int64          `json:"logical_edges"`
	StoredEdges  int64          `json:"stored_edges"`
}

// tableRows counts the rows of every table.
func tableRows(db *graphgen.DB) map[string]int {
	rows := map[string]int{}
	for _, name := range db.TableNames() {
		if t, err := db.Table(name); err == nil {
			rows[name] = t.NumRows()
		}
	}
	return rows
}

func describe(generator string, db *graphgen.DB, g *graphgen.Graph) datasetInfo {
	info := datasetInfo{Generator: generator, Rows: tableRows(db)}
	if g != nil {
		info.Vertices = g.NumVertices()
		info.LogicalEdges = g.LogicalEdges()
		info.StoredEdges = g.RepEdges()
	}
	return info
}

// totalAlloc reads the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB forces a collection and reads what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
