package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call recorded by the harness around a layer boundary.
// Name is "<layer>.<call>"; the span of a whole user operation is named
// "op.<class>" and has no parent. Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the part of the span name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory. Traced passes run on one goroutine, so
// it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID, which later spans name as their
// parent. A parent of 0 marks a whole-operation span.
//
// Probe spans replay a call the parent already made (the engine's inner
// calls cannot be wrapped from outside), so a child is not always inside
// its parent's interval; self time is therefore computed on durations.
func (r *recorder) begin(parent, op int, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// end closes a span and returns its duration in milliseconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return float64(s.dur()) / 1e6
}

// time runs f under a new span and returns the span's ID.
func (r *recorder) time(parent, op int, name string, f func()) int {
	id := r.begin(parent, op, name)
	f()
	r.end(id)
	return id
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the durations of its direct children. It is not clamped: a
// negative value says the replayed children cost more than the call they
// decompose, and keeps self times summing exactly to the whole-op time.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceSummary aggregates a traced pass.
type traceSummary struct {
	Ops int `json:"ops"`
	// LayerSelfMS is self time per operation summed by layer; the "op"
	// layer is the whole-op time no layer span covers.
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
	// SpanSelfMS is the same by span name.
	SpanSelfMS map[string]float64 `json:"span_self_ms"`
	// WholeOpMS is the mean whole-operation time.
	WholeOpMS      float64 `json:"whole_op_ms"`
	UnaccountedPct float64 `json:"unaccounted_pct"`
}

func summarizeTrace(spans []span) traceSummary {
	sum := traceSummary{
		LayerSelfMS: map[string]float64{},
		SpanSelfMS:  map[string]float64{},
	}
	self := selfTimes(spans)
	var whole int64
	for _, s := range spans {
		if s.Parent == 0 {
			sum.Ops++
			whole += s.dur()
		}
		sum.LayerSelfMS[s.layer()] += float64(self[s.ID]) / 1e6
		sum.SpanSelfMS[s.Name] += float64(self[s.ID]) / 1e6
	}
	if sum.Ops == 0 {
		return sum
	}
	n := float64(sum.Ops)
	for k := range sum.LayerSelfMS {
		sum.LayerSelfMS[k] /= n
	}
	for k := range sum.SpanSelfMS {
		sum.SpanSelfMS[k] /= n
	}
	sum.WholeOpMS = float64(whole) / 1e6 / n
	if whole > 0 {
		sum.UnaccountedPct = 100 * sum.LayerSelfMS["op"] / sum.WholeOpMS
	}
	return sum
}

// durationsMS returns the durations, in milliseconds, of every span with
// the given name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
