// Package obs is GraphGen's observability substrate: operator-span
// traces for EXPLAIN/ANALYZE, fixed-bucket histograms for the serving
// tier, and request correlation IDs.
//
// The span collector is designed around one contract: when tracing is
// off it must cost nothing. Every execution layer carries a *Trace
// pointer that is nil by default; operator constructors test that one
// pointer and skip span creation entirely, and every Trace/Span method
// is safe to call on a nil receiver so call sites never need their own
// guards. A Trace is owned by a single query execution — it is not safe
// for concurrent use by multiple goroutines building spans at once, and
// the engine never shares one across queries.
package obs

import (
	"time"
)

// A Span is one node of an execution trace: an operator, a rule body, a
// stratum, or a delta round. Rows counts the tuples the node emitted
// (for containers, the tuples derived under it), and Strategy the plan
// choice the operator made (index vs table scan, probe side). The
// exported fields form the stable ANALYZE JSON rendering.
type Span struct {
	Op         string           `json:"op"`
	Detail     string           `json:"detail,omitempty"`
	Strategy   string           `json:"strategy,omitempty"`
	Rows       int64            `json:"rows"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	DurationUS int64            `json:"duration_us"`
	Children   []*Span          `json:"children,omitempty"`

	tr    *Trace
	start time.Time
	ended bool
}

// A Trace collects one query execution's span tree. The zero value is
// not useful; a nil *Trace is the tracing-off fast path — every method
// no-ops and returns nil spans.
//
// Structure is built with two primitives: StartSpan attaches a leaf to
// the current container, Push attaches a container and makes it current
// until its End. Operator spans therefore nest under whichever rule
// body, stratum, or delta round was pushed when their pipeline was
// constructed, without any thread-local state.
type Trace struct {
	root  *Span
	stack []*Span // open containers; spans attach under the top
}

// NewTrace returns a collector whose root span covers the whole query.
func NewTrace() *Trace {
	t := &Trace{}
	t.root = &Span{Op: "query", start: time.Now(), tr: t}
	t.stack = []*Span{t.root}
	return t
}

// newChild attaches a fresh span under the current container.
func (t *Trace) newChild(op, detail string) *Span {
	s := &Span{Op: op, Detail: detail, start: time.Now(), tr: t}
	top := t.stack[len(t.stack)-1]
	top.Children = append(top.Children, s)
	return s
}

// StartSpan opens a leaf span under the current container. The caller
// must End it (graphlint's spanend check enforces this); ending is
// idempotent, so iterator wrappers may End from an idempotent Close.
func (t *Trace) StartSpan(op, detail string) *Span {
	if t == nil {
		return nil
	}
	return t.newChild(op, detail)
}

// Push opens a container span: until its End, subsequent StartSpan and
// Push calls attach beneath it.
func (t *Trace) Push(op, detail string) *Span {
	if t == nil {
		return nil
	}
	s := t.newChild(op, detail)
	t.stack = append(t.stack, s)
	return s
}

// Finish ends every open span (container stack first, root last) and
// returns the completed tree. The trace must not be used afterwards.
func (t *Trace) Finish() *Span {
	if t == nil {
		return nil
	}
	for len(t.stack) > 0 {
		t.stack[len(t.stack)-1].End()
	}
	if !t.root.ended {
		t.root.end()
	}
	return t.root
}

// End records the span's duration and, if it is the current container,
// restores its parent as current. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.end()
	if t := s.tr; t != nil {
		if n := len(t.stack); n > 0 && t.stack[n-1] == s {
			t.stack = t.stack[:n-1]
		}
	}
}

func (s *Span) end() {
	s.ended = true
	s.DurationUS = time.Since(s.start).Microseconds()
}

// SetStrategy records the plan choice an operator made. Operators whose
// decision is deferred (table-join index-vs-scan) call this at first
// Next, when the decision actually happens.
func (s *Span) SetStrategy(strategy string) {
	if s != nil {
		s.Strategy = strategy
	}
}

// SetDetail replaces the span's detail string.
func (s *Span) SetDetail(detail string) {
	if s != nil {
		s.Detail = detail
	}
}

// AddRows adds n to the span's emitted-row count.
func (s *Span) AddRows(n int64) {
	if s != nil {
		s.Rows += n
	}
}

// Set records an auxiliary integer attribute (planner counters, budget
// figures) under key.
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] = v
}

// Walk visits s and every descendant, depth-first, parents before
// children. Safe on nil.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Plan returns the EXPLAIN view of the tree: operators, details, and
// strategies only, with execution measurements (rows, timing, attrs)
// removed. The result marshals to the stable plan JSON.
func (s *Span) Plan() map[string]any {
	if s == nil {
		return nil
	}
	m := map[string]any{"op": s.Op}
	if s.Detail != "" {
		m["detail"] = s.Detail
	}
	if s.Strategy != "" {
		m["strategy"] = s.Strategy
	}
	if len(s.Children) > 0 {
		kids := make([]map[string]any, 0, len(s.Children))
		for _, c := range s.Children {
			kids = append(kids, c.Plan())
		}
		m["children"] = kids
	}
	return m
}
