package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("scan", "nodes")
	if sp != nil {
		t.Fatalf("nil trace returned non-nil span")
	}
	c := tr.Push("rule", "e(x,y)")
	if c != nil {
		t.Fatalf("nil trace returned non-nil container")
	}
	// Every span method must be nil-safe: call sites carry no guards.
	sp.End()
	sp.SetStrategy("index")
	sp.SetDetail("d")
	sp.AddRows(3)
	sp.Set("k", 1)
	sp.Walk(func(*Span) { t.Fatalf("walk visited nil span") })
	if sp.Plan() != nil {
		t.Fatalf("nil span produced a plan")
	}
	if tr.Finish() != nil {
		t.Fatalf("nil trace finished to non-nil root")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTrace()
	rule := tr.Push("rule", "edges")
	a := tr.StartSpan("scan", "person")
	a.SetStrategy("index")
	a.AddRows(10)
	a.End()
	b := tr.StartSpan("join", "x")
	b.AddRows(4)
	b.End()
	rule.AddRows(4)
	rule.End()
	after := tr.StartSpan("sort", "")
	after.End()
	root := tr.Finish()

	if root.Op != "query" {
		t.Fatalf("root op = %q", root.Op)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (rule container + post-rule span)", len(root.Children))
	}
	got := root.Children[0]
	if got.Op != "rule" || len(got.Children) != 2 {
		t.Fatalf("rule container = %+v", got)
	}
	if got.Children[0].Strategy != "index" || got.Children[0].Rows != 10 {
		t.Fatalf("scan span = %+v", got.Children[0])
	}
	if root.Children[1].Op != "sort" {
		t.Fatalf("span after container End attached to %q, want root", root.Children[1].Op)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan("scan", "")
	sp.End()
	d := sp.DurationUS
	sp.End() // second End must not reset duration or touch the stack
	if sp.DurationUS != d {
		t.Fatalf("second End changed duration")
	}
	c := tr.Push("rule", "")
	c.End()
	c.End()
	root := tr.Finish()
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
}

func TestFinishEndsOpenSpans(t *testing.T) {
	tr := NewTrace()
	tr.Push("stratum", "0")
	tr.Push("round", "1")
	root := tr.Finish()
	root.Walk(func(s *Span) {
		if !s.ended {
			t.Fatalf("span %q not ended by Finish", s.Op)
		}
	})
}

func TestPlanRedactsMeasurements(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan("scan", "person")
	sp.SetStrategy("table")
	sp.AddRows(99)
	sp.Set("build_rows", 3)
	sp.End()
	root := tr.Finish()

	raw, err := json.Marshal(root.Plan())
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, forbidden := range []string{"rows", "duration", "attrs"} {
		if strings.Contains(s, forbidden) {
			t.Fatalf("plan JSON leaks %q: %s", forbidden, s)
		}
	}
	for _, want := range []string{`"op":"scan"`, `"strategy":"table"`, `"detail":"person"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan JSON missing %s: %s", want, s)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(b) != len(want) {
		t.Fatalf("len = %d", len(b))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 3)) // bounds 1, 2, 4
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Fatalf("sum = %g", s.Sum)
	}
	wantCum := []int64{2, 3, 4, 5} // <=1, <=2, <=4, <=+Inf
	if len(s.Buckets) != 4 {
		t.Fatalf("buckets = %d", len(s.Buckets))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[3].LE, 1) {
		t.Fatalf("last bucket LE = %g, want +Inf", s.Buckets[3].LE)
	}
}

func TestWritePromFormat(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 2))
	h.Observe(1)
	h.Observe(3)
	var sb strings.Builder
	h.Snapshot().WriteProm(&sb, "graphgen_test_seconds", PromLabel("route", `GET /v1/x "q"`))
	out := sb.String()
	for _, want := range []string{
		`graphgen_test_seconds_bucket{route="GET /v1/x \"q\"",le="1"} 1`,
		`le="+Inf"} 2`,
		`graphgen_test_seconds_sum{route="GET /v1/x \"q\""} 4`,
		`graphgen_test_seconds_count{route="GET /v1/x \"q\""} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, out)
		}
	}
	// Unlabeled series omit the braces entirely.
	sb.Reset()
	h.Snapshot().WriteProm(&sb, "m", "")
	if !strings.Contains(sb.String(), "m_count 2\n") {
		t.Fatalf("unlabeled count malformed:\n%s", sb.String())
	}
}

func TestRequestIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 || !ValidRequestID(id) {
			t.Fatalf("bad generated id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	for id, want := range map[string]bool{
		"abc-DEF_123":           true,
		"":                      false,
		strings.Repeat("a", 65): false,
		"inject\"quote":         false,
		"new\nline":             false,
		"semi;colon":            false,
	} {
		if got := ValidRequestID(id); got != want {
			t.Fatalf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}
