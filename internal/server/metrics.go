package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphgen"
	"graphgen/internal/incremental"
	"graphgen/internal/obs"
)

// Histogram bucket schemes. Latency buckets cover 1ms..~32s in powers of
// two — below 1ms a serving-tier histogram measures scheduler noise, and
// a request over 32s has already failed operationally. The evaluation
// histograms bucket whole programs: depth (total semi-naive iterations,
// powers of two up to ~half a million) and derived tuples (powers of
// four up to ~a billion, the budget guard's order of magnitude).
var (
	latencyBounds     = obs.ExpBuckets(0.001, 2, 16)
	evalDepthBounds   = obs.ExpBuckets(1, 2, 20)
	evalDerivedBounds = obs.ExpBuckets(1, 4, 16)
)

// RouteStats is the marshaled per-route view in /metrics: request count
// split by status class, the worst single request, and the full latency
// distribution (seconds; cumulative exponential buckets).
type RouteStats struct {
	Count int64 `json:"count"`
	// Errors counts responses with status >= 400 (the sum of the 4xx and
	// 5xx classes), kept as a flat field for dashboards and back-compat.
	Errors int64 `json:"errors"`
	// Status splits Count by status class: "2xx", "4xx", "5xx" (any
	// other class appears under its own "Nxx" key).
	Status  map[string]int64 `json:"status"`
	MaxMS   float64          `json:"max_ms"`
	Latency obs.HistSnapshot `json:"latency_seconds"`
}

// routeEntry is the live (locked) form behind one RouteStats.
type routeEntry struct {
	count  int64
	status map[string]int64
	maxNS  int64
	hist   *obs.Histogram
}

// EvalStats aggregates the Datalog evaluation counters of every
// program-built session since daemon start: how many programs ran, the
// total strata, semi-naive iterations, and derived tuples their
// evaluations cost, and the largest peak-intermediate-row footprint any
// single evaluation reached (a high-water mark, not a sum — it answers
// "how much operator-held state must this daemon be provisioned for").
// Depth and Derived are per-program distributions of the iteration count
// and derived-tuple count, so one runaway recursion is visible as a tail
// bucket instead of vanishing into the totals.
type EvalStats struct {
	Programs             int64            `json:"programs"`
	Strata               int64            `json:"strata"`
	Iterations           int64            `json:"iterations"`
	DerivedTuples        int64            `json:"derived_tuples"`
	PeakIntermediateRows int64            `json:"peak_intermediate_rows"`
	Depth                obs.HistSnapshot `json:"depth"`
	Derived              obs.HistSnapshot `json:"derived"`
}

// metrics tracks per-route request counters and latency histograms plus
// the program-evaluation counters. It is the /metrics backing store; the
// cache keeps its own counters.
type metrics struct {
	mu    sync.Mutex
	start time.Time
	// routes maps route label to its entry. The map is guarded; the
	// entries behind it are mutated via aliases (re := m.routes[k];
	// re.count++), which field-granular guard tracking cannot follow —
	// every such aliasing site sits inside a mu critical section.
	// graphlint:guardedby mu
	routes map[string]*routeEntry

	evalPrograms   atomic.Int64
	evalStrata     atomic.Int64
	evalIterations atomic.Int64
	evalDerived    atomic.Int64
	evalPeak       atomic.Int64
	evalDepthHist  *obs.Histogram
	evalTupleHist  *obs.Histogram

	// views counts the analytics views misses obtained
	// (Server.analyticsView), by how they were built: one full freeze per
	// static session; per live session at most one full, derived or
	// reused view per version. Views shared within a version are not
	// counted.
	views [incremental.ViewFull + 1]atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		start:         time.Now(),
		routes:        make(map[string]*routeEntry),
		evalDepthHist: obs.NewHistogram(evalDepthBounds),
		evalTupleHist: obs.NewHistogram(evalDerivedBounds),
	}
}

// observeEval records one successful program evaluation. Counters
// accumulate; the peak is a CAS max across evaluations; the histograms
// take one observation per program.
func (m *metrics) observeEval(es graphgen.EvalStats) {
	m.evalPrograms.Add(1)
	m.evalStrata.Add(int64(es.Strata))
	m.evalIterations.Add(int64(es.Iterations))
	m.evalDerived.Add(es.DerivedTuples)
	m.evalDepthHist.Observe(float64(es.Iterations))
	m.evalTupleHist.Observe(float64(es.DerivedTuples))
	for {
		cur := m.evalPeak.Load()
		if es.PeakIntermediateRows <= cur || m.evalPeak.CompareAndSwap(cur, es.PeakIntermediateRows) {
			break
		}
	}
}

// evalSnapshot returns the aggregated program-evaluation counters.
func (m *metrics) evalSnapshot() EvalStats {
	return EvalStats{
		Programs:             m.evalPrograms.Load(),
		Strata:               m.evalStrata.Load(),
		Iterations:           m.evalIterations.Load(),
		DerivedTuples:        m.evalDerived.Load(),
		PeakIntermediateRows: m.evalPeak.Load(),
		Depth:                m.evalDepthHist.Snapshot(),
		Derived:              m.evalTupleHist.Snapshot(),
	}
}

// observeView counts one view a miss obtained.
func (m *metrics) observeView(b incremental.ViewBuild) {
	if b != incremental.ViewShared {
		m.views[b].Add(1)
	}
}

// viewBuilds are the counted view builds, in metrics order.
var viewBuilds = []incremental.ViewBuild{incremental.ViewFull, incremental.ViewDerived, incremental.ViewReused}

// viewSnapshot returns the view counts keyed by build ("full",
// "derived", "reused").
func (m *metrics) viewSnapshot() map[string]int64 {
	out := make(map[string]int64, len(viewBuilds))
	for _, b := range viewBuilds {
		out[b.String()] = m.views[b].Load()
	}
	return out
}

// statusClass folds an HTTP status into its class label ("2xx", "4xx",
// "5xx", ...). Out-of-range codes land in "0xx" rather than panicking.
func statusClass(status int) string {
	c := status / 100
	if c < 0 || c > 9 {
		c = 0
	}
	return fmt.Sprintf("%dxx", c)
}

// observe records one served request.
func (m *metrics) observe(route string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	re, ok := m.routes[route]
	if !ok {
		re = &routeEntry{status: make(map[string]int64), hist: obs.NewHistogram(latencyBounds)}
		m.routes[route] = re
	}
	re.count++
	re.status[statusClass(status)]++
	ns := elapsed.Nanoseconds()
	if ns > re.maxNS {
		re.maxNS = ns
	}
	re.hist.Observe(elapsed.Seconds())
}

// snapshot returns uptime and a copy of the per-route stats keyed by
// route pattern (JSON marshaling renders map keys in sorted order).
func (m *metrics) snapshot() (time.Duration, map[string]RouteStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]RouteStats, len(m.routes))
	for k, re := range m.routes {
		rs := RouteStats{
			Count:   re.count,
			Status:  make(map[string]int64, len(re.status)),
			MaxMS:   float64(re.maxNS) / 1e6,
			Latency: re.hist.Snapshot(),
		}
		for class, n := range re.status {
			rs.Status[class] = n
			if class >= "4xx" {
				rs.Errors += n
			}
		}
		out[k] = rs
	}
	return time.Since(m.start), out
}

// writeProm renders the request and evaluation metrics in the Prometheus
// text exposition format (the histogram series use cumulative le buckets
// with a +Inf terminator, as the format requires). Routes are emitted in
// sorted order so scrapes are diffable.
func (m *metrics) writeProm(w io.Writer) {
	_, routes := m.snapshot()
	names := make([]string, 0, len(routes))
	for k := range routes {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# TYPE graphgend_requests_total counter\n")
	for _, name := range names {
		rs := routes[name]
		classes := make([]string, 0, len(rs.Status))
		for c := range rs.Status {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(w, "graphgend_requests_total{%s,%s} %d\n",
				obs.PromLabel("route", name), obs.PromLabel("class", c), rs.Status[c])
		}
	}
	fmt.Fprintf(w, "# TYPE graphgend_request_duration_seconds histogram\n")
	for _, name := range names {
		routes[name].Latency.WriteProm(w, "graphgend_request_duration_seconds",
			obs.PromLabel("route", name))
	}
	fmt.Fprintf(w, "# TYPE graphgend_analytics_views_total counter\n")
	for _, b := range viewBuilds {
		fmt.Fprintf(w, "graphgend_analytics_views_total{%s} %d\n", obs.PromLabel("build", b.String()), m.views[b].Load())
	}
	es := m.evalSnapshot()
	fmt.Fprintf(w, "# TYPE graphgend_eval_programs_total counter\n")
	fmt.Fprintf(w, "graphgend_eval_programs_total %d\n", es.Programs)
	fmt.Fprintf(w, "# TYPE graphgend_eval_depth histogram\n")
	es.Depth.WriteProm(w, "graphgend_eval_depth", "")
	fmt.Fprintf(w, "# TYPE graphgend_eval_derived_tuples histogram\n")
	es.Derived.WriteProm(w, "graphgend_eval_derived_tuples", "")
}
