package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"graphgen/internal/datagen"
)

// traced measures what only concurrent clients show (lock wait, the
// server's own histograms), then replays the op sequence on one
// goroutine against three mirrors of the same seed, in this order per op:
// the real server over its socket (the whole-op span), a shadow server
// through its handler alone, and a library twin below the handler. Each
// mirror sees the same ops, so caches and pending deltas behave alike.
func (r *serveRunner) traced(d time.Duration, rec *recorder) (*tracedResult, error) {
	res := &tracedResult{}
	st := r.stack
	// timed returns a stop condition that turns true after share
	// percent of d.
	timed := func(share int) func() bool {
		deadline := time.Now().Add(d * time.Duration(share) / 100)
		return func() bool { return !time.Now().Before(deadline) }
	}

	// Concurrent phase. For a mixed workload a read-only window on the
	// same session comes first: the ratio of the two read medians is
	// the wait reads pick up behind mutations, measured from outside.
	interference := 1.0
	if r.mix != readOnlyMix {
		var readers []*opStream
		for c := range r.streams {
			readers = append(readers, newOpStream(r.p.seed, 500+c, st.persons, readOnlyMix))
		}
		alone := r.drive(readers, timed(15), 0).latency(classRead).Median
		mixed := r.drive(r.streams, timed(20), 0).latency(classRead).Median
		if alone > 0 {
			interference = mixed / alone
		}
	} else {
		r.drive(r.streams, timed(25), 0)
	}
	served, err := st.scrapeMetrics()
	if err != nil {
		return nil, err
	}

	// Untraced reference for trace_overhead_pct, driven like the replay:
	// one goroutine over the socket.
	res.Untraced = r.drive([]*opStream{newOpStream(r.p.seed, tracedClient, st.persons, r.mix)}, timed(15), 0)
	if res.Untraced.Failed > 0 {
		return nil, fmt.Errorf("bench: %d of %d reference requests failed", res.Untraced.Failed, res.Untraced.Attempted)
	}

	shadow, err := newStack(r.p, false)
	if err != nil {
		return nil, err
	}
	defer shadow.close()
	twin, buildMS, err := newLibTwin(snb(r.p), datagen.QueryKnows)
	if err != nil {
		return nil, err
	}
	defer twin.close()

	res.Traced = newWindow()
	stream := newOpStream(r.p.seed, tracedClient+1, st.persons, r.mix)
	stop := timed(50)
	for opID := 1; !stop(); opID++ {
		o := stream.next()
		root := rec.begin(0, opID, "op."+o.Class)
		status, body, err := st.do(o)
		if err == nil {
			_, err = o.validate(status, body)
		}
		res.Traced.add(o.Class, o.Variant, rec.end(root))
		if err != nil {
			return nil, err
		}
		handler := rec.time(root, opID, "server.handler."+o.Class, func() { status, body = shadow.direct(o) })
		rep, err := o.validate(status, body)
		if err != nil {
			return nil, fmt.Errorf("shadow server: %w", err)
		}
		if err := twin.apply(rec, handler, opID, o, rep.Cached); err != nil {
			return nil, fmt.Errorf("library twin: %w", err)
		}
	}

	updateUS, flushBatch, err := twin.updateUS(200)
	if err != nil {
		return nil, err
	}
	transitions, rebuilds := twin.maintenance()
	res.Detail = []detailMetric{
		{"incremental.build_ms", buildMS, "ms"},
		{"incremental.update_us", updateUS, "us"},
		{"incremental.flush_batch", flushBatch, "count"},
		{"incremental.transitions", float64(transitions), "count"},
		{"incremental.rebuilds", float64(rebuilds), "count"},
		{"server.cache_hit_ratio", served.cacheHitRatio, "ratio"},
		{"server.read_interference", interference, "ratio"},
	}
	for _, class := range []string{classRead, classMutate, classAnalyze} {
		handler := durationsMS(rec.spans, "server.handler."+class)
		if len(handler) == 0 {
			continue
		}
		client := median(durationsMS(rec.spans, "op."+class))
		res.Detail = append(res.Detail,
			detailMetric{"server.handler_us." + class, median(handler) * 1e3, "us"},
			detailMetric{"server.wire_overhead_us." + class, (client - median(handler)) * 1e3, "us"},
		)
	}
	for _, name := range []string{"incremental.neighbors", "incremental.delta", "incremental.snapshot",
		"core.neighbors", "workload.snap", "workload.sssp", "workload.closeness", "algo.degree", "algo.components"} {
		if ds := durationsMS(rec.spans, name); len(ds) > 0 {
			res.Detail = append(res.Detail, detailMetric{name + "_ms", median(ds), "ms"})
		}
	}
	routes := make([]string, 0, len(served.routeMeanMS))
	for route := range served.routeMeanMS {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		res.Detail = append(res.Detail, detailMetric{"server.server_side_ms." + route, served.routeMeanMS[route], "ms"})
	}
	return res, nil
}

// servedMetrics is what /v1/metrics says about the requests so far.
type servedMetrics struct {
	// routeMeanMS is the server-side mean latency per route; the
	// histogram's buckets start at 1 ms, too coarse for a median.
	routeMeanMS   map[string]float64
	cacheHitRatio float64
}

func (s *stack) scrapeMetrics() (servedMetrics, error) {
	out := servedMetrics{routeMeanMS: map[string]float64{}}
	status, body, err := s.do(op{Method: http.MethodGet, Path: "/v1/metrics"})
	if err != nil {
		return out, err
	}
	var m struct {
		Requests map[string]struct {
			Count   int64 `json:"count"`
			Latency struct {
				Sum float64 `json:"sum"`
			} `json:"latency_seconds"`
		} `json:"requests"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("bench: GET /v1/metrics: status %d", status)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return out, fmt.Errorf("bench: GET /v1/metrics: %w", err)
	}
	for route, rs := range m.Requests {
		if rs.Count > 0 {
			out.routeMeanMS[route] = rs.Latency.Sum / float64(rs.Count) * 1e3
		}
	}
	out.cacheHitRatio = ratio(m.Cache.Hits, m.Cache.Hits+m.Cache.Misses)
	return out, nil
}
