package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
	"graphgen/internal/server"
)

// The serving workloads are closed loops: each client sends its next
// request only after the previous reply, as callers that wait for an
// answer do. A slow server therefore receives less load; there is no
// open-loop rate sweep yet (README.md, "Closed loop").

const (
	sessionName = "bench"
	// warmupOps is the fixed number of requests each client sends during
	// set-up, before any window.
	warmupOps = 200
	// mutIDBase keeps synthetic Knows endpoints clear of every generated
	// ID range (persons, forums at 1e7, posts at 2e7); each client, the
	// traced replay and the library update loop get disjoint sub-ranges.
	mutIDBase       = int64(900_000_000)
	tracedClient    = 1000
	libUpdateIDBase = mutIDBase + 2000*1_000_000
	// Parameters of the analysis rotation; the library replay in
	// layers.go uses the same values.
	ssspSources      = 4
	closenessSamples = 8
	closenessTopK    = 5
	degreeTopK       = 10
	oracleSample     = 200
)

// mix weighs the three op classes.
type mix struct{ read, mutate, analyze int }

var (
	readOnlyMix = mix{read: 100}
	// defaultMix is cmd/graphload's default. It is a guessed traffic
	// model, not an observed one.
	defaultMix = mix{read: 60, mutate: 30, analyze: 10}
)

// analyses is the rotation analyze ops cycle through.
var analyses = []struct{ name, path string }{
	{"degree", fmt.Sprintf("degree?k=%d", degreeTopK)},
	{"components", "components"},
	{"sssp", fmt.Sprintf("sssp?sources=%d", ssspSources)},
	{"closeness", fmt.Sprintf("closeness?samples=%d&k=%d", closenessSamples, closenessTopK)},
}

// op is one request, with the fields the library replay needs to do the
// same work below the handler.
type op struct {
	Class  string
	Method string
	Path   string
	Body   string
	// Vertex is the person a read probes.
	Vertex int64
	// Row is the synthetic Knows edge a mutation inserts or deletes.
	Row    [2]int64
	Insert bool
	// Analysis names the algorithm an analyze op runs, and Variant its
	// place in the rotation: the four algorithms cost differently, so
	// analyze latency is summarized per algorithm (window.latency).
	Analysis string
	Variant  int
}

// opStream is one client's op sequence, a pure function of the seed, the
// client number, the person count and the mix.
type opStream struct {
	rng     *rand.Rand
	client  int
	persons int64
	mix     mix
	total   int
	// pending is the inserted edge awaiting its paired delete, so the
	// table returns to its steady-state size.
	pending    *[2]int64
	mutSeq     int64
	analyzeSeq int
}

func newOpStream(seed int64, client int, persons int64, m mix) *opStream {
	return &opStream{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client:  client,
		persons: persons,
		mix:     m,
		total:   m.read + m.mutate + m.analyze,
	}
}

func (s *opStream) next() op {
	x := s.rng.Intn(s.total)
	switch {
	case x < s.mix.read:
		return s.read()
	case x < s.mix.read+s.mix.mutate:
		return s.mutate()
	default:
		variant := s.analyzeSeq % len(analyses)
		a := analyses[variant]
		s.analyzeSeq++
		return op{Class: classAnalyze, Method: http.MethodGet, Analysis: a.name, Variant: variant,
			Path: "/v1/graphs/" + sessionName + "/analyze/" + a.path}
	}
}

func (s *opStream) read() op {
	v := 1 + s.rng.Int63n(s.persons)
	return op{Class: classRead, Method: http.MethodGet, Vertex: v,
		Path: fmt.Sprintf("/v1/graphs/%s/neighbors?v=%d", sessionName, v)}
}

func (s *opStream) mutate() op {
	o := op{Class: classMutate, Method: http.MethodPost}
	if s.pending == nil {
		src := mutIDBase + int64(s.client)*1_000_000 + s.mutSeq
		s.mutSeq++
		o.Row, o.Insert = [2]int64{src, src + 1}, true
		s.pending = &o.Row
		o.Path = "/v1/db/Knows/insert"
	} else {
		o.Row, s.pending = *s.pending, nil
		o.Path = "/v1/db/Knows/delete"
	}
	o.Body = fmt.Sprintf(`{"row":[%d,%d]}`, o.Row[0], o.Row[1])
	return o
}

// reply holds the fields of a response the harness validates.
type reply struct {
	Degree   *int   `json:"degree"`
	Applied  *int   `json:"applied"`
	Analysis string `json:"analysis"`
	Cached   bool   `json:"cached"`
}

// validate checks that a 200 reply has the shape its class promises.
func (o op) validate(status int, body []byte) (reply, error) {
	var r reply
	if status != http.StatusOK {
		return r, fmt.Errorf("%s %s: status %d: %.200s", o.Method, o.Path, status, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("%s %s: malformed reply: %v", o.Method, o.Path, err)
	}
	switch {
	case o.Class == classRead && r.Degree == nil:
		return r, fmt.Errorf("GET %s: reply carries no degree", o.Path)
	case o.Class == classMutate && (r.Applied == nil || *r.Applied != 1):
		return r, fmt.Errorf("POST %s: mutation did not apply exactly one row", o.Path)
	case o.Class == classAnalyze && r.Analysis != o.Analysis:
		return r, fmt.Errorf("GET %s: reply names analysis %q", o.Path, r.Analysis)
	}
	return r, nil
}

// stack is one served database: SNB data, an engine, the server and one
// live Knows session.
type stack struct {
	db      *graphgen.DB
	engine  *graphgen.Engine
	srv     *server.Server
	persons int64
	// ts and hc are nil for a stack driven only through its handler.
	ts *httptest.Server
	hc *http.Client
}

// newStack generates the database and creates the live session through
// the /v1 API. With listen it also opens a loopback listener and a
// pooled client with one connection per client.
func newStack(p params, listen bool) (*stack, error) {
	db := snb(p)
	engine := graphgen.NewEngine(db)
	s := &stack{db: db, engine: engine, srv: server.New(engine, server.Options{})}
	if listen {
		s.ts = httptest.NewServer(s.srv.Handler())
		s.hc = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConns: p.clients, MaxIdleConnsPerHost: p.clients},
		}
	}
	body, err := json.Marshal(map[string]any{"name": sessionName, "query": datagen.QueryKnows, "live": true})
	if err != nil {
		s.close()
		return nil, err
	}
	status, out := s.direct(op{Method: http.MethodPost, Path: "/v1/graphs", Body: string(body)})
	var created struct {
		Vertices int64 `json:"vertices"`
	}
	if status != http.StatusCreated || json.Unmarshal(out, &created) != nil || created.Vertices == 0 {
		s.close()
		return nil, fmt.Errorf("bench: creating session: status %d: %.200s", status, out)
	}
	s.persons = created.Vertices
	return s, nil
}

func (s *stack) close() {
	if s.ts != nil {
		s.hc.CloseIdleConnections()
		s.ts.Close()
	}
	s.srv.Close()
}

// do sends o over the loopback socket.
func (s *stack) do(o op) (int, []byte, error) {
	req, err := http.NewRequest(o.Method, s.ts.URL+o.Path, strings.NewReader(o.Body))
	if err != nil {
		return 0, nil, err
	}
	if o.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return resp.StatusCode, body, err
}

// direct hands o to the handler on the caller's goroutine: no socket, no
// connection handling.
func (s *stack) direct(o op) (int, []byte) {
	req := httptest.NewRequest(o.Method, o.Path, strings.NewReader(o.Body))
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// serveRunner drives a stack with closed-loop clients.
type serveRunner struct {
	p       params
	mix     mix
	stack   *stack
	streams []*opStream
	// rows are the table sizes as generated, before any mutation.
	rows map[string]int
}

func setupServe(p params, m mix) (runner, error) {
	st, err := newStack(p, true)
	if err != nil {
		return nil, err
	}
	r := &serveRunner{p: p, mix: m, stack: st, rows: tableRows(st.db)}
	for c := 0; c < p.clients; c++ {
		r.streams = append(r.streams, newOpStream(p.seed, c, st.persons, m))
	}
	if w := r.drive(r.streams, func() bool { return false }, warmupOps); w.Failed > 0 {
		r.close()
		return nil, fmt.Errorf("bench: %d of %d warm-up requests failed", w.Failed, w.Attempted)
	}
	return r, nil
}

func (r *serveRunner) clients() int { return len(r.streams) }
func (r *serveRunner) close()       { r.stack.close() }

// dataset reports the tables as generated and the Knows graph as a fresh
// extraction sees it. Mutations only add and remove edges between
// synthetic IDs that are no vertices, so the graph sizes do not depend on
// where the window happened to stop.
func (r *serveRunner) dataset() datasetInfo {
	g, err := r.stack.engine.Extract(datagen.QueryKnows)
	if err != nil {
		g = nil
	}
	info := describe(snbName(r.p), r.stack.db, g)
	info.Rows = r.rows
	return info
}

// drive runs one goroutine per stream until stop reports true (checked
// between requests) or, when limit > 0, until each has sent limit
// requests. A failed request counts
// as failed and contributes no latency sample.
func (r *serveRunner) drive(streams []*opStream, stop func() bool, limit int) *window {
	windows := make([]*window, len(streams))
	alloc0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range streams {
		windows[i] = newWindow()
		wg.Add(1)
		go func(w *window, s *opStream) {
			defer wg.Done()
			for sent := 0; (limit == 0 || sent < limit) && !stop(); sent++ {
				o := s.next()
				t := time.Now()
				status, body, err := r.stack.do(o)
				if err == nil {
					_, err = o.validate(status, body)
				}
				elapsed := time.Since(t)
				w.Attempted++
				if err != nil {
					w.Failed++
					continue
				}
				w.add(o.Class, o.Variant, ms(elapsed))
			}
		}(windows[i], s)
	}
	wg.Wait()
	total := newWindow()
	total.Elapsed = time.Since(start)
	total.AllocBytes = totalAlloc() - alloc0
	for _, w := range windows {
		total.Attempted += w.Attempted
		total.Failed += w.Failed
		for class, variants := range w.Samples {
			for variant, samples := range variants {
				for _, v := range samples {
					total.add(class, variant, v)
				}
			}
		}
	}
	return total
}

func (r *serveRunner) measure(d time.Duration) *window {
	runtime.GC()
	deadline := time.Now().Add(d)
	return r.drive(r.streams, func() bool { return !time.Now().Before(deadline) }, 0)
}

// oracle re-extracts the Knows graph from the mutated tables and checks
// that the live session serves the same neighbor lists for a sample of
// persons.
func (r *serveRunner) oracle() (checked, mismatched int, err error) {
	fresh, err := r.stack.engine.Extract(datagen.QueryKnows)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(r.p.seed ^ 0x5eed))
	for i := 0; i < oracleSample; i++ {
		v := 1 + rng.Int63n(r.stack.persons)
		status, body, err := r.stack.do(op{Method: http.MethodGet,
			Path: fmt.Sprintf("/v1/graphs/%s/neighbors?v=%d", sessionName, v)})
		if err != nil {
			return checked, mismatched, err
		}
		var got struct {
			Neighbors []int64 `json:"neighbors"`
		}
		checked++
		if status != http.StatusOK || json.Unmarshal(body, &got) != nil {
			mismatched++
			continue
		}
		var want []int64
		for it := fresh.Neighbors(v); ; {
			n, ok := it.Next()
			if !ok {
				break
			}
			want = append(want, n)
		}
		slices.Sort(want)
		if !slices.Equal(got.Neighbors, want) {
			mismatched++
		}
	}
	return checked, mismatched, nil
}
