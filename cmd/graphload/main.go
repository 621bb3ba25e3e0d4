// Command graphload drives a sustained mixed workload against a running
// graphgend endpoint and reports per-op-class latency percentiles.
//
// It replays three op classes against one live graph session, with a
// configurable weight mix:
//
//	read     GET  /v1/graphs/{s}/neighbors?v=ID   point lookups on random vertices
//	mutate   POST /v1/db/Knows/insert|delete      paired insert/delete of synthetic
//	                                           edges (the live session follows)
//	analyze  GET  /v1/graphs/{s}/analyze/...      rotation over degree, components,
//	                                           sssp, closeness
//
// The endpoint must serve an SNB-schema dataset (graphgend -dataset snb):
//
//	graphgend -addr localhost:8080 -dataset snb &
//	graphload -addr localhost:8080 -clients 16 -mix read=80,mutate=15,analyze=5
//
// graphload is a load driver, not a benchmark: the committed
// measurement harness is the bench/ module (go run -C bench .), whose
// serve-* workloads time the same daemon. Exit codes follow the repo
// convention: 0 on success (any op errors make the run a failure), 1 on
// runtime errors, 2 on usage errors (including a missing -addr); -h
// exits 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Op classes, in reporting order.
const (
	classRead = iota
	classMutate
	classAnalyze
	numClasses
)

var classNames = [numClasses]string{"read", "mutate", "analyze"}

// mutIDBase keeps synthetic mutation vertex IDs clear of every
// generated entity range (persons, forums at 1e7, posts at 2e7).
const mutIDBase = int64(900_000_000)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "graphgend endpoint (host:port or URL), required")
	seed := fs.Int64("seed", 1, "client RNG seed")
	clients := fs.Int("clients", 8, "concurrent client connections")
	duration := fs.Duration("duration", 10*time.Second, "sustained load duration")
	mixSpec := fs.String("mix", "read=60,mutate=30,analyze=10", "op class weights as class=weight pairs")
	sessName := fs.String("session", "load", "live session name created on the endpoint")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "graphload: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *clients < 1 || *clients > 4096 {
		return usage("-clients must be in [1,4096], got %d", *clients)
	}
	if *duration <= 0 {
		return usage("-duration must be positive, got %v", *duration)
	}
	if *addr == "" {
		return usage("-addr is required (the graphgend endpoint to load)")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return usage("%v", err)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	lg := &loadgen{
		base:    base,
		session: *sessName,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        *clients * 2,
				MaxIdleConnsPerHost: *clients * 2,
			},
		},
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "graphload:", err)
		return 1
	}
	if err := lg.health(); err != nil {
		return fail(err)
	}
	vertices, err := lg.createSession()
	if err != nil {
		return fail(err)
	}
	defer lg.deleteSession()

	fmt.Fprintf(stdout, "graphload: %d clients for %v against %s (session %q; %d vertices; mix %s)\n",
		*clients, *duration, base, *sessName, vertices, *mixSpec)

	workers := make([]*worker, *clients)
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{
			id:    i,
			lg:    lg,
			rng:   rand.New(rand.NewSource(*seed*1_000_003 + int64(i))),
			maxID: max(vertices, 1),
			mix:   mix,
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(deadline)
		}(workers[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	totalErrors := int64(0)
	var firstErr error
	for class := 0; class < numClasses; class++ {
		if mix.weights[class] == 0 {
			continue
		}
		var lat []int64
		var errs int64
		for _, w := range workers {
			b := &w.buckets[class]
			lat = append(lat, b.lat...)
			errs += b.errors
			if firstErr == nil && b.lastErr != nil {
				firstErr = b.lastErr
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		ops := int64(len(lat))
		totalErrors += errs
		p50, p95, p99 := pct(lat, 50), pct(lat, 95), pct(lat, 99)
		fmt.Fprintf(stdout, "graphload: %-7s ops=%d errors=%d p50=%v p95=%v p99=%v (%.1f ops/s)\n",
			classNames[class], ops, errs, time.Duration(p50), time.Duration(p95), time.Duration(p99),
			float64(ops)/elapsed.Seconds())
	}
	if totalErrors > 0 {
		return fail(fmt.Errorf("%d op errors (first: %v)", totalErrors, firstErr))
	}
	fmt.Fprintf(stdout, "graphload: OK, zero op errors in %v\n", elapsed.Round(time.Millisecond))
	return 0
}

// --- mix parsing ---

type mixWeights struct {
	weights [numClasses]int
	total   int
}

// parseMix parses "read=60,mutate=30,analyze=10". Classes may be
// omitted (weight 0); at least one weight must be positive.
func parseMix(spec string) (mixWeights, error) {
	var m mixWeights
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("-mix entry %q is not class=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("-mix weight for %q must be a non-negative integer, got %q", name, val)
		}
		class := -1
		for c, n := range classNames {
			if n == name {
				class = c
			}
		}
		if class < 0 {
			return m, fmt.Errorf("-mix class %q unknown (valid: %s)", name, strings.Join(classNames[:], ", "))
		}
		m.weights[class] = w
	}
	for _, w := range m.weights {
		m.total += w
	}
	if m.total == 0 {
		return m, fmt.Errorf("-mix %q has no positive weights", spec)
	}
	return m, nil
}

// pct returns the nearest-rank q-th percentile of an ascending-sorted
// slice (0 when empty).
func pct(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (q*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// --- HTTP plumbing ---

// loadgen holds what every worker shares: the endpoint, the HTTP client
// (pooled connections), and the session name.
type loadgen struct {
	base    string
	session string
	hc      *http.Client
}

func trimBody(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// reqID extracts the server-assigned request id from a failed response
// (header first, error envelope as fallback) so an op error in the
// summary can be joined to the daemon's log line for that request.
func reqID(resp *http.Response, body []byte) string {
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	var env struct {
		Error struct {
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil {
		return env.Error.RequestID
	}
	return ""
}

func reqIDSuffix(resp *http.Response, body []byte) string {
	if id := reqID(resp, body); id != "" {
		return " [request_id " + id + "]"
	}
	return ""
}

// getJSON GETs a path, requires 200, and decodes the body into v.
func (lg *loadgen) getJSON(path string, v any) error {
	resp, err := lg.hc.Get(lg.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s%s", path, resp.Status, trimBody(body), reqIDSuffix(resp, body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: malformed reply: %v", path, err)
	}
	return nil
}

// postJSON POSTs a JSON body, requires one of the given statuses, and
// decodes the reply into v.
func (lg *loadgen) postJSON(path string, req any, v any, okStatus ...int) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := lg.hc.Post(lg.base+path, "application/json", strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	ok := false
	for _, s := range okStatus {
		if resp.StatusCode == s {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("POST %s: %s: %s%s", path, resp.Status, trimBody(body), reqIDSuffix(resp, body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("POST %s: malformed reply: %v", path, err)
	}
	return nil
}

func (lg *loadgen) health() error {
	var body struct {
		Status string `json:"status"`
	}
	if err := lg.getJSON("/v1/healthz", &body); err != nil {
		return fmt.Errorf("endpoint %s unreachable or unhealthy: %w", lg.base, err)
	}
	if body.Status != "ok" {
		return fmt.Errorf("endpoint %s reported status %q", lg.base, body.Status)
	}
	return nil
}

// queryKnows is the SNB dataset's person-knows-person extraction query
// (datagen.QueryKnows, spelled out so the command does not link the
// generator).
const queryKnows = `
Nodes(ID, Name) :- Person(ID, Name, Country).
Edges(A, B) :- Knows(A, B).
`

// createSession creates the live Knows session the read and analyze
// ops target and returns its vertex count. A leftover session from an
// earlier run (409) is dropped and re-created so repeated invocations
// against a long-lived daemon just work.
func (lg *loadgen) createSession() (int64, error) {
	req := map[string]any{"name": lg.session, "query": queryKnows, "live": true}
	var body struct {
		Vertices int64 `json:"vertices"`
	}
	err := lg.postJSON("/v1/graphs", req, &body, http.StatusCreated)
	if err != nil && strings.Contains(err.Error(), "409") {
		lg.deleteSession()
		err = lg.postJSON("/v1/graphs", req, &body, http.StatusCreated)
	}
	if err != nil {
		return 0, fmt.Errorf("creating session (does the endpoint serve an SNB-schema dataset?): %w", err)
	}
	return body.Vertices, nil
}

func (lg *loadgen) deleteSession() {
	req, err := http.NewRequest(http.MethodDelete, lg.base+"/v1/graphs/"+lg.session, nil)
	if err != nil {
		return
	}
	resp, err := lg.hc.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// --- workers ---

type bucket struct {
	lat     []int64
	errors  int64
	lastErr error
}

type worker struct {
	id      int
	lg      *loadgen
	rng     *rand.Rand
	maxID   int64
	mix     mixWeights
	buckets [numClasses]bucket

	analyzeSeq int
	mutSeq     int64
	pending    []int64 // inserted Knows row awaiting its paired delete
}

func (w *worker) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		class := w.pick()
		start := time.Now()
		err := w.do(class)
		ns := time.Since(start).Nanoseconds()
		b := &w.buckets[class]
		b.lat = append(b.lat, ns)
		if err != nil {
			b.errors++
			b.lastErr = err
		}
	}
}

func (w *worker) pick() int {
	x := w.rng.Intn(w.mix.total)
	for class, weight := range w.mix.weights {
		if x < weight {
			return class
		}
		x -= weight
	}
	return classRead // unreachable
}

func (w *worker) do(class int) error {
	switch class {
	case classRead:
		return w.doRead()
	case classMutate:
		return w.doMutate()
	default:
		return w.doAnalyze()
	}
}

// doRead probes the out-neighbors of a random vertex. A vertex absent
// from the graph is a legitimate read (degree 0), not an error; the
// degree field must be present, so a syntactically-valid reply of the
// wrong shape still counts as a failure.
func (w *worker) doRead() error {
	v := 1 + w.rng.Int63n(w.maxID)
	var body struct {
		Degree *int `json:"degree"`
	}
	path := fmt.Sprintf("/v1/graphs/%s/neighbors?v=%d", w.lg.session, v)
	if err := w.lg.getJSON(path, &body); err != nil {
		return err
	}
	if body.Degree == nil {
		return fmt.Errorf("GET %s: reply carries no degree field", path)
	}
	return nil
}

// doMutate alternates inserting a synthetic Knows edge and deleting it
// again, so the dataset's steady-state size is unchanged while every
// mutation forces the live session through its incremental-maintenance
// path (and invalidates the analytics cache).
func (w *worker) doMutate() error {
	var body struct {
		Applied *int `json:"applied"`
	}
	if w.pending == nil {
		src := mutIDBase + int64(w.id)*1_000_000 + w.mutSeq
		w.mutSeq++
		row := []int64{src, src + 1}
		if err := w.lg.postJSON("/v1/db/Knows/insert", map[string]any{"row": row}, &body, http.StatusOK); err != nil {
			return err
		}
		if body.Applied == nil || *body.Applied != 1 {
			return fmt.Errorf("insert applied %v rows, want 1", body.Applied)
		}
		w.pending = row
		return nil
	}
	row := w.pending
	w.pending = nil
	if err := w.lg.postJSON("/v1/db/Knows/delete", map[string]any{"row": row}, &body, http.StatusOK); err != nil {
		return err
	}
	if body.Applied == nil || *body.Applied != 1 {
		return fmt.Errorf("delete applied %v rows, want 1", body.Applied)
	}
	return nil
}

// analyzePaths is the rotation every worker cycles through: the two
// contest-family queries (sssp, closeness) plus the two cheapest
// classic analytics, all with small fixed parameters so an individual
// op stays bounded.
var analyzePaths = [...]string{
	"degree?k=10",
	"components",
	"sssp?sources=4",
	"closeness?samples=8&k=5",
}

func (w *worker) doAnalyze() error {
	p := analyzePaths[w.analyzeSeq%len(analyzePaths)]
	w.analyzeSeq++
	var body struct {
		Analysis string `json:"analysis"`
	}
	path := "/v1/graphs/" + w.lg.session + "/analyze/" + p
	if err := w.lg.getJSON(path, &body); err != nil {
		return err
	}
	if body.Analysis == "" {
		return fmt.Errorf("GET %s: reply carries no analysis field", path)
	}
	return nil
}
