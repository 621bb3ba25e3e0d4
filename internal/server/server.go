// Package server turns the graphgen library into a long-running graph
// serving daemon: a concurrent HTTP JSON API that owns an extraction
// Engine over a loaded relational database and serves named graph
// sessions — static snapshots or live graphs maintained incrementally as
// the tables change (cmd/graphgend is the binary front end).
//
// Endpoints (all under /v1; any other path — the retired bare spellings
// included — answers 404 with the error envelope, code "route_not_found";
// a wrong method on one of these paths answers 405, code
// "method_not_allowed", with an Allow header):
//
//	POST   /v1/graphs                          extract a query or Datalog program into a session
//	GET    /v1/graphs                          list sessions
//	DELETE /v1/graphs/{name}                   drop a session
//	GET    /v1/graphs/{name}/stats             size and maintenance counters
//	GET    /v1/graphs/{name}/neighbors?v=ID    logical out-neighbors
//	GET    /v1/graphs/{name}/analyze/{algo}    degree|pagerank|components|bfs|triangles|sssp|closeness
//	POST   /v1/db/{table}/insert               append rows (live graphs follow)
//	POST   /v1/db/{table}/delete               remove rows (live graphs follow)
//	GET    /v1/healthz                         liveness
//	GET    /v1/metrics                         request/latency/cache counters
//
// Every response carries an X-Request-Id header (a client-supplied one
// is honored when it matches [A-Za-z0-9_-]{1,64}, else the server mints
// one); errors are a structured envelope with a stable machine-readable
// code and the same request id, which also tags the structured log line
// for the request:
//
//	{"error": {"code": "session_not_found", "message": "no session \"x\"", "request_id": "d41d8cd98f00b204"}}
//
// EXPLAIN/ANALYZE: POST /v1/graphs accepts ?explain=true and
// ?analyze=true — either one records an operator-span execution trace of
// the extraction (graphgen.WithProfile); explain adds a "plan" field
// (structure only: operator kinds, access-path strategies) and analyze a
// "profile" field (the full tree with rows, batches, and wall time) to
// the create response. The trace is kept on the session, so the analyze
// endpoints accept the same parameters to re-attach the build plan or
// profile to any later response.
//
// Observability: /v1/metrics serves JSON by default and the Prometheus
// text format with ?format=prometheus (request counts by status class,
// per-route latency histograms, evaluation-depth and derived-tuple
// histograms). Options.EnablePprof mounts net/http/pprof under
// /debug/pprof on this mux — off by default, and meant to stay off on
// any publicly reachable listener.
//
// Sessions created with a "program" body field evaluate a multi-rule
// Datalog program (derived predicates, recursion, stratified negation,
// comparison literals) through the semi-naive evaluator before
// extraction. Program sessions are static-only: derived predicates are
// not incrementally maintained under table mutations, so live=true is
// rejected with a clear error — re-create the session to observe new
// data. /v1/metrics aggregates their evaluation counters (programs run,
// strata, iterations, derived tuples) under "datalog_eval".
//
// Analytics results are memoized in a size-bounded LRU keyed by
// (session instance, snapshot version, analysis, canonical params). Static
// sessions are frozen at version 0; live sessions use the LiveGraph
// snapshot version, which advances whenever pending deltas flush or the
// graph rebuilds — so a mutation invalidates every cached result of the
// session by construction, and repeated hot queries on an unchanged
// snapshot cost one cache lookup. See docs/ARCHITECTURE.md ("Serving")
// for the full cache-key contract.
//
// Concurrency: any number of requests run in parallel. Table mutations
// and extractions are serialized on one mutex (relstore tables are not
// internally synchronized, and extraction reads table statistics); live
// graph reads use the incremental subsystem's own locking; static graphs
// are immutable after extraction and safe for concurrent readers; the
// cache and metrics have internal locks.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphgen"
	"graphgen/internal/obs"
	"graphgen/internal/workload"
)

// Options configures a Server.
type Options struct {
	// CacheEntries bounds the analytics cache entry count (default 256).
	CacheEntries int
	// CacheBytes bounds the analytics cache's total marshaled-result
	// bytes (default 64 MiB).
	CacheBytes int64
	// MaxSessions bounds concurrent named sessions (default 64).
	MaxSessions int
	// MaxDerivedTuples bounds the tuples a Datalog program session may
	// materialize during evaluation (default 10 million; < 0 disables).
	// The evaluator enforces it on derived tuples and, at a 16x
	// headroom, on per-rule intermediate join rows. Program evaluation
	// holds the database lock, so an unbounded runaway recursion or
	// exploding join would stall every other request — requests may
	// lower the bound per session ("max_derived_tuples") but not raise
	// it past this cap.
	MaxDerivedTuples int64
	// Logger receives one structured line per request (request_id,
	// method, route, status, duration) and one per error envelope. Nil
	// discards logs — the Server never writes to a default destination
	// on its own.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof on the
	// Server's mux. Off by default: the profiling surface exposes heap
	// contents and must never be reachable on a public listener unless
	// an operator explicitly opts in (cmd/graphgend gates it behind
	// -pprof).
	EnablePprof bool
}

// defaultMaxDerivedTuples caps program-evaluation materialization when
// Options.MaxDerivedTuples is zero.
const defaultMaxDerivedTuples = 10_000_000

// session is one served graph: static (detached snapshot) or live
// (incrementally maintained). Exactly one of static/live is non-nil.
// id is a daemon-unique instance nonce: cache keys use it instead of
// the name, so results of a deleted session can never leak into a
// later session re-created under the same name. program records that
// query holds a multi-rule Datalog program built by ExtractProgram
// (such sessions are always static).
type session struct {
	id      uint64
	name    string
	query   string
	program bool
	static  *graphgen.Graph
	live    *graphgen.LiveGraph
	created time.Time
	// profile is the execution trace of the extraction that built the
	// session, recorded when the create request asked for
	// explain/analyze; nil otherwise. Immutable once set.
	profile *graphgen.Profile
}

// Server is the graph-serving daemon core, independent of the listener:
// tests drive it through httptest, cmd/graphgend mounts it on a real
// port.
type Server struct {
	engine           *graphgen.Engine
	maxDerivedTuples int64

	// dbMu serializes everything that touches relational tables:
	// inserts, deletes, and extractions (which read rows and the lazily
	// recomputed statistics catalog). Live-graph reads never touch
	// tables and run outside it.
	dbMu sync.Mutex

	sessMu sync.RWMutex
	// graphlint:guardedby sessMu
	sessions    map[string]*session
	maxSessions int
	nextID      atomic.Uint64

	cache   *resultCache
	metrics *metrics
	logger  *slog.Logger
	mux     *http.ServeMux

	// dbIndexes caches the last observed secondary-index count for
	// /metrics: the authoritative count must be read under dbMu (index
	// structures are created by extractions and walked by mutations), but
	// a monitoring endpoint must never block behind a long-running
	// extraction, so /metrics refreshes the cache only when the lock is
	// free and otherwise serves the stale value.
	dbIndexes atomic.Int64
}

// New builds a Server over an extraction engine.
func New(engine *graphgen.Engine, opts Options) *Server {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 64
	}
	if opts.MaxDerivedTuples == 0 {
		opts.MaxDerivedTuples = defaultMaxDerivedTuples
	}
	if opts.MaxDerivedTuples < 0 {
		opts.MaxDerivedTuples = 0 // explicit opt-out of the guard
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		engine:           engine,
		maxDerivedTuples: opts.MaxDerivedTuples,
		sessions:         make(map[string]*session),
		maxSessions:      opts.MaxSessions,
		cache:            newResultCache(opts.CacheEntries, opts.CacheBytes),
		metrics:          newMetrics(),
		logger:           logger,
	}
	s.mux = http.NewServeMux()
	var paths []string             // registration order, for deterministic 405 routes
	allow := map[string][]string{} // path -> its registered methods
	route := func(method, path string, h http.HandlerFunc) {
		pattern := method + " /v1" + path
		s.mux.HandleFunc(pattern, s.instrument(pattern, h))
		if allow[path] == nil {
			paths = append(paths, path)
		}
		allow[path] = append(allow[path], method)
	}
	route("POST", "/graphs", s.handleCreateGraph)
	route("GET", "/graphs", s.handleListGraphs)
	route("DELETE", "/graphs/{name}", s.handleDeleteGraph)
	route("GET", "/graphs/{name}/stats", s.handleStats)
	route("GET", "/graphs/{name}/neighbors", s.handleNeighbors)
	route("GET", "/graphs/{name}/analyze/{algo}", s.handleAnalyze)
	route("POST", "/db/{table}/insert", s.handleMutate("insert"))
	route("POST", "/db/{table}/delete", s.handleMutate("delete"))
	route("GET", "/healthz", s.handleHealthz)
	route("GET", "/metrics", s.handleMetrics)
	// A registered path under any other method: the method-less pattern
	// is less specific than every "METHOD /path" above, so it only
	// catches what they do not serve.
	for _, path := range paths {
		methods := strings.Join(allow[path], ", ")
		s.mux.HandleFunc("/v1"+path, s.instrument("unmatched", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", methods)
			s.error(w, r, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, methods)
		}))
	}
	// Everything else gets the envelope (and a request id, a log line and
	// one fixed metrics label) instead of net/http's plain-text 404.
	s.mux.HandleFunc("/", s.instrument("unmatched", func(w http.ResponseWriter, r *http.Request) {
		s.error(w, r, http.StatusNotFound, codeRouteNotFound, "no route %s %s: the API is served under /v1", r.Method, r.URL.Path)
	}))
	if opts.EnablePprof {
		// Deliberately not registered through route(): the profiling
		// surface is unversioned, opt-in, and uninstrumented (a pprof
		// CPU profile runs for its full duration and would skew the
		// latency histograms it exists to explain).
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// instrument wraps a handler with the serving-tier observability stack:
// it assigns the request id (honoring a well-formed client X-Request-Id,
// so ids can propagate through a calling service), sets it on the
// response header before the handler runs (which is how s.error and the
// error envelope recover it without threading a context value), then
// times the request, records it in the per-route metrics, and emits one
// structured log line.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if !obs.ValidRequestID(reqID) {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.observe(route, rec.status, elapsed)
		level := slog.LevelInfo
		switch {
		case rec.status >= 500:
			level = slog.LevelError
		case rec.status >= 400:
			level = slog.LevelWarn
		}
		s.logger.LogAttrs(r.Context(), level, "request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Float64("duration_ms", float64(elapsed.Nanoseconds())/1e6),
		)
	}
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drops every session, stopping live maintenance. Lock order:
// dbMu before sessMu (the only place both are held; no path nests them
// the other way).
func (s *Server) Close() {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for name, sess := range s.sessions {
		if sess.live != nil {
			sess.live.Close()
		}
		delete(s.sessions, name)
	}
}

// closeLive stops a live graph's maintenance under dbMu: Close cancels
// change-log subscriptions, and relstore's subscriber list is mutated
// without internal locking — the same dbMu that serializes mutations
// (and thus notify walks) must cover the cancellation, or the two race.
func (s *Server) closeLive(lg *graphgen.LiveGraph) {
	if lg == nil {
		return
	}
	s.dbMu.Lock()
	lg.Close()
	s.dbMu.Unlock()
}

// --- JSON plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// Stable machine-readable error codes carried in the error envelope.
// Clients branch on the code; the message is human-readable and free to
// change between releases.
const (
	codeBadJSON          = "bad_json"           // request body is not valid JSON
	codeBadParam         = "bad_param"          // a field or query parameter is missing or malformed
	codeSessionExists    = "session_exists"     // create collided with an existing session name
	codeSessionLimit     = "session_limit"      // MaxSessions reached
	codeSessionNotFound  = "session_not_found"  // no session under that name
	codeRouteNotFound    = "route_not_found"    // no endpoint at that path
	codeMethodNotAllowed = "method_not_allowed" // the path exists, the method does not (Allow lists the methods)
	codeExtractionFailed = "extraction_failed"  // query/program parse or evaluation error
	codeBudgetExceeded   = "budget_exceeded"    // evaluation aborted by the derived-tuple budget
	codeTableNotFound    = "table_not_found"    // mutation names an unknown table
	codeMutationFailed   = "mutation_failed"    // a row failed mid-batch
	codeInternal         = "internal"           // unexpected server-side failure
)

// errorBody is the inner object of the error envelope. RequestID echoes
// the X-Request-Id the instrument middleware assigned, so a client error
// report can be joined to the server's log line for the same request.
type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// error emits the structured error envelope
// {"error": {"code": ..., "message": ..., "request_id": ...}} and logs a
// matching line carrying the same request id and code.
func (s *Server) error(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	reqID := w.Header().Get("X-Request-Id")
	level := slog.LevelWarn
	if status >= 500 {
		level = slog.LevelError
	}
	s.logger.LogAttrs(r.Context(), level, "request error",
		slog.String("request_id", reqID),
		slog.String("code", code),
		slog.Int("status", status),
		slog.String("message", msg),
	)
	writeJSON(w, status, map[string]errorBody{"error": {Code: code, Message: msg, RequestID: reqID}})
}

// validSessionName restricts names to a URL-inert charset: anything
// else (".", "..", "%"-escapes, slashes, spaces) is rewritten or
// rejected by net/http path cleaning before routing, which would make
// the session unreachable and undeletable while still holding a
// MaxSessions slot.
func validSessionName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) lookup(name string) (*session, bool) {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	sess, ok := s.sessions[name]
	return sess, ok
}

// --- session lifecycle ---

type createRequest struct {
	Name     string `json:"name"`
	Query    string `json:"query"`
	Program  string `json:"program"`
	Live     bool   `json:"live"`
	MaxEdges int64  `json:"max_edges"`
	// MaxDerivedTuples lowers the server's program-evaluation budget for
	// this session; values above the server cap are clamped to it.
	MaxDerivedTuples int64 `json:"max_derived_tuples"`
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.error(w, r, http.StatusBadRequest, codeBadJSON, "invalid JSON body: %v", err)
		return
	}
	if !validSessionName(req.Name) {
		s.error(w, r, http.StatusBadRequest, codeBadParam, "session name must match [A-Za-z0-9_-]{1,64}")
		return
	}
	if req.Query == "" && req.Program == "" {
		s.error(w, r, http.StatusBadRequest, codeBadParam, `body must carry "query" (non-recursive extraction) or "program" (multi-rule Datalog)`)
		return
	}
	if req.Query != "" && req.Program != "" {
		s.error(w, r, http.StatusBadRequest, codeBadParam, `"query" and "program" are mutually exclusive`)
		return
	}
	if req.Program != "" && req.Live {
		s.error(w, r, http.StatusBadRequest, codeBadParam, "program sessions are static-only: live incremental maintenance of derived predicates is not supported; re-create with live=false and rebuild after mutations")
		return
	}
	// Pre-check name and capacity before paying for the extraction (the
	// authoritative re-check happens under sessMu after it); without
	// this, a create storm at the session cap would keep the daemon
	// extracting graphs only to discard them with 429.
	s.sessMu.RLock()
	_, exists := s.sessions[req.Name]
	full := len(s.sessions) >= s.maxSessions
	s.sessMu.RUnlock()
	if exists {
		s.error(w, r, http.StatusConflict, codeSessionExists, "session %q already exists", req.Name)
		return
	}
	if full {
		s.error(w, r, http.StatusTooManyRequests, codeSessionLimit, "session limit (%d) reached; DELETE one first", s.maxSessions)
		return
	}
	var opts []graphgen.Option
	if req.MaxEdges > 0 {
		opts = append(opts, graphgen.WithMaxEdges(req.MaxEdges))
	}
	// ?explain=true asks for the execution plan (structure only),
	// ?analyze=true for the full profile (rows, batches, wall time).
	// Either arms tracing for the one extraction this request runs.
	explain := boolParam(r, "explain")
	analyze := boolParam(r, "analyze")
	if explain || analyze {
		opts = append(opts, graphgen.WithProfile())
	}
	sess := &session{id: s.nextID.Add(1), name: req.Name, query: req.Query, created: time.Now()}
	s.dbMu.Lock()
	var err error
	switch {
	case req.Program != "":
		sess.program, sess.query = true, req.Program
		budget := s.maxDerivedTuples
		if req.MaxDerivedTuples > 0 && (budget <= 0 || req.MaxDerivedTuples < budget) {
			budget = req.MaxDerivedTuples
		}
		sess.static, err = s.engine.ExtractProgram(req.Program, append(opts, graphgen.WithMaxDerivedTuples(budget))...)
	case req.Live:
		sess.live, err = s.engine.ExtractLive(req.Query, opts...)
	default:
		sess.static, err = s.engine.Extract(req.Query, opts...)
	}
	s.dbMu.Unlock()
	if err != nil {
		code := codeExtractionFailed
		if errors.Is(err, graphgen.ErrTooManyDerived) {
			code = codeBudgetExceeded
		}
		s.error(w, r, http.StatusBadRequest, code, "extraction failed: %v", err)
		return
	}
	if sess.program {
		if es, ok := sess.static.ProgramStats(); ok {
			s.metrics.observeEval(es)
		}
	}
	if explain || analyze {
		if sess.live != nil {
			sess.profile = sess.live.BuildProfile()
		} else {
			sess.profile = sess.static.Profile()
		}
	}
	s.sessMu.Lock()
	if _, exists := s.sessions[req.Name]; exists {
		s.sessMu.Unlock()
		s.closeLive(sess.live)
		s.error(w, r, http.StatusConflict, codeSessionExists, "session %q already exists", req.Name)
		return
	}
	if len(s.sessions) >= s.maxSessions {
		s.sessMu.Unlock()
		s.closeLive(sess.live)
		s.error(w, r, http.StatusTooManyRequests, codeSessionLimit, "session limit (%d) reached; DELETE one first", s.maxSessions)
		return
	}
	s.sessions[req.Name] = sess
	s.sessMu.Unlock()
	payload := s.statsPayload(sess)
	if explain && sess.profile != nil {
		payload["plan"] = sess.profile.Plan()
	}
	if analyze && sess.profile != nil {
		payload["profile"] = sess.profile
	}
	writeJSON(w, http.StatusCreated, payload)
}

// boolParam reads a boolean query parameter; anything strconv.ParseBool
// accepts ("true", "1", "t", ...) counts as true, everything else
// (including absence) as false.
func boolParam(r *http.Request, name string) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get(name))
	return err == nil && v
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		Name    string    `json:"name"`
		Live    bool      `json:"live"`
		Program bool      `json:"program"`
		Query   string    `json:"query"`
		Created time.Time `json:"created"`
	}
	s.sessMu.RLock()
	out := make([]item, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, item{Name: sess.name, Live: sess.live != nil, Program: sess.program, Query: sess.query, Created: sess.created})
	}
	s.sessMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.sessMu.Lock()
	sess, ok := s.sessions[name]
	if ok {
		delete(s.sessions, name)
	}
	s.sessMu.Unlock()
	if !ok {
		s.error(w, r, http.StatusNotFound, codeSessionNotFound, "no session %q", name)
		return
	}
	s.closeLive(sess.live)
	s.cache.dropSession(sess.id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// --- reads ---

func (s *Server) statsPayload(sess *session) map[string]any {
	out := map[string]any{
		"name": sess.name,
		"live": sess.live != nil,
	}
	if lg := sess.live; lg != nil {
		ms := lg.MaintenanceStats()
		sum := lg.Summarize()
		out["vertices"] = sum.Vertices
		out["logical_edges"] = sum.LogicalEdges
		out["version"] = sum.Version
		out["pending_deltas"] = sum.Pending
		out["maintenance"] = map[string]int64{
			"delta_rows":  ms.DeltaRows,
			"transitions": ms.Transitions,
			"flushes":     ms.Flushes,
			"rebuilds":    ms.Rebuilds,
		}
		return out
	}
	g := sess.static
	out["vertices"] = g.NumVertices()
	out["virtual_nodes"] = g.NumVirtualNodes()
	out["representation"] = fmt.Sprintf("%v", g.Representation())
	out["rep_edges"] = g.RepEdges()
	out["logical_edges"] = g.LogicalEdges()
	out["mem_bytes"] = g.MemBytes()
	out["version"] = uint64(0)
	if sess.program {
		out["program"] = true
		if es, ok := g.ProgramStats(); ok {
			out["eval"] = map[string]int64{
				"strata":                 int64(es.Strata),
				"iterations":             int64(es.Iterations),
				"derived_tuples":         es.DerivedTuples,
				"temp_tables":            int64(es.TempTables),
				"peak_intermediate_rows": es.PeakIntermediateRows,
			}
		}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("name"))
	if !ok {
		s.error(w, r, http.StatusNotFound, codeSessionNotFound, "no session %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, s.statsPayload(sess))
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("name"))
	if !ok {
		s.error(w, r, http.StatusNotFound, codeSessionNotFound, "no session %q", r.PathValue("name"))
		return
	}
	vs := r.URL.Query().Get("v")
	if vs == "" {
		s.error(w, r, http.StatusBadRequest, codeBadParam, "missing required query parameter v (vertex ID)")
		return
	}
	v, err := strconv.ParseInt(vs, 10, 64)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, codeBadParam, "v must be an integer vertex ID: %v", err)
		return
	}
	var it graphgen.Iterator
	if sess.live != nil {
		it = sess.live.Neighbors(v)
	} else {
		it = sess.static.Neighbors(v)
	}
	neighbors := []int64{}
	for {
		n, ok := it.Next()
		if !ok {
			break
		}
		neighbors = append(neighbors, n)
	}
	sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	writeJSON(w, http.StatusOK, map[string]any{
		"session": sess.name, "vertex": v, "degree": len(neighbors), "neighbors": neighbors,
	})
}

// --- analytics with memoization ---

// analyzeEnvelope is the response shape of /analyze: the cached part is
// Result (raw marshaled bytes reused across hits); the envelope itself is
// built per request so Cached and ComputeMS stay truthful.
type analyzeEnvelope struct {
	Session   string          `json:"session"`
	Analysis  string          `json:"analysis"`
	Params    string          `json:"params"`
	Version   uint64          `json:"version"`
	Cached    bool            `json:"cached"`
	ComputeMS float64         `json:"compute_ms"`
	Result    json.RawMessage `json:"result"`
	// Plan (?explain=true) and Profile (?analyze=true) re-attach the
	// execution trace recorded when the session was created with the
	// same parameters; both are omitted when no trace was recorded.
	Plan    map[string]any    `json:"plan,omitempty"`
	Profile *graphgen.Profile `json:"profile,omitempty"`
}

// attachProfile fills the envelope's Plan/Profile fields from the
// session's recorded build trace when the request asks for them.
func attachProfile(env *analyzeEnvelope, r *http.Request, sess *session) {
	if sess.profile == nil {
		return
	}
	if boolParam(r, "explain") {
		env.Plan = sess.profile.Plan()
	}
	if boolParam(r, "analyze") {
		env.Profile = sess.profile
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	name, algo := r.PathValue("name"), r.PathValue("algo")
	sess, ok := s.lookup(name)
	if !ok {
		s.error(w, r, http.StatusNotFound, codeSessionNotFound, "no session %q", name)
		return
	}
	params, err := parseParams(algo, r.URL.Query())
	if err != nil {
		s.error(w, r, http.StatusBadRequest, codeBadParam, "%v", err)
		return
	}
	// Snapshot-version cache key: reading Version first flushes pending
	// deltas, so a mutation made before this request always misses the
	// old entries.
	var version uint64
	if sess.live != nil {
		version = sess.live.Version()
	}
	key := cacheKey{sessionID: sess.id, version: version, analysis: algo, params: params.canonical}
	if body, ok := s.cache.get(key); ok {
		env := analyzeEnvelope{
			Session: name, Analysis: algo, Params: params.canonical,
			Version: key.version, Cached: true, Result: body,
		}
		attachProfile(&env, r, sess)
		writeJSON(w, http.StatusOK, env)
		return
	}
	// Miss: compute on an isolated graph. Live sessions are snapshotted
	// (atomically with the version, in case a mutation flushed between
	// the Version read above and now); static graphs are immutable and
	// shared.
	g := sess.static
	if sess.live != nil {
		g, key.version = sess.live.SnapshotWithVersion()
	}
	start := time.Now()
	result, err := computeAnalysis(g, algo, params)
	elapsed := time.Since(start)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, codeBadParam, "%v", err)
		return
	}
	body, err := json.Marshal(result)
	if err != nil {
		s.error(w, r, http.StatusInternalServerError, codeInternal, "marshaling result: %v", err)
		return
	}
	s.cache.put(key, body)
	env := analyzeEnvelope{
		Session: name, Analysis: algo, Params: params.canonical,
		Version: key.version, Cached: false,
		ComputeMS: float64(elapsed.Nanoseconds()) / 1e6, Result: body,
	}
	attachProfile(&env, r, sess)
	writeJSON(w, http.StatusOK, env)
}

// analysisParams carries the typed parameters of one analysis plus their
// canonical form (sorted key=value pairs with defaults filled in), which
// is the params component of the cache key — so ?iters=20 and the
// defaulted spelling share an entry.
type analysisParams struct {
	canonical string
	iters     int
	damping   float64
	k         int
	src       int64
	srcAuto   bool
	srcs      []int64
	sources   int
	samples   int
}

var errUnknownAnalysis = errors.New(`unknown analysis (valid: bfs, closeness, components, degree, pagerank, sssp, triangles)`)

func parseParams(algo string, q map[string][]string) (analysisParams, error) {
	p := analysisParams{iters: 20, damping: 0.85, k: 10, srcAuto: true, sources: 4, samples: 64}
	get := func(name string) (string, bool) {
		vs := q[name]
		if len(vs) == 0 || vs[0] == "" {
			return "", false
		}
		return vs[0], true
	}
	var err error
	if v, ok := get("iters"); ok {
		if p.iters, err = strconv.Atoi(v); err != nil || p.iters < 1 || p.iters > 10000 {
			return p, fmt.Errorf("iters must be an integer in [1,10000], got %q", v)
		}
	}
	if v, ok := get("damping"); ok {
		if p.damping, err = strconv.ParseFloat(v, 64); err != nil || p.damping <= 0 || p.damping >= 1 {
			return p, fmt.Errorf("damping must be a float in (0,1), got %q", v)
		}
	}
	if v, ok := get("k"); ok {
		if p.k, err = strconv.Atoi(v); err != nil || p.k < 1 || p.k > 10000 {
			return p, fmt.Errorf("k must be an integer in [1,10000], got %q", v)
		}
	}
	if v, ok := get("src"); ok {
		if p.src, err = strconv.ParseInt(v, 10, 64); err != nil {
			return p, fmt.Errorf("src must be an integer vertex ID, got %q", v)
		}
		p.srcAuto = false
	}
	if v, ok := get("srcs"); ok {
		for _, part := range strings.Split(v, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return p, fmt.Errorf("srcs must be comma-separated integer vertex IDs, got %q", v)
			}
			p.srcs = append(p.srcs, id)
		}
		// Canonicalize: sorted, deduplicated — BFS from a multiset of
		// sources equals BFS from the set.
		sort.Slice(p.srcs, func(i, j int) bool { return p.srcs[i] < p.srcs[j] })
		p.srcs = slices.Compact(p.srcs)
	}
	if v, ok := get("sources"); ok {
		if p.sources, err = strconv.Atoi(v); err != nil || p.sources < 1 || p.sources > 10000 {
			return p, fmt.Errorf("sources must be an integer in [1,10000], got %q", v)
		}
	}
	if v, ok := get("samples"); ok {
		if p.samples, err = strconv.Atoi(v); err != nil || p.samples < 1 || p.samples > 10000 {
			return p, fmt.Errorf("samples must be an integer in [1,10000], got %q", v)
		}
	}
	switch algo {
	case "degree":
		p.canonical = fmt.Sprintf("k=%d", p.k)
	case "pagerank":
		p.canonical = fmt.Sprintf("damping=%g&iters=%d&k=%d", p.damping, p.iters, p.k)
	case "components", "triangles":
		p.canonical = ""
	case "bfs":
		if p.srcAuto {
			p.canonical = "src=auto"
		} else {
			p.canonical = fmt.Sprintf("src=%d", p.src)
		}
	case "sssp":
		if len(p.srcs) > 0 {
			parts := make([]string, len(p.srcs))
			for i, id := range p.srcs {
				parts[i] = strconv.FormatInt(id, 10)
			}
			p.canonical = "srcs=" + strings.Join(parts, ",")
		} else {
			p.canonical = fmt.Sprintf("sources=%d", p.sources)
		}
	case "closeness":
		p.canonical = fmt.Sprintf("k=%d&samples=%d", p.k, p.samples)
	default:
		return p, errUnknownAnalysis
	}
	return p, nil
}

// computeAnalysis runs one analysis on a graph the caller guarantees is
// not being mutated (a live snapshot or an immutable static session).
func computeAnalysis(g *graphgen.Graph, algo string, p analysisParams) (any, error) {
	switch algo {
	case "degree":
		deg := g.Degrees()
		type entry struct {
			ID     int64 `json:"id"`
			Degree int   `json:"degree"`
		}
		top := make([]entry, 0, len(deg))
		var sum int64
		for id, d := range deg {
			top = append(top, entry{ID: id, Degree: d})
			sum += int64(d)
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].Degree != top[j].Degree {
				return top[i].Degree > top[j].Degree
			}
			return top[i].ID < top[j].ID
		})
		maxDeg, avg := 0, 0.0
		if len(top) > 0 {
			maxDeg = top[0].Degree
			avg = float64(sum) / float64(len(top))
		}
		if len(top) > p.k {
			top = top[:p.k]
		}
		return map[string]any{"vertices": len(deg), "max_degree": maxDeg, "avg_degree": avg, "top": top}, nil
	case "pagerank":
		pr := g.PageRank(p.iters, p.damping)
		type entry struct {
			ID   int64   `json:"id"`
			Rank float64 `json:"rank"`
			Name string  `json:"name,omitempty"`
		}
		top := make([]entry, 0, len(pr))
		for id, rank := range pr {
			top = append(top, entry{ID: id, Rank: rank})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].Rank != top[j].Rank {
				return top[i].Rank > top[j].Rank
			}
			return top[i].ID < top[j].ID
		})
		if len(top) > p.k {
			top = top[:p.k]
		}
		for i := range top {
			if name, ok := g.PropertyOf(top[i].ID, "Name"); ok {
				top[i].Name = name
			}
		}
		return map[string]any{"iters": p.iters, "damping": p.damping, "top": top}, nil
	case "components":
		labels, n := g.ConnectedComponents()
		sizes := make(map[int]int)
		for _, c := range labels {
			sizes[c]++
		}
		largest := 0
		for _, sz := range sizes {
			if sz > largest {
				largest = sz
			}
		}
		return map[string]any{"components": n, "largest_size": largest, "vertices": len(labels)}, nil
	case "bfs":
		src := p.src
		if p.srcAuto {
			it := g.Vertices()
			first, ok := it.Next()
			if !ok {
				return map[string]any{"src": nil, "visited": 0, "max_depth": 0}, nil
			}
			src = first
		}
		visited, depth := g.BFS(src)
		return map[string]any{"src": src, "visited": visited, "max_depth": depth}, nil
	case "triangles":
		return map[string]any{"triangles": g.CountTriangles()}, nil
	case "sssp":
		// Multi-source shortest paths (SIGMOD 2014 contest family): hop
		// distance to the nearest source. Explicit ?srcs=1,2,3 or a
		// deterministic evenly-spaced ?sources=k sample.
		snap := workload.Snap(g)
		srcs := p.srcs
		if len(srcs) == 0 {
			srcs = snap.SampleSources(p.sources)
		}
		res := snap.MultiSourceBFS(srcs)
		avg := 0.0
		if res.Reached > 0 {
			avg = float64(res.SumDist) / float64(res.Reached)
		}
		sources := res.Sources
		if sources == nil {
			sources = []int64{}
		}
		return map[string]any{
			"sources":   sources,
			"reached":   res.Reached,
			"unreached": res.Unreached,
			"max_depth": res.MaxDepth,
			"sum_dist":  res.SumDist,
			"avg_dist":  avg,
		}, nil
	case "closeness":
		// Sampled exact closeness centrality: one BFS per pivot, contest
		// scoring (reachability-corrected), top-k by score.
		snap := workload.Snap(g)
		pivots := snap.SampleSources(p.samples)
		scores := workload.TopCloseness(snap.Closeness(pivots, 0), p.k)
		type entry struct {
			ID        int64   `json:"id"`
			Closeness float64 `json:"closeness"`
			Reached   int     `json:"reached"`
			SumDist   int64   `json:"sum_dist"`
			Name      string  `json:"name,omitempty"`
		}
		top := make([]entry, len(scores))
		for i, s := range scores {
			top[i] = entry{ID: s.ID, Closeness: s.Closeness, Reached: s.Reached, SumDist: s.SumDist}
			if name, ok := g.PropertyOf(s.ID, "Name"); ok {
				top[i].Name = name
			}
		}
		return map[string]any{"samples": len(pivots), "vertices": snap.NumVertices(), "top": top}, nil
	default:
		return nil, errUnknownAnalysis
	}
}

// --- mutations ---

type mutateRequest struct {
	Row  []any   `json:"row"`
	Rows [][]any `json:"rows"`
}

// handleMutate returns the handler for one mutation op ("insert" or
// "delete"), bound at route registration.
func (s *Server) handleMutate(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.mutate(op, w, r) }
}

func (s *Server) mutate(op string, w http.ResponseWriter, r *http.Request) {
	tableName := r.PathValue("table")
	table, err := s.engine.DB().Table(tableName)
	if err != nil {
		s.error(w, r, http.StatusNotFound, codeTableNotFound, "%v", err)
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.UseNumber()
	var req mutateRequest
	if err := dec.Decode(&req); err != nil {
		s.error(w, r, http.StatusBadRequest, codeBadJSON, "invalid JSON body: %v", err)
		return
	}
	rows := req.Rows
	if req.Row != nil {
		rows = append(rows, req.Row)
	}
	if len(rows) == 0 {
		s.error(w, r, http.StatusBadRequest, codeBadParam, `body must carry "row" (one tuple) or "rows" (a batch)`)
		return
	}
	typed := make([][]graphgen.Value, len(rows))
	for i, raw := range rows {
		typed[i], err = convertRow(table, raw)
		if err != nil {
			s.error(w, r, http.StatusBadRequest, codeBadParam, "row %d: %v", i, err)
			return
		}
	}
	// One lock both serializes table access and makes the change-log
	// callbacks (live-graph delta computation) single-writer, as the
	// incremental subsystem requires.
	s.dbMu.Lock()
	applied := 0
	if op == "insert" {
		for _, row := range typed {
			if err = table.Insert(row...); err != nil {
				break
			}
			applied++
		}
	} else {
		for _, row := range typed {
			found, derr := table.Delete(row...)
			if derr != nil {
				err = derr
				break
			}
			if found {
				applied++
			}
		}
	}
	s.dbMu.Unlock()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, codeMutationFailed, "%s: applied %d of %d rows, then: %v", op, applied, len(typed), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": table.Name, "op": op, "applied": applied, "requested": len(typed)})
}

// convertRow types a JSON row against the table schema: numbers for Int
// columns (integral only), strings for String columns.
func convertRow(t *graphgen.Table, raw []any) ([]graphgen.Value, error) {
	if len(raw) != len(t.Cols) {
		return nil, fmt.Errorf("arity %d, schema %s has %d columns", len(raw), t.Name, len(t.Cols))
	}
	out := make([]graphgen.Value, len(raw))
	for i, v := range raw {
		col := t.Cols[i]
		switch col.Type {
		case graphgen.Int:
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("column %s is Int, got %T", col.Name, v)
			}
			n, err := num.Int64()
			if err != nil {
				return nil, fmt.Errorf("column %s is Int, got %v", col.Name, num)
			}
			out[i] = graphgen.IntVal(n)
		case graphgen.String:
			str, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("column %s is String, got %T", col.Name, v)
			}
			out[i] = graphgen.StrVal(str)
		default:
			return nil, fmt.Errorf("column %s has unsupported type", col.Name)
		}
	}
	return out, nil
}

// --- health and metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	uptime, _ := s.metrics.snapshot()
	s.sessMu.RLock()
	n := len(s.sessions)
	s.sessMu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "uptime_s": uptime.Seconds(), "sessions": n,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	uptime, routes := s.metrics.snapshot()
	s.sessMu.RLock()
	n := len(s.sessions)
	s.sessMu.RUnlock()
	// Refresh the index count only if dbMu is immediately available: a
	// long-running extraction or program evaluation holds it, and a
	// read-only gauge must not stall monitoring behind that work.
	if s.dbMu.TryLock() {
		db := s.engine.DB()
		indexes := 0
		for _, name := range db.TableNames() {
			if t, err := db.Table(name); err == nil {
				indexes += len(t.IndexedColumns())
			}
		}
		s.dbMu.Unlock()
		s.dbIndexes.Store(int64(indexes))
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cs := s.cache.stats()
		fmt.Fprintf(w, "# TYPE graphgend_uptime_seconds gauge\ngraphgend_uptime_seconds %g\n", uptime.Seconds())
		fmt.Fprintf(w, "# TYPE graphgend_sessions gauge\ngraphgend_sessions %d\n", n)
		fmt.Fprintf(w, "# TYPE graphgend_db_indexes gauge\ngraphgend_db_indexes %d\n", s.dbIndexes.Load())
		fmt.Fprintf(w, "# TYPE graphgend_cache_hits_total counter\ngraphgend_cache_hits_total %d\n", cs.Hits)
		fmt.Fprintf(w, "# TYPE graphgend_cache_misses_total counter\ngraphgend_cache_misses_total %d\n", cs.Misses)
		fmt.Fprintf(w, "# TYPE graphgend_cache_evictions_total counter\ngraphgend_cache_evictions_total %d\n", cs.Evictions)
		s.metrics.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":     uptime.Seconds(),
		"sessions":     n,
		"requests":     routes,
		"cache":        s.cache.stats(),
		"db_indexes":   s.dbIndexes.Load(),
		"datalog_eval": s.metrics.evalSnapshot(),
	})
}
