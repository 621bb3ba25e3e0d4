package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
)

// newTestServer builds a server over a small DBLP-like database and
// returns it with its httptest front end.
func newTestServer(t testing.TB, nAuthors, nPubs int) (*Server, *httptest.Server) {
	t.Helper()
	db := datagen.DBLPLike(7, nAuthors, nPubs)
	engine := graphgen.NewEngine(db)
	s := New(engine, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// api is the one prefix every endpoint is served under.
const api = "/v1"

// doJSON performs a request and decodes the JSON response.
func doJSON(t testing.TB, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// errEnvelope unwraps the structured error envelope
// {"error": {"code": ..., "message": ...}} of a failed response.
func errEnvelope(t testing.TB, body map[string]any) (code, message string) {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response carries no error envelope: %v", body)
	}
	code, _ = env["code"].(string)
	message, _ = env["message"].(string)
	return code, message
}

func createSession(t testing.TB, ts *httptest.Server, name string, live bool) {
	t.Helper()
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": name, "query": datagen.QueryCoauthors, "live": live,
	})
	if code != http.StatusCreated {
		t.Fatalf("create %s: status %d, body %v", name, code, body)
	}
}

func TestStaticSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, 200, 150)
	createSession(t, ts, "co", false)

	code, stats := doJSON(t, "GET", ts.URL+api+"/graphs/co/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %v", code, stats)
	}
	if stats["live"] != false || stats["vertices"].(float64) <= 0 {
		t.Fatalf("unexpected stats: %v", stats)
	}
	if stats["version"].(float64) != 0 {
		t.Fatalf("static session version = %v, want 0", stats["version"])
	}

	code, list := doJSON(t, "GET", ts.URL+api+"/graphs", nil)
	if code != http.StatusOK || len(list["sessions"].([]any)) != 1 {
		t.Fatalf("list: status %d, %v", code, list)
	}

	for _, algo := range []string{"degree", "pagerank", "components", "bfs", "triangles"} {
		code, res := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/"+algo, nil)
		if code != http.StatusOK {
			t.Fatalf("analyze %s: status %d: %v", algo, code, res)
		}
		if res["cached"] != false {
			t.Fatalf("analyze %s first run reported cached", algo)
		}
		code, res = doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/"+algo, nil)
		if code != http.StatusOK || res["cached"] != true {
			t.Fatalf("analyze %s second run not cached: status %d, %v", algo, code, res)
		}
	}

	code, _ = doJSON(t, "DELETE", ts.URL+api+"/graphs/co", nil)
	if code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+api+"/graphs/co/stats", nil)
	if code != http.StatusNotFound {
		t.Fatalf("stats after delete: status %d, want 404", code)
	}
}

func TestNeighborsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 100, 80)
	createSession(t, ts, "co", false)
	code, res := doJSON(t, "GET", ts.URL+api+"/graphs/co/neighbors?v=1", nil)
	if code != http.StatusOK {
		t.Fatalf("neighbors: status %d: %v", code, res)
	}
	if int(res["degree"].(float64)) != len(res["neighbors"].([]any)) {
		t.Fatalf("degree/neighbors mismatch: %v", res)
	}
	if code, _ := doJSON(t, "GET", ts.URL+api+"/graphs/co/neighbors", nil); code != http.StatusBadRequest {
		t.Fatalf("neighbors without v: status %d, want 400", code)
	}
}

// TestLiveMutationInvalidatesCache is the cache-contract test: analytics
// on an unchanged live snapshot hit the cache, a routed table mutation
// advances the snapshot version, and the same request recomputes.
func TestLiveMutationInvalidatesCache(t *testing.T) {
	_, ts := newTestServer(t, 200, 150)
	createSession(t, ts, "co", true)

	_, first := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/components", nil)
	if first["cached"] != false {
		t.Fatal("first analyze reported cached")
	}
	_, second := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/components", nil)
	if second["cached"] != true {
		t.Fatal("second analyze not cached")
	}
	if first["version"] != second["version"] {
		t.Fatalf("version moved without mutation: %v -> %v", first["version"], second["version"])
	}

	// Route a mutation through the daemon: the live session must follow
	// and the cached result must be invalidated (new snapshot version).
	code, res := doJSON(t, "POST", ts.URL+api+"/db/AuthorPub/insert", map[string]any{
		"row": []any{1, 999999},
	})
	if code != http.StatusOK || res["applied"].(float64) != 1 {
		t.Fatalf("insert: status %d, %v", code, res)
	}
	_, third := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/components", nil)
	if third["cached"] != false {
		t.Fatal("analyze after mutation served a stale cached result")
	}
	if third["version"] == second["version"] {
		t.Fatalf("snapshot version did not advance after mutation: %v", third["version"])
	}

	// Deleting the inserted tuple flushes again: version advances again.
	code, res = doJSON(t, "POST", ts.URL+api+"/db/AuthorPub/delete", map[string]any{
		"row": []any{1, 999999},
	})
	if code != http.StatusOK || res["applied"].(float64) != 1 {
		t.Fatalf("delete: status %d, %v", code, res)
	}
	_, fourth := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/components", nil)
	if fourth["cached"] != false || fourth["version"] == third["version"] {
		t.Fatalf("delete did not invalidate: %v vs %v", fourth, third)
	}
}

func TestBatchInsertAndDeleteCounts(t *testing.T) {
	_, ts := newTestServer(t, 50, 40)
	code, res := doJSON(t, "POST", ts.URL+api+"/db/AuthorPub/insert", map[string]any{
		"rows": []any{[]any{1, 777777}, []any{2, 777777}},
	})
	if code != http.StatusOK || res["applied"].(float64) != 2 {
		t.Fatalf("batch insert: status %d, %v", code, res)
	}
	// Deleting one present and one absent row reports applied=1.
	code, res = doJSON(t, "POST", ts.URL+api+"/db/AuthorPub/delete", map[string]any{
		"rows": []any{[]any{1, 777777}, []any{1, 888888}},
	})
	if code != http.StatusOK || res["applied"].(float64) != 1 || res["requested"].(float64) != 2 {
		t.Fatalf("batch delete: status %d, %v", code, res)
	}
}

// TestBatchDeleteOfDuplicates names one tuple twice in a delete batch on a
// table holding it three times: each name removes one copy, so two go and
// one stays, and the live session then serves exactly what a fresh
// extraction of the same database does.
func TestBatchDeleteOfDuplicates(t *testing.T) {
	s, ts := newTestServer(t, 60, 50)
	createSession(t, ts, "live", true)
	dup := []any{5, 777777}
	code, res := doJSON(t, "POST", ts.URL+api+"/db/AuthorPub/insert", map[string]any{
		"rows": []any{dup, dup, dup, []any{6, 777777}},
	})
	if code != http.StatusOK || res["applied"].(float64) != 4 {
		t.Fatalf("insert: status %d, %v", code, res)
	}
	code, res = doJSON(t, "POST", ts.URL+api+"/db/AuthorPub/delete", map[string]any{"rows": []any{dup, dup}})
	if code != http.StatusOK || res["applied"].(float64) != 2 || res["requested"].(float64) != 2 {
		t.Fatalf("delete: status %d, %v", code, res)
	}

	fresh, err := s.engine.Extract(datagen.QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := doJSON(t, "GET", ts.URL+api+"/graphs/live/stats", nil)
	if got, want := int(stats["vertices"].(float64)), fresh.NumVertices(); got != want {
		t.Fatalf("live session has %d vertices, fresh extraction %d", got, want)
	}
	if got, want := int64(stats["logical_edges"].(float64)), fresh.LogicalEdges(); got != want {
		t.Fatalf("live session has %d logical edges, fresh extraction %d", got, want)
	}
	if !fresh.ExistsEdge(5, 6) {
		t.Fatal("the copy left of (5, 777777) should still join 5 and 6")
	}
	for it := fresh.Vertices(); ; {
		v, ok := it.Next()
		if !ok {
			break
		}
		want := []int64{}
		for nit := fresh.Neighbors(v); ; {
			n, ok := nit.Next()
			if !ok {
				break
			}
			want = append(want, n)
		}
		slices.Sort(want)
		_, body := doJSON(t, "GET", fmt.Sprintf("%s%s/graphs/live/neighbors?v=%d", ts.URL, api, v), nil)
		got := []int64{}
		for _, n := range body["neighbors"].([]any) {
			got = append(got, int64(n.(float64)))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("vertex %d: served neighbors %v, fresh extraction %v", v, got, want)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, 50, 40)
	createSession(t, ts, "co", false)
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"bad JSON", "POST", "/graphs", nil, http.StatusBadRequest},
		{"empty name", "POST", "/graphs", map[string]any{"query": "x"}, http.StatusBadRequest},
		{"dotdot name", "POST", "/graphs", map[string]any{"name": "..", "query": datagen.QueryCoauthors}, http.StatusBadRequest},
		{"percent name", "POST", "/graphs", map[string]any{"name": "a%2Fb", "query": datagen.QueryCoauthors}, http.StatusBadRequest},
		{"empty query", "POST", "/graphs", map[string]any{"name": "q"}, http.StatusBadRequest},
		{"bad query", "POST", "/graphs", map[string]any{"name": "q", "query": "Nodes("}, http.StatusBadRequest},
		{"duplicate session", "POST", "/graphs", map[string]any{"name": "co", "query": datagen.QueryCoauthors}, http.StatusConflict},
		{"unknown session stats", "GET", "/graphs/nope/stats", nil, http.StatusNotFound},
		{"unknown session analyze", "GET", "/graphs/nope/analyze/pagerank", nil, http.StatusNotFound},
		{"unknown analysis", "GET", "/graphs/co/analyze/eigenvector", nil, http.StatusBadRequest},
		{"bad iters", "GET", "/graphs/co/analyze/pagerank?iters=0", nil, http.StatusBadRequest},
		{"bad damping", "GET", "/graphs/co/analyze/pagerank?damping=2", nil, http.StatusBadRequest},
		{"bad k", "GET", "/graphs/co/analyze/degree?k=-1", nil, http.StatusBadRequest},
		{"bad src", "GET", "/graphs/co/analyze/bfs?src=abc", nil, http.StatusBadRequest},
		{"unknown table", "POST", "/db/NoSuch/insert", map[string]any{"row": []any{1}}, http.StatusNotFound},
		{"bad arity", "POST", "/db/AuthorPub/insert", map[string]any{"row": []any{1}}, http.StatusBadRequest},
		{"wrong type", "POST", "/db/AuthorPub/insert", map[string]any{"row": []any{"x", 2}}, http.StatusBadRequest},
		{"no rows", "POST", "/db/AuthorPub/insert", map[string]any{}, http.StatusBadRequest},
		{"delete unknown session", "DELETE", "/graphs/nope", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			if tc.name == "bad JSON" {
				resp, err := http.Post(ts.URL+api+tc.path, "application/json", bytes.NewReader([]byte("{")))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
			} else {
				code, _ = doJSON(t, tc.method, ts.URL+api+tc.path, tc.body)
			}
			if code != tc.want {
				t.Fatalf("status %d, want %d", code, tc.want)
			}
		})
	}
}

func TestParamCanonicalizationSharesCacheEntries(t *testing.T) {
	_, ts := newTestServer(t, 80, 60)
	createSession(t, ts, "co", false)
	_, first := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/pagerank?iters=20&damping=0.85&k=10", nil)
	if first["cached"] != false {
		t.Fatal("first request reported cached")
	}
	// Default spelling must hit the explicit spelling's entry.
	_, second := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/pagerank", nil)
	if second["cached"] != true {
		t.Fatalf("defaulted params missed the canonical entry: %v", second["params"])
	}
	// Different params are a different entry.
	_, third := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/pagerank?iters=5", nil)
	if third["cached"] != false {
		t.Fatal("different params served the wrong cache entry")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, 50, 40)
	createSession(t, ts, "co", false)
	code, health := doJSON(t, "GET", ts.URL+api+"/healthz", nil)
	if code != http.StatusOK || health["status"] != "ok" || health["sessions"].(float64) != 1 {
		t.Fatalf("healthz: %d %v", code, health)
	}
	doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/components", nil)
	doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/components", nil)
	code, m := doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	cache := m["cache"].(map[string]any)
	if cache["hits"].(float64) < 1 || cache["misses"].(float64) < 1 {
		t.Fatalf("cache counters not tracked: %v", cache)
	}
	reqs := m["requests"].(map[string]any)
	analyze, ok := reqs["GET /v1/graphs/{name}/analyze/{algo}"].(map[string]any)
	if !ok || analyze["count"].(float64) < 2 {
		t.Fatalf("per-route metrics missing: %v", reqs)
	}
}

// TestConcurrentMixedLoad is the acceptance load test: >= 8 concurrent
// clients mix cached analytics reads, neighbor lookups, stats, and
// single-tuple mutations against one live session. Run under -race, it
// verifies the daemon's full locking story end to end.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, 300, 250)
	createSession(t, ts, "co", true)

	const clients = 12
	const opsPerClient = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients*opsPerClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < opsPerClient; i++ {
				var (
					code int
					err  error
				)
				switch rng.Intn(6) {
				case 0: // single-tuple insert, live graph follows
					code, err = postJSON(ts.URL+api+"/db/AuthorPub/insert",
						map[string]any{"row": []any{rng.Intn(300) + 1, 900000 + rng.Intn(50)}})
				case 1: // single-tuple delete (row may be absent: still 200)
					code, err = postJSON(ts.URL+api+"/db/AuthorPub/delete",
						map[string]any{"row": []any{rng.Intn(300) + 1, 900000 + rng.Intn(50)}})
				case 2:
					code, err = getStatus(ts.URL + api + "/graphs/co/stats")
				case 3:
					code, err = getStatus(fmt.Sprintf("%s"+api+"/graphs/co/neighbors?v=%d", ts.URL, rng.Intn(300)+1))
				case 4:
					code, err = getStatus(ts.URL + api + "/graphs/co/analyze/components")
				case 5:
					code, err = getStatus(ts.URL + api + "/graphs/co/analyze/degree?k=5")
				}
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d op %d: status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The session must still be serving a sane graph after the storm.
	code, stats := doJSON(t, "GET", ts.URL+api+"/graphs/co/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("final stats: %d", code)
	}
	if stats["vertices"].(float64) <= 0 {
		t.Fatalf("live graph lost its vertices: %v", stats)
	}
}

func postJSON(url string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func getStatus(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestLiveEqualsFreshExtractionAfterServedMutations checks end-to-end
// equivalence through the HTTP surface: after a sequence of routed
// mutations, the live session's logical edge count equals a fresh static
// extraction over the same database.
func TestLiveEqualsFreshExtractionAfterServedMutations(t *testing.T) {
	s, ts := newTestServer(t, 120, 100)
	createSession(t, ts, "live", true)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		row := []any{rng.Intn(120) + 1, 800000 + rng.Intn(30)}
		path := "/db/AuthorPub/insert"
		if rng.Intn(3) == 0 {
			path = "/db/AuthorPub/delete"
		}
		if code, err := postJSON(ts.URL+api+path, map[string]any{"row": row}); err != nil || code != http.StatusOK {
			t.Fatalf("mutation %d: code %d err %v", i, code, err)
		}
	}
	_, liveStats := doJSON(t, "GET", ts.URL+api+"/graphs/live/stats", nil)
	fresh, err := s.engine.Extract(datagen.QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(liveStats["logical_edges"].(float64)), fresh.LogicalEdges(); got != want {
		t.Fatalf("live logical edges %d != fresh extraction %d", got, want)
	}
}

// TestCachedAnalyzeSpeedup asserts the acceptance criterion that cached
// re-analysis of an unchanged snapshot is at least 10x faster than the
// first computation. PageRank on the mid-size graph takes milliseconds;
// a hit is an LRU lookup plus a JSON write.
func TestCachedAnalyzeSpeedup(t *testing.T) {
	_, ts := newTestServer(t, 2000, 1600)
	createSession(t, ts, "co", false)

	url := ts.URL + api + "/graphs/co/analyze/pagerank?iters=40"
	start := time.Now()
	code, first := doJSON(t, "GET", url, nil)
	firstDur := time.Since(start)
	if code != http.StatusOK || first["cached"] != false {
		t.Fatalf("first: %d %v", code, first["cached"])
	}

	const reps = 20
	start = time.Now()
	for i := 0; i < reps; i++ {
		code, res := doJSON(t, "GET", url, nil)
		if code != http.StatusOK || res["cached"] != true {
			t.Fatalf("rep %d: status %d cached %v", i, code, res["cached"])
		}
	}
	cachedDur := time.Since(start) / reps
	if cachedDur == 0 {
		cachedDur = time.Nanosecond
	}
	ratio := float64(firstDur) / float64(cachedDur)
	t.Logf("first %v vs cached %v: %.1fx", firstDur, cachedDur, ratio)
	if ratio < 10 {
		t.Fatalf("cached re-analysis only %.1fx faster than first computation, want >= 10x", ratio)
	}
}

// TestConcurrentDeleteVsMutation races live-session teardown (whose
// subscription cancel mutates the relstore subscriber list) against
// routed table mutations (which walk that list in notify): both must be
// serialized on the server's table mutex. Run under -race.
func TestConcurrentDeleteVsMutation(t *testing.T) {
	_, ts := newTestServer(t, 100, 80)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := map[string]any{"row": []any{i%100 + 1, 910000 + i%20}}
			if code, err := postJSON(ts.URL+api+"/db/AuthorPub/insert", row); err != nil || code != http.StatusOK {
				t.Errorf("insert: code %d err %v", code, err)
				return
			}
			postJSON(ts.URL+api+"/db/AuthorPub/delete", row)
		}
	}()
	for round := 0; round < 10; round++ {
		name := fmt.Sprintf("s%d", round)
		createSession(t, ts, name, true)
		doJSON(t, "GET", ts.URL+api+"/graphs/"+name+"/analyze/components", nil)
		if code, _ := doJSON(t, "DELETE", ts.URL+api+"/graphs/"+name, nil); code != http.StatusOK {
			t.Fatalf("delete round %d: %d", round, code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRecreatedSessionDoesNotInheritCache: deleting a session and
// re-creating one under the same name (with a different query) must not
// serve the old instance's cached analytics — the cache key carries a
// per-instance nonce, so name+version collisions across instances are
// impossible even for results cached by handlers still in flight during
// the delete.
func TestRecreatedSessionDoesNotInheritCache(t *testing.T) {
	_, ts := newTestServer(t, 100, 80)
	createSession(t, ts, "g", false)
	_, first := doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/components", nil)
	if first["cached"] != false {
		t.Fatal("first analyze reported cached")
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+api+"/graphs/g", nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	// Same name, different graph shape: a single-author query.
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name":  "g",
		"query": "Nodes(ID, Name) :- Author(ID, Name).\nEdges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).",
	})
	if code != http.StatusCreated {
		t.Fatalf("re-create: %d %v", code, body)
	}
	_, res := doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/components", nil)
	if res["cached"] != false {
		t.Fatal("re-created session served the deleted session's cached result")
	}
}

// TestSessionCap: creates beyond MaxSessions are refused with 429 —
// before the extraction runs, so a create storm at the cap cannot
// saturate the engine.
func TestSessionCap(t *testing.T) {
	db := datagen.DBLPLike(7, 60, 50)
	engine := graphgen.NewEngine(db)
	s := New(engine, Options{MaxSessions: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	createSession(t, ts, "one", false)
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": "two", "query": datagen.QueryCoauthors,
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("create past cap: status %d, %v", code, body)
	}
	// Freeing a slot makes room again.
	doJSON(t, "DELETE", ts.URL+api+"/graphs/one", nil)
	createSession(t, ts, "two", false)
}

func TestCacheEviction(t *testing.T) {
	db := datagen.DBLPLike(7, 60, 50)
	engine := graphgen.NewEngine(db)
	s := New(engine, Options{CacheEntries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	createSession(t, ts, "co", false)
	// Three distinct entries through a 2-entry cache: the first must be
	// evicted and recompute.
	doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/bfs?src=1", nil)
	doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/bfs?src=2", nil)
	doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/bfs?src=3", nil)
	_, res := doJSON(t, "GET", ts.URL+api+"/graphs/co/analyze/bfs?src=1", nil)
	if res["cached"] != false {
		t.Fatal("evicted entry served as cached")
	}
	st := s.cache.stats()
	if st.Evictions < 1 || st.Entries > 2 {
		t.Fatalf("eviction accounting: %+v", st)
	}
}

// --- Datalog program sessions ---

// reachProgramFor builds the transitive co-authorship reachability
// program served over the DBLP-like fixture.
const reachProgram = `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Nodes(ID, Name) :- Author(ID, Name).
Edges(A, B) :- Reach(A, B).
`

// TestProgramSessionMatchesFixpoint creates a recursive-program session
// over HTTP and asserts its edges equal an independently computed
// reachability fixpoint of the underlying co-author relation.
func TestProgramSessionMatchesFixpoint(t *testing.T) {
	s, ts := newTestServer(t, 60, 45)
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": "reach", "program": reachProgram,
	})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, body %v", code, body)
	}
	if body["program"] != true {
		t.Fatalf("stats payload lacks program flag: %v", body)
	}
	ev, ok := body["eval"].(map[string]any)
	if !ok || ev["strata"].(float64) != 2 || ev["derived_tuples"].(float64) <= 0 {
		t.Fatalf("eval counters missing or wrong: %v", body)
	}

	// Independent fixpoint: co-author adjacency from the relational
	// tables, then per-source BFS.
	ap, err := s.engine.DB().Table("AuthorPub")
	if err != nil {
		t.Fatal(err)
	}
	byPub := make(map[int64][]int64)
	for _, row := range ap.Rows {
		byPub[row[1].I] = append(byPub[row[1].I], row[0].I)
	}
	adj := make(map[int64]map[int64]struct{})
	link := func(a, b int64) {
		if adj[a] == nil {
			adj[a] = make(map[int64]struct{})
		}
		adj[a][b] = struct{}{}
	}
	for _, authors := range byPub {
		for _, a := range authors {
			for _, b := range authors {
				if a != b {
					link(a, b)
				}
			}
		}
	}
	reach := func(src int64) map[int64]struct{} {
		out := make(map[int64]struct{})
		queue := []int64{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := range adj[u] {
				if _, seen := out[v]; seen {
					continue
				}
				out[v] = struct{}{}
				queue = append(queue, v)
			}
		}
		return out
	}

	authors, err := s.engine.DB().Table("Author")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, row := range authors.Rows {
		src := row[0].I
		want := reach(src)
		delete(want, src) // extraction drops self loops by default
		code, res := doJSON(t, "GET", fmt.Sprintf("%s"+api+"/graphs/reach/neighbors?v=%d", ts.URL, src), nil)
		if code != http.StatusOK {
			t.Fatalf("neighbors(%d): status %d: %v", src, code, res)
		}
		got := res["neighbors"].([]any)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors, want %d", src, len(got), len(want))
		}
		for _, n := range got {
			if _, ok := want[int64(n.(float64))]; !ok {
				t.Fatalf("vertex %d: neighbor %v not in fixpoint", src, n)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no authors checked")
	}
}

func TestProgramSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, 40, 30)

	// live=true with a program: clear static-only error.
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": "p1", "program": reachProgram, "live": true,
	})
	if ecode, msg := errEnvelope(t, body); code != http.StatusBadRequest || ecode != "bad_param" || !strings.Contains(msg, "static-only") {
		t.Fatalf("live program: status %d, body %v", code, body)
	}

	// query and program together.
	code, body = doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": "p2", "program": reachProgram, "query": datagen.QueryCoauthors,
	})
	if ecode, msg := errEnvelope(t, body); code != http.StatusBadRequest || ecode != "bad_param" || !strings.Contains(msg, "mutually exclusive") {
		t.Fatalf("both: status %d, body %v", code, body)
	}

	// neither.
	code, body = doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{"name": "p3"})
	if code != http.StatusBadRequest {
		t.Fatalf("neither: status %d, body %v", code, body)
	}

	// unstratifiable program surfaces as extraction failure.
	code, body = doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name":    "p4",
		"program": "P(A) :- Author(A, _), !P(A).\nNodes(A) :- Author(A, _).\nEdges(A, B) :- P(A), P(B).",
	})
	if ecode, msg := errEnvelope(t, body); code != http.StatusBadRequest || ecode != "extraction_failed" || !strings.Contains(msg, "negation cycle") {
		t.Fatalf("unstratifiable: status %d, body %v", code, body)
	}
}

// TestMetricsEvalCounters asserts /metrics aggregates evaluation counters
// across program-built sessions and stays zero without them.
func TestMetricsEvalCounters(t *testing.T) {
	_, ts := newTestServer(t, 40, 30)

	code, m := doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	ev := m["datalog_eval"].(map[string]any)
	if ev["programs"].(float64) != 0 {
		t.Fatalf("programs = %v before any session", ev["programs"])
	}

	createSession(t, ts, "plain", false) // query sessions must not count
	for _, name := range []string{"r1", "r2"} {
		code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
			"name": name, "program": reachProgram,
		})
		if code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", name, code, body)
		}
	}
	// A failed program must not bump the counters.
	doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": "bad", "program": "Nodes(",
	})

	code, m = doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	ev = m["datalog_eval"].(map[string]any)
	if ev["programs"].(float64) != 2 {
		t.Fatalf("programs = %v, want 2", ev["programs"])
	}
	if ev["strata"].(float64) != 4 { // 2 strata per reach program
		t.Fatalf("strata = %v, want 4", ev["strata"])
	}
	if ev["iterations"].(float64) <= 0 || ev["derived_tuples"].(float64) <= 0 {
		t.Fatalf("iterations/derived_tuples not aggregated: %v", ev)
	}

	// Sessions listing flags program sessions.
	_, list := doJSON(t, "GET", ts.URL+api+"/graphs", nil)
	progCount := 0
	for _, it := range list["sessions"].([]any) {
		if it.(map[string]any)["program"] == true {
			progCount++
		}
	}
	if progCount != 2 {
		t.Fatalf("program sessions listed = %d, want 2", progCount)
	}
}

// TestProgramSessionDerivedBudget: the server caps program-evaluation
// materialization (default 10M; requests may lower it), so a runaway
// recursion fails fast instead of stalling the daemon under dbMu.
func TestProgramSessionDerivedBudget(t *testing.T) {
	_, ts := newTestServer(t, 60, 45)
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": "tiny", "program": reachProgram, "max_derived_tuples": 5,
	})
	if ecode, msg := errEnvelope(t, body); code != http.StatusBadRequest || ecode != "budget_exceeded" || !strings.Contains(msg, "derived tuples exceed") {
		t.Fatalf("budgeted create: status %d, body %v", code, body)
	}
	// The failed evaluation must not leave a session behind.
	if code, _ := doJSON(t, "GET", ts.URL+api+"/graphs/tiny/stats", nil); code != http.StatusNotFound {
		t.Fatalf("failed session visible: %d", code)
	}
	// A per-request value cannot raise the server cap.
	s2 := New(graphgen.NewEngine(datagen.DBLPLike(7, 60, 45)), Options{MaxDerivedTuples: 5})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	code, body = doJSON(t, "POST", ts2.URL+api+"/graphs", map[string]any{
		"name": "raise", "program": reachProgram, "max_derived_tuples": 1 << 40,
	})
	if ecode, msg := errEnvelope(t, body); code != http.StatusBadRequest || ecode != "budget_exceeded" || !strings.Contains(msg, "derived tuples exceed") {
		t.Fatalf("cap raise attempt: status %d, body %v", code, body)
	}
}

// TestIndexConsistencyOverHTTP drives a live session's source table with
// concurrent HTTP mutations and reads, then verifies every auto-created
// index agrees row-for-row with a fresh scan of its mutated table, and
// that /metrics reports the indexes. Run under -race in CI, this also
// pins down that index maintenance stays on the dbMu-serialized mutation
// path (no concurrent map access from readers).
func TestIndexConsistencyOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, 60, 120)
	createSession(t, ts, "live", true)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent readers while mutations land
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := getStatus(ts.URL + api + "/graphs/live/stats"); err != nil {
				t.Error(err)
				return
			}
			if _, err := getStatus(ts.URL + api + "/graphs/live/analyze/degree"); err != nil {
				t.Error(err)
				return
			}
			if _, err := getStatus(ts.URL + api + "/metrics"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		row := []any{rng.Intn(60) + 1, 1_000_000 + rng.Intn(30) + 1}
		op := "insert"
		if rng.Intn(3) == 0 {
			op = "delete"
		}
		if _, err := postJSON(ts.URL+api+"/db/AuthorPub/"+op, map[string]any{"row": row}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	db := s.engine.DB()
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	totalIndexes := 0
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range tbl.IndexedColumns() {
			totalIndexes++
			ix := tbl.Index(col)
			ci, _ := tbl.ColIndex(col)
			// Every distinct value's lookup must equal the scan, and the
			// bucket totals must account for every row.
			seen := make(map[string]bool)
			counted := 0
			for _, row := range tbl.Rows {
				key := row[ci].String()
				if seen[key] {
					continue
				}
				seen[key] = true
				var want [][]graphgen.Value
				for _, r := range tbl.Rows {
					if r[ci].Equal(row[ci]) {
						want = append(want, r)
					}
				}
				got := ix.Lookup(row[ci])
				if len(got) != len(want) {
					t.Fatalf("%s.%s: Lookup(%v) has %d rows, scan finds %d", name, col, row[ci], len(got), len(want))
				}
				for k := range want {
					for c := range want[k] {
						if !got[k][c].Equal(want[k][c]) {
							t.Fatalf("%s.%s: Lookup(%v)[%d] = %v, scan order has %v", name, col, row[ci], k, got[k], want[k])
						}
					}
				}
				counted += len(got)
			}
			if counted != tbl.NumRows() || ix.Len() != tbl.NumRows() {
				t.Fatalf("%s.%s: buckets cover %d rows (Len %d), table has %d", name, col, counted, ix.Len(), tbl.NumRows())
			}
		}
	}
	if totalIndexes == 0 {
		t.Fatal("expected auto-created indexes on the live session's join columns")
	}
}

// TestMetricsReportsIndexes asserts /metrics carries the db_indexes gauge
// once an extraction has auto-created indexes.
func TestMetricsReportsIndexes(t *testing.T) {
	_, ts := newTestServer(t, 40, 60)
	code, m := doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if n, ok := m["db_indexes"].(float64); !ok || n != 0 {
		t.Fatalf("db_indexes before extraction = %v, want 0", m["db_indexes"])
	}
	createSession(t, ts, "co", false)
	_, m = doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	if n, ok := m["db_indexes"].(float64); !ok || n < 1 {
		t.Fatalf("db_indexes after extraction = %v, want >= 1", m["db_indexes"])
	}
}

// newSNBServer builds a server over an SNB social network so the
// contest-family analyses run against realistic degree distributions.
func newSNBServer(t testing.TB, sf float64) *httptest.Server {
	t.Helper()
	db := datagen.SNB(datagen.SNBConfig{Seed: 4, ScaleFactor: sf})
	s := New(graphgen.NewEngine(db), Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

func createSNBSession(t testing.TB, ts *httptest.Server, name string, live bool) {
	t.Helper()
	code, body := doJSON(t, "POST", ts.URL+api+"/graphs", map[string]any{
		"name": name, "query": datagen.QueryKnows, "live": live,
	})
	if code != http.StatusCreated {
		t.Fatalf("create %s: status %d, body %v", name, code, body)
	}
}

// TestSSSPAndClosenessStaticLiveAgree: the contest analyses must return
// identical results whether the session is a static extraction or a live
// incrementally-maintained graph over the same tables — the HTTP-level
// version of the operator-equivalence contract.
func TestSSSPAndClosenessStaticLiveAgree(t *testing.T) {
	ts := newSNBServer(t, 0.05)
	createSNBSession(t, ts, "stat", false)
	createSNBSession(t, ts, "live", true)

	for _, query := range []string{
		"sssp?sources=4",
		"sssp?srcs=1,2,3",
		"closeness?samples=16&k=5",
	} {
		_, statRes := doJSON(t, "GET", ts.URL+api+"/graphs/stat/analyze/"+query, nil)
		_, liveRes := doJSON(t, "GET", ts.URL+api+"/graphs/live/analyze/"+query, nil)
		sr, lr := statRes["result"], liveRes["result"]
		if sr == nil || lr == nil {
			t.Fatalf("%s: missing result payloads: static %v live %v", query, statRes, liveRes)
		}
		sb, _ := json.Marshal(sr)
		lb, _ := json.Marshal(lr)
		if string(sb) != string(lb) {
			t.Fatalf("%s: static and live sessions disagree\nstatic: %s\nlive:   %s", query, sb, lb)
		}
	}
}

// TestSSSPEndpoint covers the parameter surface: explicit sources echo
// back sorted and deduplicated, unknown IDs are dropped, and the two
// spellings canonicalize into distinct cache keys.
func TestSSSPEndpoint(t *testing.T) {
	ts := newSNBServer(t, 0.02)
	createSNBSession(t, ts, "g", false)

	code, res := doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/sssp?srcs=3,1,2,2", nil)
	if code != http.StatusOK {
		t.Fatalf("sssp: status %d: %v", code, res)
	}
	result := res["result"].(map[string]any)
	srcs := result["sources"].([]any)
	if len(srcs) != 3 || srcs[0].(float64) != 1 || srcs[2].(float64) != 3 {
		t.Fatalf("echoed sources not sorted+deduped: %v", srcs)
	}
	if res["params"] != "srcs=1,2,3" {
		t.Fatalf("canonical params = %v", res["params"])
	}
	if result["reached"].(float64) <= 0 {
		t.Fatalf("sssp reached nothing: %v", result)
	}
	// The permuted spelling hits the cache entry of the canonical one.
	code, res = doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/sssp?srcs=2,3,1", nil)
	if code != http.StatusOK || res["cached"] != true {
		t.Fatalf("permuted srcs missed the cache: %v", res)
	}

	// A source absent from the graph is dropped, not an error.
	code, res = doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/sssp?srcs=999999999", nil)
	if code != http.StatusOK {
		t.Fatalf("sssp with unknown src: status %d: %v", code, res)
	}
	result = res["result"].(map[string]any)
	if len(result["sources"].([]any)) != 0 || result["reached"].(float64) != 0 {
		t.Fatalf("unknown source not dropped: %v", result)
	}

	for _, bad := range []string{"srcs=a,b", "sources=0", "sources=abc"} {
		code, res = doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/sssp?"+bad, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("sssp?%s: status %d, want 400: %v", bad, code, res)
		}
	}
}

// TestClosenessEndpoint checks the ranking shape and parameter
// validation of the sampled-closeness analysis.
func TestClosenessEndpoint(t *testing.T) {
	ts := newSNBServer(t, 0.02)
	createSNBSession(t, ts, "g", false)

	code, res := doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/closeness?samples=12&k=3", nil)
	if code != http.StatusOK {
		t.Fatalf("closeness: status %d: %v", code, res)
	}
	result := res["result"].(map[string]any)
	if result["samples"].(float64) != 12 {
		t.Fatalf("samples = %v, want 12", result["samples"])
	}
	top := result["top"].([]any)
	if len(top) == 0 || len(top) > 3 {
		t.Fatalf("top has %d entries, want 1..3", len(top))
	}
	prev := 1e18
	for _, e := range top {
		entry := e.(map[string]any)
		c := entry["closeness"].(float64)
		if c > prev {
			t.Fatalf("top not sorted by closeness desc: %v", top)
		}
		prev = c
		if entry["name"] == nil || entry["name"] == "" {
			t.Fatalf("top entry missing the Name property: %v", entry)
		}
	}

	code, res = doJSON(t, "GET", ts.URL+api+"/graphs/g/analyze/closeness?samples=-1", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("closeness?samples=-1: status %d, want 400: %v", code, res)
	}
}

// TestSSSPCacheInvalidatedByMutation: inserting a Knows edge advances
// the live snapshot version, so a cached sssp result must not be served
// stale.
func TestSSSPCacheInvalidatedByMutation(t *testing.T) {
	ts := newSNBServer(t, 0.02)
	createSNBSession(t, ts, "live", true)

	code, res := doJSON(t, "GET", ts.URL+api+"/graphs/live/analyze/sssp?srcs=1", nil)
	if code != http.StatusOK {
		t.Fatalf("sssp: status %d: %v", code, res)
	}
	before := res["result"].(map[string]any)["reached"].(float64)

	// Attach a brand-new two-person chain to person 1. Nodes derive from
	// Person, so the new IDs need Person rows before Knows edges.
	for _, row := range [][]any{
		{777000001, "pat", "country-0"},
		{777000002, "kim", "country-0"},
	} {
		code, mres := doJSON(t, "POST", ts.URL+api+"/db/Person/insert", map[string]any{"row": row})
		if code != http.StatusOK {
			t.Fatalf("insert person %v: status %d: %v", row, code, mres)
		}
	}
	for _, row := range [][]int64{{1, 777000001}, {777000001, 1}, {777000001, 777000002}, {777000002, 777000001}} {
		code, mres := doJSON(t, "POST", ts.URL+api+"/db/Knows/insert", map[string]any{"row": row})
		if code != http.StatusOK {
			t.Fatalf("insert %v: status %d: %v", row, code, mres)
		}
	}
	code, res = doJSON(t, "GET", ts.URL+api+"/graphs/live/analyze/sssp?srcs=1", nil)
	if code != http.StatusOK {
		t.Fatalf("sssp after insert: status %d: %v", code, res)
	}
	if res["cached"] == true {
		t.Fatal("mutation did not invalidate the cached sssp result")
	}
	after := res["result"].(map[string]any)["reached"].(float64)
	if after != before+2 {
		t.Fatalf("reached %v -> %v after attaching 2 vertices, want +2", before, after)
	}
}
