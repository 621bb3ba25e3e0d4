package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
)

// analyzeReply is the part of an /analyze envelope the view tests check.
type analyzeReply struct {
	Version uint64          `json:"version"`
	Params  string          `json:"params"`
	Result  json.RawMessage `json:"result"`
}

func getAnalyze(t *testing.T, ts *httptest.Server, session, analysis string) analyzeReply {
	t.Helper()
	resp, err := http.Get(ts.URL + api + "/graphs/" + session + "/analyze/" + analysis)
	if err != nil {
		t.Error(err)
		return analyzeReply{}
	}
	defer resp.Body.Close()
	var r analyzeReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("%s %s: status %d, err %v", session, analysis, resp.StatusCode, err)
	}
	return r
}

// viewCounts reads /metrics' analytics view counts by build.
func viewCounts(t *testing.T, ts *httptest.Server) (full, derived, reused int64) {
	t.Helper()
	_, m := doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	views, ok := m["analytics_views"].(map[string]any)
	if !ok {
		t.Fatalf("no analytics_views in /metrics: %v", m)
	}
	get := func(build string) int64 {
		n, ok := views[build].(float64)
		if !ok {
			t.Fatalf("no %q count in analytics_views: %v", build, views)
		}
		return int64(n)
	}
	return get("full"), get("derived"), get("reused")
}

// raceAnalyses cycles every analysis; the bfs sources vary so requests
// also miss within one version.
var raceAnalyses = []string{
	"degree?k=5", "pagerank?iters=5", "components", "bfs", "bfs?src=3", "bfs?src=11",
	"triangles", "sssp?sources=3", "closeness?samples=4&k=3",
}

// TestAnalyzeRacesMutations runs analyze requests against a live session
// while routed mutations keep moving its version, and reads one analysis
// itself before the mutations and one halfway through them. Every reply
// for the same (version, analysis, params) must be byte-identical, a live
// session builds at most one view per version, and once mutations stop the
// served results equal the analyses computed on a detached clone at that
// version.
// The mutations name real authors, so views after the first are derived
// from their predecessor; the served view must equal a fresh Freeze.
func TestAnalyzeRacesMutations(t *testing.T) {
	s, ts := newTestServer(t, 150, 110)
	createSession(t, ts, "lv", true)

	var (
		mu    sync.Mutex
		seen  = map[string]string{}
		maxV  uint64
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		check = func(r analyzeReply, analysis string) {
			mu.Lock()
			defer mu.Unlock()
			maxV = max(maxV, r.Version)
			key := fmt.Sprintf("%d %s", r.Version, analysis)
			if prev, ok := seen[key]; ok && prev != string(r.Result) {
				t.Errorf("%s: two replies differ\n%s\n%s", key, prev, r.Result)
			}
			seen[key] = string(r.Result)
		}
	)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := raceAnalyses[i%len(raceAnalyses)]
				check(getAnalyze(t, ts, "lv", a), a)
			}
		}(c)
	}
	// The test goroutine analyzes once before the mutations and once
	// between two batches of them: each mutation moves the version at the
	// next read, so two versions are observed even when the racing clients
	// are starved for the whole loop.
	probe := func() { check(getAnalyze(t, ts, "lv", raceAnalyses[0]), raceAnalyses[0]) }
	probe()
	for i := 0; i < 40; i++ {
		if i == 20 {
			probe()
		}
		row := map[string]any{"row": []any{1 + i%150, 1_000_000 + i%25}}
		op := "insert"
		if i%3 == 2 {
			op = "delete"
		}
		if code, err := postJSON(ts.URL+api+"/db/AuthorPub/"+op, row); err != nil || code != http.StatusOK {
			t.Fatalf("%s: code %d err %v", op, code, err)
		}
	}
	close(stop)
	wg.Wait()

	versions := map[uint64]bool{}
	for key := range seen {
		var v uint64
		fmt.Sscan(key, &v)
		versions[v] = true
	}
	if len(versions) < 2 {
		t.Fatalf("analyses observed %d version(s): no version boundary was crossed", len(versions))
	}
	// One more mutation of a real author's row, after the racing
	// analyses, so at least one view is derived whatever the schedule.
	if code, err := postJSON(ts.URL+api+"/db/AuthorPub/insert", map[string]any{"row": []any{7, 1_000_100}}); err != nil || code != http.StatusOK {
		t.Fatalf("insert: code %d err %v", code, err)
	}
	getAnalyze(t, ts, "lv", "degree?k=5")
	sess, _ := s.lookup("lv")
	g, v := sess.live.SnapshotWithVersion()
	maxV = max(maxV, v)
	full, derived, reused := viewCounts(t, ts)
	if n := full + derived + reused; n < 1 || uint64(n) > maxV {
		t.Fatalf("%d views (%d full, %d derived, %d reused) over %d versions: more than one per version", n, full, derived, reused, maxV)
	}
	if full != 1 || derived < 1 {
		t.Fatalf("views: %d full, %d derived; want one full freeze and derivations after it", full, derived)
	}
	_, stats := doJSON(t, "GET", ts.URL+api+"/graphs/lv/stats", nil)
	maint, _ := stats["maintenance"].(map[string]any)
	for build, want := range map[string]int64{"views_full": full, "views_derived": derived, "views_reused": reused} {
		if got, ok := maint[build].(float64); !ok || int64(got) != want {
			t.Errorf("/stats maintenance %s = %v, /metrics counts %d", build, maint[build], want)
		}
	}
	if n, ok := maint["skipped_rows"].(float64); !ok || n != 0 {
		t.Errorf("/stats maintenance skipped_rows = %v, want 0: every row names a vertex", maint["skipped_rows"])
	}
	served, servedV, _ := sess.live.FreezeWithVersion()
	if servedV != v {
		t.Fatalf("view at version %d, snapshot at %d", servedV, v)
	}
	if d := served.Diff(g.Core().Freeze()); d != "" {
		t.Fatalf("served view differs from a fresh Freeze in %s", d)
	}
	for _, a := range raceAnalyses {
		r := getAnalyze(t, ts, "lv", a)
		if r.Version != v {
			t.Fatalf("%s: served version %d after quiescing at %d", a, r.Version, v)
		}
		u, err := url.Parse(a)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parseParams(u.Path, u.Query())
		if err != nil {
			t.Fatal(err)
		}
		want, err := computeAnalysis(g.Core().Freeze(), u.Path, p)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		var got bytes.Buffer
		if err := json.Compact(&got, r.Result); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(wantJSON) {
			t.Errorf("%s at version %d: served %s\nclone gives %s", a, v, got.String(), wantJSON)
		}
	}
}

// TestStaticSessionFreezesOnce: concurrent misses of every analysis on a
// static session share one frozen view. The clients start together, so
// their first misses overlap the one freeze.
func TestStaticSessionFreezesOnce(t *testing.T) {
	_, ts := newTestServer(t, 3000, 2500)
	createSession(t, ts, "st", false)
	before, _, _ := viewCounts(t, ts)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < len(raceAnalyses); i++ {
				a := raceAnalyses[(i+c)%len(raceAnalyses)]
				if r := getAnalyze(t, ts, "st", a); r.Version != 0 {
					t.Errorf("static session served version %d", r.Version)
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	full, derived, reused := viewCounts(t, ts)
	if n := full - before; n != 1 || derived != 0 || reused != 0 {
		t.Fatalf("static session: %d full, %d derived, %d reused views, want exactly 1 full", n, derived, reused)
	}
}
