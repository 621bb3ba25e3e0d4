package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"graphgen"
	"graphgen/internal/datagen"
)

// analyzeGoldenPath holds the served analysis results of analyzeFixture as
// recorded while every cache miss still ran on a Clone of the graph
// (graphapi walks for sssp/closeness, slot-order iteration for the rest).
// The frozen-view path must reproduce them byte for byte, PageRank's last
// bits aside (see TestServedAnalysesMatchGolden).
const analyzeGoldenPath = "testdata/analyze_golden.txt"

// goldenAnalyses is every analysis with its default and a non-default
// parameter spelling.
var goldenAnalyses = []string{
	"degree", "degree?k=3",
	"pagerank", "pagerank?iters=5&damping=0.5&k=20",
	"components",
	"bfs", "bfs?src=7",
	"triangles",
	"sssp", "sssp?srcs=3,1,-5",
	"closeness", "closeness?samples=8&k=5",
}

// analyzeFixture drives a static and a live co-author session (condensed,
// with virtual nodes) and a live SNB knows session through mutations —
// edge inserts and deletes, and a node insert whose ID sorts before every
// other vertex but lands in the last slot, so bfs?src=auto's choice of
// the first-iterated vertex differs from the smallest ID — and returns one
// "session phase analysis<TAB>result" line per served analysis.
func analyzeFixture(t *testing.T) []string {
	t.Helper()
	var lines []string
	record := func(ts *httptest.Server, session, phase string) {
		for _, a := range goldenAnalyses {
			resp, err := http.Get(ts.URL + api + "/graphs/" + session + "/analyze/" + a)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Result json.RawMessage `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d, err %v", session, a, resp.StatusCode, err)
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, env.Result); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, session+" "+phase+" "+a+"\t"+buf.String())
		}
	}
	mutate := func(ts *httptest.Server, op, table string, row ...any) {
		if code, err := postJSON(ts.URL+api+"/db/"+table+"/"+op, map[string]any{"row": row}); err != nil || code != http.StatusOK {
			t.Fatalf("%s %s %v: code %d err %v", op, table, row, code, err)
		}
	}

	_, co := newTestServer(t, 120, 90)
	createSession(t, co, "static", false)
	createSession(t, co, "live", true)
	record(co, "static", "initial")
	record(co, "live", "initial")
	mutate(co, "insert", "AuthorPub", 5, 1_000_010)
	mutate(co, "insert", "AuthorPub", 9, 1_000_010)
	mutate(co, "insert", "Author", 0, "author-0")
	mutate(co, "insert", "AuthorPub", 0, 1_000_003)
	mutate(co, "insert", "AuthorPub", 0, 1_000_004)
	record(co, "live", "inserted")
	mutate(co, "delete", "AuthorPub", 5, 1_000_010)
	record(co, "live", "deleted")
	createSession(t, co, "static2", false)
	record(co, "static2", "initial")

	db := datagen.SNB(datagen.SNBConfig{Seed: 3, ScaleFactor: 0.02})
	s := New(graphgen.NewEngine(db), Options{})
	snb := httptest.NewServer(s.Handler())
	t.Cleanup(func() { snb.Close(); s.Close() })
	if code, body := doJSON(t, "POST", snb.URL+api+"/graphs", map[string]any{
		"name": "knows", "query": datagen.QueryKnows, "live": true,
	}); code != http.StatusCreated {
		t.Fatalf("create knows: status %d, body %v", code, body)
	}
	record(snb, "knows", "initial")
	mutate(snb, "insert", "Knows", 1, 30)
	mutate(snb, "insert", "Knows", 30, 1)
	mutate(snb, "delete", "Knows", 1, 2)
	mutate(snb, "delete", "Knows", 2, 1)
	record(snb, "knows", "mutated")
	return lines
}

// TestServedAnalysesMatchGolden: every served analysis on the fixture
// returns exactly the bytes the clone-based path returned, except that a
// PageRank score may differ in its last bits: the view sums in-neighbor
// contributions in ascending-ID order, the clone in traversal order of the
// condensed representation. Ranks are compared within 1e-12; which
// vertices rank, in what order, with what names, is still exact.
func TestServedAnalysesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(analyzeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := analyzeFixture(t)
	if len(got) != len(want) {
		t.Fatalf("fixture served %d analyses, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		gl, gr, _ := strings.Cut(got[i], "\t")
		wl, wr, _ := strings.Cut(want[i], "\t")
		if gl != wl || !strings.Contains(gl, " pagerank") || !ranksClose(t, gr, wr) {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
}

// ranksClose reports whether two pagerank results are equal but for rank
// values within 1e-12 of each other.
func ranksClose(t *testing.T, a, b string) bool {
	t.Helper()
	type result struct {
		Damping float64 `json:"damping"`
		Iters   int     `json:"iters"`
		Top     []struct {
			ID   int64   `json:"id"`
			Rank float64 `json:"rank"`
			Name string  `json:"name"`
		} `json:"top"`
	}
	var ra, rb result
	if json.Unmarshal([]byte(a), &ra) != nil || json.Unmarshal([]byte(b), &rb) != nil ||
		ra.Damping != rb.Damping || ra.Iters != rb.Iters || len(ra.Top) != len(rb.Top) {
		return false
	}
	for i := range ra.Top {
		x, y := ra.Top[i], rb.Top[i]
		if x.ID != y.ID || x.Name != y.Name || math.Abs(x.Rank-y.Rank) > 1e-12 {
			return false
		}
	}
	return true
}

// TestServedPageRankRepresentationIndependent: the view is a function of
// the logical graph alone, so a static and a live session over the same
// tables — different condensed layouts — serve byte-identical PageRank.
func TestServedPageRankRepresentationIndependent(t *testing.T) {
	got := analyzeFixture(t)
	results := map[string]string{}
	for _, line := range got {
		label, result, _ := strings.Cut(line, "\t")
		results[label] = result
	}
	for _, a := range []string{"pagerank", "pagerank?iters=5&damping=0.5&k=20"} {
		if s, l := results["static initial "+a], results["live initial "+a]; s != l {
			t.Errorf("%s: static and live sessions differ\nstatic: %s\n  live: %s", a, s, l)
		}
		if s, l := results["static2 initial "+a], results["live deleted "+a]; s != l {
			t.Errorf("%s: static2 and mutated live sessions differ\nstatic2: %s\n   live: %s", a, s, l)
		}
	}
}
