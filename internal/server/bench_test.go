package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"graphgen"
	"graphgen/internal/datagen"
)

// benchServer builds a served live session over the DBLP-like dataset and
// warms the analytics cache.
func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	db := datagen.DBLPLike(7, 2000, 1600)
	engine := graphgen.NewEngine(db)
	s := New(engine, Options{})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() { ts.Close(); s.Close() })
	createSession(b, ts, "co", true)
	for _, warm := range []string{"/v1/graphs/co/analyze/components", "/v1/graphs/co/analyze/degree?k=5", "/v1/graphs/co/analyze/pagerank"} {
		if code, err := getStatus(ts.URL + warm); err != nil || code != http.StatusOK {
			b.Fatalf("warming %s: code %d err %v", warm, code, err)
		}
	}
	return ts
}

// BenchmarkServerThroughput measures mixed read traffic against a live
// session with a warm cache — the daemon's hot serving path (cache
// lookups, neighbor reads, stats) including HTTP and JSON overhead.
func BenchmarkServerThroughput(b *testing.B) {
	ts := benchServer(b)
	var i atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var url string
			switch n := i.Add(1); n % 4 {
			case 0:
				url = ts.URL + "/v1/graphs/co/analyze/components"
			case 1:
				url = ts.URL + "/v1/graphs/co/analyze/degree?k=5"
			case 2:
				url = fmt.Sprintf("%s/v1/graphs/co/neighbors?v=%d", ts.URL, n%2000+1)
			default:
				url = ts.URL + "/v1/graphs/co/stats"
			}
			code, err := getStatus(url)
			if err != nil || code != http.StatusOK {
				b.Fatalf("%s: code %d err %v", url, code, err)
			}
		}
	})
}

// BenchmarkServerCachedAnalyze isolates the memoized re-analysis path —
// the request pattern the LRU exists for. Compare against
// BenchmarkServerColdAnalyze (which defeats the cache by varying params)
// for the cache's effect; the >= 10x acceptance assertion lives in
// TestCachedAnalyzeSpeedup.
func BenchmarkServerCachedAnalyze(b *testing.B) {
	ts := benchServer(b)
	url := ts.URL + "/v1/graphs/co/analyze/pagerank"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, err := getStatus(url)
		if err != nil || code != http.StatusOK {
			b.Fatalf("code %d err %v", code, err)
		}
	}
}

// BenchmarkServerColdAnalyze forces a recompute on every request by
// varying the BFS source, measuring the uncached analytics path.
func BenchmarkServerColdAnalyze(b *testing.B) {
	ts := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/v1/graphs/co/analyze/bfs?src=%d", ts.URL, i%2000+1)
		code, err := getStatus(url)
		if err != nil || code != http.StatusOK {
			b.Fatalf("code %d err %v", code, err)
		}
	}
}

// BenchmarkServerMutation measures a routed single-tuple insert+delete
// round trip against a live session (delta computation included, flush
// deferred to the next read).
func BenchmarkServerMutation(b *testing.B) {
	ts := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins := map[string]any{"row": []any{i%2000 + 1, 950000 + i%500}}
		if code, err := postJSON(ts.URL+"/v1/db/AuthorPub/insert", ins); err != nil || code != http.StatusOK {
			b.Fatalf("insert: code %d err %v", code, err)
		}
		if code, err := postJSON(ts.URL+"/v1/db/AuthorPub/delete", ins); err != nil || code != http.StatusOK {
			b.Fatalf("delete: code %d err %v", code, err)
		}
	}
}
