package main

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"graphgen"
	"graphgen/internal/datagen"
	"graphgen/internal/server"
)

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCapture(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d, want 0\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-duration") {
		t.Fatalf("usage text missing flags:\n%s", stderr)
	}
}

// TestUsageErrorsExitTwo: every case runs after a valid -addr, so each
// one fails on the flag it names ("missing addr" overrides it with an
// empty one). The endpoint is never contacted: usage errors are caught
// before the health probe.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"missing addr", []string{"-addr", ""}},
		{"unknown flag", []string{"-nope"}},
		{"stray argument", []string{"extra"}},
		{"zero clients", []string{"-clients", "0"}},
		{"zero duration", []string{"-duration", "0s"}},
		// -sf and -out belonged to the retired in-process mode: both
		// are unknown flags now.
		{"negative sf", []string{"-sf", "-1"}},
		{"removed out", []string{"-out", "load.out"}},
		{"mix unknown class", []string{"-mix", "read=1,write=2"}},
		{"mix malformed entry", []string{"-mix", "read"}},
		{"mix negative weight", []string{"-mix", "read=-5"}},
		{"mix all zero", []string{"-mix", "read=0,mutate=0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:1"}, tc.args...)
			code, _, stderr := runCapture(t, args...)
			if code != 2 {
				t.Fatalf("args %v exited %d, want 2\nstderr: %s", args, code, stderr)
			}
		})
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("read=80, mutate=15,analyze=5")
	if err != nil {
		t.Fatal(err)
	}
	if m.weights[classRead] != 80 || m.weights[classMutate] != 15 || m.weights[classAnalyze] != 5 || m.total != 100 {
		t.Fatalf("parsed mix %+v", m)
	}
	if m, err := parseMix("read=100"); err != nil || m.weights[classMutate] != 0 {
		t.Fatalf("single-class mix: %+v, %v", m, err)
	}
}

func TestPct(t *testing.T) {
	lat := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := pct(lat, 50); got != 5 {
		t.Fatalf("p50 = %d, want 5", got)
	}
	if got := pct(lat, 99); got != 10 {
		t.Fatalf("p99 = %d, want 10", got)
	}
	if got := pct(nil, 99); got != 0 {
		t.Fatalf("p99 of empty = %d, want 0", got)
	}
	if got := pct([]int64{7}, 50); got != 7 {
		t.Fatalf("p50 of singleton = %d, want 7", got)
	}
}

// TestUnreachableEndpoint: a connection-refused endpoint fails fast with
// exit 1 before any load is generated.
func TestUnreachableEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port is now closed: connections are refused

	code, _, stderr := runCapture(t, "-addr", addr, "-duration", "5s")
	if code != 1 {
		t.Fatalf("unreachable endpoint exited %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "unreachable") {
		t.Fatalf("stderr does not explain the failure:\n%s", stderr)
	}
}

// fakeDaemon mimics the graphgend surface graphload touches, with a
// pluggable neighbors handler — the hook the error-path table uses.
func fakeDaemon(t *testing.T, neighbors http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"name":"load","live":true,"vertices":100}`))
	})
	mux.HandleFunc("DELETE /v1/graphs/load", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"deleted":"load"}`))
	})
	mux.HandleFunc("GET /v1/graphs/load/neighbors", neighbors)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestReadErrorPaths drives a read-only load against fakes that go bad
// in different ways; each must surface as counted op errors and exit 1,
// never as a hang or a silent success.
func TestReadErrorPaths(t *testing.T) {
	var calls atomic.Int64
	cases := []struct {
		name      string
		neighbors http.HandlerFunc
	}{
		{
			// The session disappears mid-run (another client deleted it):
			// the first few reads succeed, the rest 404.
			name: "session deleted mid-run",
			neighbors: func(w http.ResponseWriter, _ *http.Request) {
				if calls.Add(1) <= 5 {
					w.Write([]byte(`{"session":"load","vertex":1,"degree":0,"neighbors":[]}`))
					return
				}
				w.WriteHeader(http.StatusNotFound)
				w.Write([]byte(`{"error":"no session \"load\""}`))
			},
		},
		{
			name: "malformed JSON reply",
			neighbors: func(w http.ResponseWriter, _ *http.Request) {
				w.Write([]byte(`{"session": "load", truncated`))
			},
		},
		{
			name: "valid JSON of the wrong shape",
			neighbors: func(w http.ResponseWriter, _ *http.Request) {
				w.Write([]byte(`{"unexpected": true}`))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls.Store(0)
			ts := fakeDaemon(t, tc.neighbors)
			code, stdout, stderr := runCapture(t,
				"-addr", ts.URL, "-mix", "read=100", "-clients", "2", "-duration", "200ms")
			if code != 1 {
				t.Fatalf("exited %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
			if !strings.Contains(stderr, "op errors") {
				t.Fatalf("stderr does not report op errors:\n%s", stderr)
			}
			// The summary row still comes out (partial data beats none)
			// and its error count is honest.
			for _, line := range strings.Split(stdout, "\n") {
				if strings.HasPrefix(line, "graphload: read ") {
					if strings.Contains(line, "errors=0 ") {
						t.Fatalf("summary row claims zero errors:\n%s", line)
					}
					return
				}
			}
			t.Fatalf("no summary row for reads in:\n%s", stdout)
		})
	}
}

// TestSessionCreateConflictRetries: a leftover session from a previous
// run is dropped and re-created rather than failing the run.
func TestSessionCreateConflictRetries(t *testing.T) {
	var creates, deletes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, _ *http.Request) {
		if creates.Add(1) == 1 {
			w.WriteHeader(http.StatusConflict)
			w.Write([]byte(`{"error":"session \"load\" already exists"}`))
			return
		}
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"name":"load","vertices":10}`))
	})
	mux.HandleFunc("DELETE /v1/graphs/load", func(w http.ResponseWriter, _ *http.Request) {
		deletes.Add(1)
		w.Write([]byte(`{"deleted":"load"}`))
	})
	mux.HandleFunc("GET /v1/graphs/load/neighbors", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"degree":0,"neighbors":[]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, _, stderr := runCapture(t,
		"-addr", ts.URL, "-mix", "read=100", "-clients", "1", "-duration", "100ms")
	if code != 0 {
		t.Fatalf("exited %d, want 0\nstderr: %s", code, stderr)
	}
	if creates.Load() != 2 || deletes.Load() < 1 {
		t.Fatalf("creates=%d deletes=%d, want a delete-and-retry", creates.Load(), deletes.Load())
	}
}

// TestInProcessSmoke runs a short load against a real daemon handler
// over a small SNB network, served in this process: it must complete
// with zero errors and print one percentile row per class.
func TestInProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: CI runs the load smoke as a separate step")
	}
	srv := server.New(graphgen.NewEngine(datagen.SNB(datagen.SNBConfig{Seed: 1, ScaleFactor: 0.1})), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	code, stdout, stderr := runCapture(t,
		"-addr", ts.URL, "-clients", "4", "-duration", "300ms")
	if code != 0 {
		t.Fatalf("exited %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, class := range classNames {
		prefix := "graphload: " + class + " "
		found := false
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, prefix) {
				found = true
				if !strings.Contains(line, "errors=0 ") || !strings.Contains(line, "p99=") {
					t.Fatalf("%s row reports errors or no p99:\n%s", class, line)
				}
			}
		}
		if !found {
			t.Fatalf("no summary row for %s in:\n%s", class, stdout)
		}
	}
	if !strings.Contains(stdout, "zero op errors") {
		t.Fatalf("missing success line:\n%s", stdout)
	}
}

// TestQueryKnowsMatchesGenerator: the command spells out the SNB
// extraction query instead of importing the generator; it must not
// drift from the generator's own.
func TestQueryKnowsMatchesGenerator(t *testing.T) {
	if queryKnows != datagen.QueryKnows {
		t.Fatalf("queryKnows = %q, want datagen.QueryKnows %q", queryKnows, datagen.QueryKnows)
	}
}
