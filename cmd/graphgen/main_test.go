package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphgen"
	"graphgen/internal/server"
	"graphgen/internal/workload"
)

// TestRunDispatch is the table-driven flag-to-pipeline dispatch test: for
// each invocation it checks the process exit code and a substring of the
// stream the outcome is reported on (stdout for results, stderr for
// errors). Usage errors exit 2 and name the valid options; runtime
// failures exit 1.
func TestRunDispatch(t *testing.T) {
	tmp := t.TempDir()
	edgeFile := filepath.Join(tmp, "out.el")
	queryFile := filepath.Join(tmp, "q.dl")
	if err := os.WriteFile(queryFile, []byte(
		"Nodes(ID, Name) :- Student(ID, Name).\nEdges(A, B) :- TookCourse(A, C), TookCourse(B, C).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badQueryFile := filepath.Join(tmp, "bad.dl")
	if err := os.WriteFile(badQueryFile, []byte("Nodes("), 0o644); err != nil {
		t.Fatal(err)
	}
	// Recursive reachability over the course-link graph (courses linked
	// when a student took both), then instructor pairs connected through
	// reachable courses — 2 strata: the Edges body's comparison is a
	// filter in its extraction plan, not a derived predicate.
	programFile := filepath.Join(tmp, "reach.dl")
	if err := os.WriteFile(programFile, []byte(
		"Link(C, D) :- TookCourse(S, C), TookCourse(S, D), C != D.\n"+
			"CReach(C, D) :- Link(C, D).\n"+
			"CReach(C, E) :- CReach(C, D), Link(D, E).\n"+
			"Nodes(ID, Name) :- Instructor(ID, Name).\n"+
			"Edges(A, B) :- TaughtCourse(A, C), CReach(C, D), TaughtCourse(B, D), A != B.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	unstratifiedFile := filepath.Join(tmp, "cycle.dl")
	if err := os.WriteFile(unstratifiedFile, []byte(
		"P(A) :- Student(A, _), !P(A).\nNodes(A) :- Student(A, _).\nEdges(A, B) :- P(A), P(B).\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string // substring; "" skips the check
		wantStderr string
	}{
		{
			name:       "validate case 1",
			args:       []string{"-validate", "Nodes(A):-R(A). Edges(A,B):-R(A,X),R(B,X)."},
			wantCode:   0,
			wantStdout: "Case 1 (condensable chain)",
		},
		{
			name:       "validate parse error exits 1",
			args:       []string{"-validate", "Nodes("},
			wantCode:   1,
			wantStderr: "graphgen:",
		},
		{
			name:       "extraction on builtin dataset",
			args:       []string{"-dataset", "univ"},
			wantCode:   0,
			wantStdout: "extracted",
		},
		{
			name:       "analysis dispatch",
			args:       []string{"-dataset", "univ", "-analyze", "components"},
			wantCode:   0,
			wantStdout: `{"components":`,
		},
		{
			name:       "sssp analysis on the social network",
			args:       []string{"-dataset", "snb", "-analyze", "sssp"},
			wantCode:   0,
			wantStdout: `"sources":[`,
		},
		{
			name:       "closeness analysis on the social network",
			args:       []string{"-dataset", "snb", "-analyze", "closeness"},
			wantCode:   0,
			wantStdout: `{"samples":64,"top":[{"id":`,
		},
		{
			name:       "representation conversion dispatch",
			args:       []string{"-dataset", "univ", "-rep", "exp"},
			wantCode:   0,
			wantStdout: "converted to EXP",
		},
		{
			name:       "edge list output",
			args:       []string{"-dataset", "univ", "-out", edgeFile},
			wantCode:   0,
			wantStdout: "wrote edge list",
		},
		{
			name:       "query file override",
			args:       []string{"-dataset", "univ", "-query-file", queryFile, "-analyze", "degree"},
			wantCode:   0,
			wantStdout: `"max_degree":`,
		},
		{
			name:       "suggest mode",
			args:       []string{"-dataset", "univ", "-suggest"},
			wantCode:   0,
			wantStdout: "co-membership",
		},
		{
			name:       "recursive program extraction",
			args:       []string{"-dataset", "univ", "-program", programFile, "-analyze", "components"},
			wantCode:   0,
			wantStdout: "program: 2 strata",
		},
		{
			name:       "program with analysis output",
			args:       []string{"-dataset", "univ", "-program", programFile},
			wantCode:   0,
			wantStdout: "derived tuples",
		},
		{
			name:       "program and query-file together exit 2",
			args:       []string{"-dataset", "univ", "-program", programFile, "-query-file", queryFile},
			wantCode:   2,
			wantStderr: "mutually exclusive",
		},
		{
			name:       "missing program file exits 1",
			args:       []string{"-dataset", "univ", "-program", filepath.Join(tmp, "nope.dl")},
			wantCode:   1,
			wantStderr: "no such file",
		},
		{
			name:       "unstratifiable program exits 1",
			args:       []string{"-dataset", "univ", "-program", unstratifiedFile},
			wantCode:   1,
			wantStderr: "negation cycle",
		},
		{
			name:       "unknown dataset exits 2 and lists options",
			args:       []string{"-dataset", "oracle"},
			wantCode:   2,
			wantStderr: "valid: dblp, imdb, tpch, univ",
		},
		{
			name:       "unknown rep exits 2 and lists options",
			args:       []string{"-rep", "csr"},
			wantCode:   2,
			wantStderr: "valid: cdup, exp, dedup1, dedup2, bitmap",
		},
		{
			name:       "unknown analyze exits 2 and lists options",
			args:       []string{"-analyze", "eigenvector"},
			wantCode:   2,
			wantStderr: "valid: bfs, closeness, components, degree, pagerank, sssp, triangles",
		},
		{
			name:       "unknown flag exits 2",
			args:       []string{"-no-such-flag"},
			wantCode:   2,
			wantStderr: "flag provided but not defined",
		},
		{
			name:       "bad csv pair exits 2",
			args:       []string{"-csv", "nopath"},
			wantCode:   2,
			wantStderr: "name=path pairs",
		},
		{
			name:       "missing csv file exits 1",
			args:       []string{"-csv", "t=" + filepath.Join(tmp, "missing.csv")},
			wantCode:   1,
			wantStderr: "no such file",
		},
		{
			name:       "csv db without query exits 2",
			args:       []string{"-csv", "t=" + mustCSV(t, tmp), "-analyze", "degree"},
			wantCode:   2,
			wantStderr: "no query",
		},
		{
			name:       "malformed query file exits 1",
			args:       []string{"-dataset", "univ", "-query-file", badQueryFile},
			wantCode:   1,
			wantStderr: "graphgen:",
		},
		{
			name:       "unwritable out path exits 1",
			args:       []string{"-dataset", "univ", "-out", filepath.Join(tmp, "no-dir", "x.el")},
			wantCode:   1,
			wantStderr: "no such file",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}

// TestAnalyzeMatchesServer: for every analysis of the catalogue, the last
// line graphgen -csv … -analyze NAME prints is exactly the result JSON
// that GET /v1/graphs/{s}/analyze/NAME returns for a static session over
// the same tables. The fixture has degree and closeness ties, two
// components besides an isolated vertex, and a triangle.
func TestAnalyzeMatchesServer(t *testing.T) {
	tmp := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := "Student=" + write("student.csv", "id,name\n1,ann\n2,bob\n3,cat\n4,dan\n5,eve\n6,fay\n7,gus\n8,hal\n") +
		",TookCourse=" + write("took.csv", "sid,cid\n1,100\n2,100\n3,100\n3,101\n4,101\n5,102\n6,102\n7,103\n6,103\n")
	query := "Nodes(ID, Name) :- Student(ID, Name).\nEdges(A, B) :- TookCourse(A, C), TookCourse(B, C), A != B.\n"
	queryFile := write("q.dl", query)

	db := graphgen.NewDB()
	if err := db.LoadCSVFiles(spec); err != nil {
		t.Fatal(err)
	}
	srv := server.New(graphgen.NewEngine(db), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	body, _ := json.Marshal(map[string]any{"name": "s", "query": query})
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}

	for _, name := range workload.Analyses {
		resp, err := http.Get(ts.URL + "/v1/graphs/s/analyze/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", name, resp.StatusCode, err)
		}
		var served bytes.Buffer
		if err := json.Compact(&served, env.Result); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if code := run([]string{"-csv", spec, "-query-file", queryFile, "-analyze", name}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		if got := lines[len(lines)-1]; got != served.String() {
			t.Errorf("%s: CLI printed\n%s\nserver returned\n%s", name, got, served.String())
		}
	}
}

// mustCSV writes a tiny CSV table and returns its path.
func mustCSV(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("id,grp\n1,10\n2,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseRep(t *testing.T) {
	for _, s := range []string{"cdup", "C-DUP", "exp", "dedup1", "DEDUP-2", "bitmap", "bmp"} {
		if _, err := parseRep(s); err != nil {
			t.Errorf("parseRep(%q) = %v, want nil", s, err)
		}
	}
	if _, err := parseRep("adjacency"); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("parseRep(adjacency) = %v, want usage error listing options", err)
	}
}
