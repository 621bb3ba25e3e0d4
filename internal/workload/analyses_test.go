package workload

import (
	"cmp"
	"encoding/json"
	"errors"
	"math/rand"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// TestTopKMatchesSort: the bounded selection returns exactly what a full
// sort truncated to k returns, ties and k >= n included.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	type entry struct{ id, score int }
	byScore := func(a, b entry) int { return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.id, b.id)) }
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		s := make([]entry, n)
		for i := range s {
			s[i] = entry{id: rng.Intn(1000), score: rng.Intn(8)}
		}
		k := 1 + rng.Intn(n+3)
		want := slices.Clone(s)
		slices.SortFunc(want, byScore)
		want = want[:min(k, n)]
		if got := topK(slices.Clone(s), k, byScore); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, k %d): topK %v, sort %v", trial, n, k, got, want)
		}
	}
}

// FuzzAnalysisParams feeds ParseParams an analysis name and a raw query
// string, spelled as in a request path ("name?query"), parsed the way
// net/http's URL.Query parses it. ParseParams must not panic; it accepts
// only a name of Analyses; and an accepted input's Canonical form
// re-parses to the same Canonical form, with parameters under which
// Analyze returns the same JSON on a small graph.
func FuzzAnalysisParams(f *testing.F) {
	// The spellings the served-analysis golden file pins
	// (internal/server's goldenAnalyses), and the canonical bfs default.
	for _, s := range []string{
		"degree", "degree?k=3",
		"pagerank", "pagerank?iters=5&damping=0.5&k=20",
		"components",
		"bfs", "bfs?src=7",
		"triangles",
		"sssp", "sssp?srcs=3,1,-5",
		"closeness", "closeness?samples=8&k=5",
		"bfs?src=auto",
	} {
		f.Add(s)
	}
	g := pathGraph(f, 6)
	for i, name := range []string{"ann", "bob", "cat"} {
		if err := g.SetPropertyOf(int64(10+3*i), "Name", name); err != nil {
			f.Fatal(err)
		}
	}
	view := g.Core().Freeze()
	analyze := func(t *testing.T, name string, p Params) string {
		res, err := Analyze(view, name, p)
		if err != nil {
			t.Fatalf("Analyze(%s, %q): %v", name, p.Canonical, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	f.Fuzz(func(t *testing.T, spelling string) {
		name, raw, _ := strings.Cut(spelling, "?")
		q, _ := url.ParseQuery(raw)
		p, err := ParseParams(name, q)
		known := slices.Contains(Analyses, name)
		if errors.Is(err, ErrUnknownAnalysis) && known {
			t.Fatalf("%q: ErrUnknownAnalysis for a catalogued name", spelling)
		}
		if err != nil {
			return
		}
		if !known {
			t.Fatalf("%q: accepted an analysis outside the catalogue", spelling)
		}
		cq, err := url.ParseQuery(p.Canonical)
		if err != nil {
			t.Fatalf("%q: canonical %q is no query string: %v", spelling, p.Canonical, err)
		}
		p2, err := ParseParams(name, cq)
		if err != nil {
			t.Fatalf("%q: canonical %q does not re-parse: %v", spelling, p.Canonical, err)
		}
		if p2.Canonical != p.Canonical {
			t.Fatalf("%q: canonical %q re-parses to %q", spelling, p.Canonical, p2.Canonical)
		}
		if a, b := analyze(t, name, p), analyze(t, name, p2); a != b {
			t.Fatalf("%q: canonical %q gives %s, the input %s", spelling, p.Canonical, b, a)
		}
	})
}
