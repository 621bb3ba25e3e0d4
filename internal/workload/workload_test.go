package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphgen"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
)

// randomGraph builds a random directed graph over n vertices with sparse
// random IDs (so dense indexes and external IDs never coincide), optional
// isolated vertices included.
func randomGraph(t *testing.T, rng *rand.Rand, n int, p float64) *graphgen.Graph {
	t.Helper()
	g := graphgen.WrapCore(core.New(core.EXP))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i*7 + 100 + rng.Intn(3))
		for j := 0; j < i; j++ {
			if ids[j] == ids[i] {
				ids[i]++
				j = -1
			}
		}
		if err := g.AddVertex(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				if err := g.AddEdge(ids[i], ids[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// pickSources draws a random source set: some present IDs, sometimes an
// unknown ID, sometimes empty.
func pickSources(rng *rand.Rand, ids []int64) []int64 {
	k := rng.Intn(4)
	var out []int64
	for i := 0; i < k; i++ {
		out = append(out, ids[rng.Intn(len(ids))])
	}
	if rng.Intn(3) == 0 {
		out = append(out, -12345) // not in the graph
	}
	return out
}

func TestMultiSourceBFSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(60)
		p := []float64{0.02, 0.08, 0.3}[rng.Intn(3)]
		g := randomGraph(t, rng, n, p)
		snap := Snap(g)
		sources := pickSources(rng, snap.IDs())

		fast := snap.MultiSourceBFS(sources)
		naive := NaiveMultiSourceBFS(g, sources)

		if !reflect.DeepEqual(fast.Dist, naive.Dist) {
			t.Fatalf("trial %d: distances differ\nfast:  %v\nnaive: %v", trial, fast.Dist, naive.Dist)
		}
		if fast.Reached != naive.Reached || fast.Unreached != naive.Unreached ||
			fast.MaxDepth != naive.MaxDepth || fast.SumDist != naive.SumDist {
			t.Fatalf("trial %d: summaries differ: fast %+v naive %+v", trial, fast, naive)
		}
		if !reflect.DeepEqual(fast.Sources, naive.Sources) {
			t.Fatalf("trial %d: echoed sources differ: %v vs %v", trial, fast.Sources, naive.Sources)
		}
	}
}

// TestClosenessEquivalence scores every vertex of graphs with up to ~200
// vertices, so a run needs up to four 64-source batches, plus a repeated
// and an unknown ID; a long path and a two-component graph are included.
func TestClosenessEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type graphCase struct {
		name string
		g    *graphgen.Graph
	}
	var cases []graphCase
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(197)
		deg := []float64{0.5, 1.5, 4}[rng.Intn(3)] // mean out-degree
		cases = append(cases, graphCase{fmt.Sprintf("trial %d (n=%d)", trial, n), randomGraph(t, rng, n, deg/float64(n))})
	}
	chords := pathGraph(t, 200)
	for k := 0; k < 40; k++ {
		if err := chords.AddEdge(int64(10+3*rng.Intn(200)), int64(10+3*rng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	}
	cases = append(cases,
		graphCase{"path of 150", pathGraph(t, 150)},
		graphCase{"path of 200 with chords", chords},
		graphCase{"two components", twoComponents(t, rng, 70, 90)})
	for _, c := range cases {
		snap := Snap(c.g)
		ids := snap.IDs()
		sources := append(append([]int64{}, ids...), ids[rng.Intn(len(ids))], -1)
		// A batch of one to three sources keeps its early levels narrow.
		few := make([]int64, 1+rng.Intn(3))
		for i := range few {
			few[i] = ids[rng.Intn(len(ids))]
		}
		for _, sources := range [][]int64{sources, few} {
			checkCloseness(t, c.name, c.g, snap, sources)
		}
	}
}

// checkCloseness compares Closeness on one and four workers with
// NaiveCloseness.
func checkCloseness(t *testing.T, name string, g *graphgen.Graph, snap *Snapshot, sources []int64) {
	t.Helper()
	naive := NaiveCloseness(g, sources)
	for _, workers := range []int{1, 4} {
		fast := snap.Closeness(sources, workers)
		if len(fast) != len(naive) {
			t.Fatalf("%s: score counts differ: %d vs %d", name, len(fast), len(naive))
		}
		for i := range fast {
			f, nv := fast[i], naive[i]
			if f.ID != nv.ID || f.Reached != nv.Reached || f.SumDist != nv.SumDist {
				t.Fatalf("%s, workers %d: score %d differs: fast %+v naive %+v", name, workers, i, f, nv)
			}
			if math.Abs(f.Closeness-nv.Closeness) > 1e-12 {
				t.Fatalf("%s: closeness of %d differs: %v vs %v", name, f.ID, f.Closeness, nv.Closeness)
			}
		}
	}
}

// pathGraph builds the directed path 0 -> 1 -> ... -> n-1 on IDs 10+3i.
func pathGraph(t testing.TB, n int) *graphgen.Graph {
	t.Helper()
	g := graphgen.WrapCore(core.New(core.EXP))
	for i := 0; i < n; i++ {
		if err := g.AddVertex(int64(10 + 3*i)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := g.AddEdge(int64(10+3*(i-1)), int64(10+3*i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// twoComponents builds two random graphs of a and b vertices with no edge
// between them, their IDs interleaved.
func twoComponents(t *testing.T, rng *rand.Rand, a, b int) *graphgen.Graph {
	t.Helper()
	g := graphgen.WrapCore(core.New(core.EXP))
	for part, size := range []int{a, b} {
		for i := 0; i < size; i++ {
			if err := g.AddVertex(int64(2*i + part)); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 2*size; k++ {
			u, v := int64(2*rng.Intn(size)+part), int64(2*rng.Intn(size)+part)
			if u != v {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func TestInterestCommunitiesEquivalence(t *testing.T) {
	db := datagen.SNB(datagen.SNBConfig{Seed: 9, ScaleFactor: 0.05})
	engine := graphgen.NewEngine(db)
	for _, tag := range []string{datagen.TagName(0), datagen.TagName(7), datagen.TagName(49)} {
		fast, err := InterestCommunities(engine, tag)
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		naive, err := NaiveInterestCommunities(db, tag)
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		if fast.Members != naive.Members || fast.Communities != naive.Communities || fast.LargestSize != naive.LargestSize {
			t.Fatalf("tag %s: summaries differ: fast %+v naive %+v", tag, fast, naive)
		}
		if !reflect.DeepEqual(fast.Partition, naive.Partition) {
			t.Fatalf("tag %s: partitions differ\nfast:  %v\nnaive: %v", tag, fast.Partition, naive.Partition)
		}
		if fast.Members == 0 {
			t.Fatalf("tag %s: no members — the test exercised nothing", tag)
		}
	}
}

// TestInterestCommunityProgramQuoting: tags with metacharacters survive
// the round trip into the Datalog source.
func TestInterestCommunityProgramQuoting(t *testing.T) {
	db := graphgen.NewDB()
	mustCreate := func(name string, cols ...graphgen.Column) *graphgen.Table {
		tb, err := db.Create(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	person := mustCreate("Person",
		graphgen.Column{Name: "id", Type: graphgen.Int},
		graphgen.Column{Name: "name", Type: graphgen.String},
		graphgen.Column{Name: "country", Type: graphgen.String})
	knows := mustCreate("Knows",
		graphgen.Column{Name: "src", Type: graphgen.Int},
		graphgen.Column{Name: "dst", Type: graphgen.Int})
	hi := mustCreate("HasInterest",
		graphgen.Column{Name: "person", Type: graphgen.Int},
		graphgen.Column{Name: "tag", Type: graphgen.String})
	tag := `rock'n\roll`
	for p := int64(1); p <= 3; p++ {
		person.Insert(graphgen.IntVal(p), graphgen.StrVal("p"), graphgen.StrVal("c"))
		hi.Insert(graphgen.IntVal(p), graphgen.StrVal(tag))
	}
	knows.Insert(graphgen.IntVal(1), graphgen.IntVal(2))
	knows.Insert(graphgen.IntVal(2), graphgen.IntVal(1))
	res, err := InterestCommunities(graphgen.NewEngine(db), tag)
	if err != nil {
		t.Fatal(err)
	}
	if res.Members != 3 || res.Communities != 2 {
		t.Fatalf("got %d members in %d communities, want 3 in 2", res.Members, res.Communities)
	}
}

func TestSampleSourcesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(t, rng, 50, 0.05)
	snap := Snap(g)
	a := snap.SampleSources(8)
	b := snap.SampleSources(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SampleSources is not deterministic")
	}
	if len(a) != 8 {
		t.Fatalf("got %d sources, want 8", len(a))
	}
	seen := make(map[int64]bool)
	for _, id := range a {
		if seen[id] {
			t.Fatalf("duplicate sampled source %d", id)
		}
		seen[id] = true
	}
	if got := snap.SampleSources(0); len(got) != 50 {
		t.Fatalf("SampleSources(0) returned %d ids, want all 50", len(got))
	}
	if got := snap.SampleSources(100); len(got) != 50 {
		t.Fatalf("SampleSources(100) returned %d ids, want all 50", len(got))
	}
}

func TestTopCloseness(t *testing.T) {
	scores := []CentralityScore{
		{ID: 3, Closeness: 0.5}, {ID: 1, Closeness: 0.9}, {ID: 2, Closeness: 0.5},
	}
	top := TopCloseness(scores, 2)
	if len(top) != 2 || top[0].ID != 1 || top[1].ID != 2 {
		t.Fatalf("unexpected top-2 order: %+v", top)
	}
	if scores[0].ID != 3 {
		t.Fatal("TopCloseness mutated its input")
	}
}
