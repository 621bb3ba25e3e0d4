package workload

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"graphgen"
	"graphgen/internal/core"
	"graphgen/internal/graphapi"
	"graphgen/internal/relstore"
)

// Slow reference implementations of the contest queries, used only by the
// randomized equivalence tests. They deliberately share no code with the
// CSR fast path: distances come from Bellman-Ford-style relaxation over a
// materialized edge list (not BFS), communities from union-find over raw
// table scans (not graph extraction), so an agreement between the two
// pipelines is meaningful evidence of correctness.

// naiveDistances computes hop distances from the seed set by repeated
// relaxation over the full edge list until a fixpoint — O(V*E), fine for
// the small randomized test graphs.
func naiveDistances(g graphapi.Graph, sources []int64) map[int64]int64 {
	present := make(map[int64]bool)
	var verts []int64 // iterator order, so the edge list is reproducible
	it := g.Vertices()
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		present[v] = true
		verts = append(verts, v)
	}
	type edge struct{ u, v int64 }
	var edges []edge
	for _, u := range verts {
		nit := g.Neighbors(u)
		for {
			v, ok := nit.Next()
			if !ok {
				break
			}
			if present[v] {
				edges = append(edges, edge{u, v})
			}
		}
	}
	const inf = int64(1) << 40
	dist := make(map[int64]int64, len(present))
	for v := range present {
		dist[v] = inf
	}
	for _, s := range sources {
		if present[s] {
			dist[s] = 0
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if d := dist[e.u] + 1; d < dist[e.v] {
				dist[e.v] = d
				changed = true
			}
		}
	}
	for v, d := range dist {
		if d >= inf {
			delete(dist, v)
		}
	}
	return dist
}

// NaiveMultiSourceBFS is the reference multi-source shortest-path query.
// Its Dist is aligned with the graph's vertex IDs in ascending order, the
// fast path's contract.
func NaiveMultiSourceBFS(g graphapi.Graph, sources []int64) SSSPResult {
	ids := graphapi.ToList(g.Vertices())
	slices.Sort(ids)
	var res SSSPResult
	for _, s := range sources {
		if _, ok := slices.BinarySearch(ids, s); ok {
			res.Sources = append(res.Sources, s)
		}
	}
	dist := naiveDistances(g, sources)
	res.Dist = make([]int32, len(ids))
	for i, v := range ids {
		d, ok := dist[v]
		if !ok {
			res.Dist[i] = -1
			continue
		}
		res.Dist[i] = int32(d)
		res.Reached++
		res.SumDist += d
		if int(d) > res.MaxDepth {
			res.MaxDepth = int(d)
		}
	}
	res.Unreached = len(ids) - res.Reached
	return res
}

// NaiveCloseness is the reference closeness computation: one relaxation
// fixpoint per source vertex.
func NaiveCloseness(g graphapi.Graph, sources []int64) []CentralityScore {
	n := graphapi.Count(g.Vertices())
	var out []CentralityScore
	for _, s := range sources {
		dist := naiveDistances(g, []int64{s})
		if _, ok := dist[s]; !ok {
			continue // source not in the graph
		}
		var sum int64
		for _, d := range dist {
			sum += d
		}
		out = append(out, CentralityScore{
			ID:        s,
			Closeness: closeness(len(dist), sum, n),
			Reached:   len(dist),
			SumDist:   sum,
		})
	}
	return out
}

// NaiveInterestCommunities is the reference community query: raw table
// scans over the SNB schema and union-find, no graph extraction involved.
func NaiveInterestCommunities(db *relstore.DB, tag string) (*CommunityResult, error) {
	hasInterest, err := db.Table("HasInterest")
	if err != nil {
		return nil, err
	}
	knows, err := db.Table("Knows")
	if err != nil {
		return nil, err
	}
	pCol, tCol, err := twoCols(hasInterest, "person", "tag")
	if err != nil {
		return nil, err
	}
	sCol, dCol, err := twoCols(knows, "src", "dst")
	if err != nil {
		return nil, err
	}
	fans := make(map[int64]bool)
	for _, row := range hasInterest.Rows {
		if row[tCol].S == tag {
			fans[row[pCol].I] = true
		}
	}
	parent := make(map[int64]int64, len(fans))
	for f := range fans {
		parent[f] = f
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, row := range knows.Rows {
		a, b := row[sCol].I, row[dCol].I
		if fans[a] && fans[b] {
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	labels := make(map[int64]int64, len(fans))
	for f := range fans {
		labels[f] = find(f)
	}
	res := &CommunityResult{Tag: tag, Members: len(fans)}
	res.Partition = partitionFromLabels(labels)
	res.Communities = len(res.Partition)
	for _, members := range res.Partition {
		if len(members) > res.LargestSize {
			res.LargestSize = len(members)
		}
	}
	return res, nil
}

// twoCols resolves two named columns of a table.
func twoCols(t *relstore.Table, a, b string) (int, int, error) {
	ai, ok := t.ColIndex(a)
	if !ok {
		return 0, 0, fmt.Errorf("table %s has no column %s", t.Name, a)
	}
	bi, ok := t.ColIndex(b)
	if !ok {
		return 0, 0, fmt.Errorf("table %s has no column %s", t.Name, b)
	}
	return ai, bi, nil
}

// TestNaiveDistancesHandBuilt pins naiveDistances after graphlint's
// determinism analyzer flagged its edge list being collected while ranging
// over the vertex-presence map: the reference now walks vertices in
// iterator order, and its output on a known graph is exact.
func TestNaiveDistancesHandBuilt(t *testing.T) {
	g := graphgen.WrapCore(core.New(core.EXP))
	for _, id := range []int64{10, 20, 30, 40, 50, 60} {
		if err := g.AddVertex(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int64{{10, 20}, {20, 30}, {10, 40}, {40, 30}, {30, 50}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int64]int64{10: 0, 20: 1, 40: 1, 30: 2, 50: 3} // 60 unreachable
	for rep := 0; rep < 5; rep++ {
		got := naiveDistances(g, []int64{10})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: distances %v, want %v", rep, got, want)
		}
	}
}
