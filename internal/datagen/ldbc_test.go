package datagen

import (
	"sort"
	"strings"
	"testing"

	"graphgen/internal/relstore"
)

// fingerprintDB renders every table (sorted by name) row by row, value by
// value — a byte-level identity for the determinism contract.
func fingerprintDB(t *testing.T, db *relstore.DB) string {
	t.Helper()
	names := db.TableNames()
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatalf("table %s: %v", name, err)
		}
		sb.WriteString(name)
		sb.WriteByte('\n')
		for _, row := range tab.Rows {
			for _, v := range row {
				sb.Write(v.AppendKeyBytes(nil))
				sb.WriteByte(',')
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func TestSNBDeterministicAcrossWorkers(t *testing.T) {
	base := fingerprintDB(t, SNB(SNBConfig{Seed: 7, ScaleFactor: 0.05, Workers: 1}))
	for _, workers := range []int{2, 3, 8} {
		got := fingerprintDB(t, SNB(SNBConfig{Seed: 7, ScaleFactor: 0.05, Workers: workers}))
		if got != base {
			t.Fatalf("Workers=%d produced different tables than Workers=1", workers)
		}
	}
	if again := fingerprintDB(t, SNB(SNBConfig{Seed: 7, ScaleFactor: 0.05, Workers: 4})); again != base {
		t.Fatal("same seed and scale produced different tables across runs")
	}
	if other := fingerprintDB(t, SNB(SNBConfig{Seed: 8, ScaleFactor: 0.05, Workers: 4})); other == base {
		t.Fatal("different seeds produced identical tables")
	}
}

// knowsDegrees returns the undirected degree per person (both directions
// of every edge are stored, so out-degree is the undirected degree).
func knowsDegrees(t *testing.T, db *relstore.DB, persons int) []int {
	t.Helper()
	knows, err := db.Table("Knows")
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int, persons+1)
	for _, row := range knows.Rows {
		src := row[0].I
		if src < 1 || src > int64(persons) {
			t.Fatalf("knows src %d outside person range [1,%d]", src, persons)
		}
		deg[src]++
	}
	return deg
}

func TestSNBDegreeInvariants(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		cfg := SNBConfig{Seed: seed, ScaleFactor: 0.1}
		db := SNB(cfg)
		persons := cfg.Counts().Persons
		deg := knowsDegrees(t, db, persons)

		maxDeg, sum := 0, 0
		for p := 1; p <= persons; p++ {
			if deg[p] == 0 {
				t.Fatalf("seed %d: person %d is isolated (the family ring must give everyone a neighbor)", seed, p)
			}
			if deg[p] > maxDeg {
				maxDeg = deg[p]
			}
			sum += deg[p]
		}
		if maxDeg > MaxKnowsDegree {
			t.Fatalf("seed %d: max degree %d exceeds the cap %d", seed, maxDeg, MaxKnowsDegree)
		}
		avg := float64(sum) / float64(persons)
		if avg < 2 || avg > 40 {
			t.Fatalf("seed %d: average knows degree %.1f outside the expected band [2,40]", seed, avg)
		}
		// Long tail: the Pareto fan-out should push the max degree far
		// past the mean.
		if float64(maxDeg) < 4*avg {
			t.Fatalf("seed %d: max degree %d is not long-tailed relative to the mean %.1f", seed, maxDeg, avg)
		}
	}
}

func TestSNBConnected(t *testing.T) {
	cfg := SNBConfig{Seed: 3, ScaleFactor: 0.05}
	db := SNB(cfg)
	persons := cfg.Counts().Persons
	knows, err := db.Table("Knows")
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]int, persons+1)
	for p := range parent {
		parent[p] = p
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, row := range knows.Rows {
		a, b := find(int(row[0].I)), find(int(row[1].I))
		if a != b {
			parent[a] = b
		}
	}
	root := find(1)
	for p := 2; p <= persons; p++ {
		if find(p) != root {
			t.Fatalf("knows graph is disconnected: person %d not reachable from person 1", p)
		}
	}
}

func TestSNBKnowsSymmetric(t *testing.T) {
	db := SNB(SNBConfig{Seed: 5, ScaleFactor: 0.02})
	knows, err := db.Table("Knows")
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[[2]int64]bool, len(knows.Rows))
	for _, row := range knows.Rows {
		key := [2]int64{row[0].I, row[1].I}
		if edges[key] {
			t.Fatalf("duplicate knows row (%d, %d)", key[0], key[1])
		}
		edges[key] = true
	}
	for key := range edges {
		if !edges[[2]int64{key[1], key[0]}] {
			t.Fatalf("knows edge (%d, %d) has no reverse row", key[0], key[1])
		}
	}
}

// TestSNBHomophily checks the correlation model: knows edges connect
// same-country persons far more often than uniform pairing would.
func TestSNBHomophily(t *testing.T) {
	cfg := SNBConfig{Seed: 11, ScaleFactor: 0.1}
	db := SNB(cfg)
	persons := cfg.Counts().Persons
	personTab, err := db.Table("Person")
	if err != nil {
		t.Fatal(err)
	}
	country := make(map[int64]string, persons)
	countryCount := make(map[string]int)
	for _, row := range personTab.Rows {
		country[row[0].I] = row[2].S
		countryCount[row[2].S]++
	}
	// Baseline: probability two uniform-random persons share a country.
	baseline := 0.0
	for _, c := range countryCount {
		p := float64(c) / float64(persons)
		baseline += p * p
	}
	knows, err := db.Table("Knows")
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, row := range knows.Rows {
		if country[row[0].I] == country[row[1].I] {
			same++
		}
	}
	frac := float64(same) / float64(len(knows.Rows))
	if frac < 1.5*baseline {
		t.Fatalf("same-country edge fraction %.3f shows no homophily (uniform baseline %.3f)", frac, baseline)
	}
}

// TestSNBReferentialIntegrity checks the membership tables only reference
// generated entities, and post tags come from the creator's interests.
func TestSNBReferentialIntegrity(t *testing.T) {
	cfg := SNBConfig{Seed: 2, ScaleFactor: 0.02}
	db := SNB(cfg)
	c := cfg.Counts()
	interests := make(map[int64]map[string]bool)
	hi, err := db.Table("HasInterest")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range hi.Rows {
		p := row[0].I
		if interests[p] == nil {
			interests[p] = make(map[string]bool)
		}
		interests[p][row[1].S] = true
	}
	member, err := db.Table("ForumMember")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range member.Rows {
		f, p := row[0].I, row[1].I
		if f <= forumIDBase || f > int64(forumIDBase+c.Forums) {
			t.Fatalf("forum member references unknown forum %d", f)
		}
		if p < 1 || p > int64(c.Persons) {
			t.Fatalf("forum member references unknown person %d", p)
		}
	}
	post, err := db.Table("Post")
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Rows) != c.Posts {
		t.Fatalf("got %d posts, want %d", len(post.Rows), c.Posts)
	}
	for _, row := range post.Rows {
		creator, tag := row[2].I, row[3].S
		if !interests[creator][tag] {
			t.Fatalf("post tag %q is not an interest of its creator %d", tag, creator)
		}
	}
}
