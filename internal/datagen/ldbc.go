package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"graphgen/internal/parallel"
	"graphgen/internal/relstore"
)

// This file generates an LDBC-SNB-style social network: a relational
// database whose hidden graphs have the statistical shape the SIGMOD 2014
// programming-contest analysis (Elekes/Antal/Szárnyas) identifies as the
// regime where naive graph implementations fall over — power-law knows
// degrees, attribute/topology correlation (homophily), and membership
// tables (forums, interests) whose group sizes are long-tailed.
//
// Schema (Person IDs are 1..N, dense; all other IDs live in disjoint
// ranges so extracted node spaces never collide):
//
//	Person(id, name, country)
//	Knows(src, dst)              -- symmetric: both directions stored
//	HasInterest(person, tag)
//	Forum(id, title)
//	ForumMember(forum, person)
//	Post(id, forum, creator, tag)
//
// Correlation model:
//
//   - Countries follow a Zipf-like population distribution; a knows edge
//     prefers a same-country endpoint (homophily), so the knows graph has
//     country-dense neighborhoods.
//   - Interests are drawn from a country-biased window of the tag
//     vocabulary, so friends (country-correlated) share tags far more
//     often than uniform assignment would produce.
//   - Extra knows edges close triangles: a fraction of each person's
//     fan-out is drawn from its friends-of-friends, producing the high
//     clustering of real social networks.
//   - Forum membership spreads from a moderator through their knows
//     neighborhood; post tags are drawn from the creator's interests.
//
// Determinism contract: every row is derived either from a per-entity RNG
// seeded by mix(seed, salt, entityID) — so per-person work can run on any
// number of workers and merge in entity order — or from the single
// sequential edge-wiring pass, which never uses the worker pool. Same
// SNBConfig (ignoring Workers) ⇒ byte-identical tables.
//
// Degree invariants (tested in ldbc_test.go):
//
//   - The knows graph is connected: a deterministic "family ring"
//     (i — i+1, wrapping) underlies the power-law fan-out, mirroring the
//     single giant component of real LDBC data. Component count == 1.
//   - Undirected knows degree never exceeds MaxKnowsDegree (the wiring
//     pass refuses edges at the cap; ring edges are wired first).
//   - Degrees are long-tailed: targets are Pareto(alpha)-distributed, so
//     the max degree is a large multiple of the mean.

// SNB scale anchors: PersonsPerSF persons at scale factor 1.0, with the
// other tables sized relative to the person count.
const (
	// PersonsPerSF is the person count at ScaleFactor 1.
	PersonsPerSF = 10_000
	// MaxKnowsDegree caps the undirected knows degree of any person.
	MaxKnowsDegree = 200
	// NumCountries is the size of the country vocabulary.
	NumCountries = 25
	// NumTags is the size of the interest/post tag vocabulary.
	NumTags = 50
	// forumIDBase and postIDBase keep non-person IDs out of the person
	// ID range (persons are 1..N).
	forumIDBase = 10_000_000
	postIDBase  = 20_000_000
)

// SNBConfig parameterizes the social-network generator.
type SNBConfig struct {
	// Seed fixes every random choice; equal seeds (and scale) produce
	// byte-identical databases.
	Seed int64
	// ScaleFactor sizes the network: SF 1 is 10k persons, SF 0.1 is 1k.
	// Values are clamped so at least 64 persons exist.
	ScaleFactor float64
	// Workers bounds the parallelism of per-entity row generation; any
	// value (including 0 = GOMAXPROCS) produces identical tables.
	Workers int
}

// SNBCounts reports the entity counts a config resolves to.
type SNBCounts struct {
	Persons, Forums, Posts int
}

// Counts resolves the entity counts for a scale factor.
func (cfg SNBConfig) Counts() SNBCounts {
	n := int(math.Round(cfg.ScaleFactor * PersonsPerSF))
	if n < 64 {
		n = 64
	}
	return SNBCounts{Persons: n, Forums: n / 20, Posts: n * 2}
}

// SNB generates the social network resolved by cfg.
func SNB(cfg SNBConfig) *relstore.DB {
	c := cfg.Counts()
	n := c.Persons
	db := relstore.NewDB()
	person, _ := db.Create("Person",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String},
		relstore.Column{Name: "country", Type: relstore.String})
	knows, _ := db.Create("Knows",
		relstore.Column{Name: "src", Type: relstore.Int},
		relstore.Column{Name: "dst", Type: relstore.Int})
	interest, _ := db.Create("HasInterest",
		relstore.Column{Name: "person", Type: relstore.Int},
		relstore.Column{Name: "tag", Type: relstore.String})
	forum, _ := db.Create("Forum",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "title", Type: relstore.String})
	member, _ := db.Create("ForumMember",
		relstore.Column{Name: "forum", Type: relstore.Int},
		relstore.Column{Name: "person", Type: relstore.Int})
	post, _ := db.Create("Post",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "forum", Type: relstore.Int},
		relstore.Column{Name: "creator", Type: relstore.Int},
		relstore.Column{Name: "tag", Type: relstore.String})

	// Phase 1 (parallel, entity-order merge): person attributes and
	// interests, derived from per-person RNGs. Phases 1 and 4 keep the
	// pool: on a 2-vCPU Xeon, SF 1 takes 377 ms at 2 workers, 545 ms at 1.
	countries := make([]int, n+1)   // person -> country index
	interests := make([][]int, n+1) // person -> sorted tag indexes
	personRows := make([][]relstore.Value, n+1)
	interestRows := make([][][]relstore.Value, n+1)
	parallel.Run(n, cfg.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := i + 1
			rng := entityRNG(cfg.Seed, saltPerson, p)
			country := zipfIndex(rng, NumCountries)
			countries[p] = country
			personRows[p] = []relstore.Value{
				relstore.IntVal(int64(p)),
				relstore.StrVal(fmt.Sprintf("person-%d", p)),
				relstore.StrVal(CountryName(country)),
			}
			tags := personInterests(rng, country)
			interests[p] = tags
			rows := make([][]relstore.Value, len(tags))
			for j, t := range tags {
				rows[j] = []relstore.Value{relstore.IntVal(int64(p)), relstore.StrVal(TagName(t))}
			}
			interestRows[p] = rows
		}
	})
	for p := 1; p <= n; p++ {
		person.Insert(personRows[p]...)
		for _, row := range interestRows[p] {
			interest.Insert(row...)
		}
	}

	// Phase 2 (sequential: the friend-of-friend and degree-cap choices
	// read the adjacency built so far): wire the knows graph. The family
	// ring goes first so connectivity never depends on the random
	// fan-out; then each person draws a Pareto-distributed number of
	// extra neighbors — same-country biased, friend-of-friend biased —
	// rejected when either endpoint sits at the degree cap.
	adj := wireKnows(cfg.Seed, n, countries)
	for p := 1; p <= n; p++ {
		for _, q := range adj[p] {
			knows.Insert(relstore.IntVal(int64(p)), relstore.IntVal(int64(q)))
		}
	}

	// Phase 3 (sequential: membership spreads over the adjacency):
	// forums seeded by a moderator, filled from the moderator's 2-hop
	// neighborhood with a uniform fallback.
	memberSets := buildForums(cfg.Seed, c.Forums, n, adj)
	for f := 0; f < c.Forums; f++ {
		fid := int64(forumIDBase + f + 1)
		forum.Insert(relstore.IntVal(fid), relstore.StrVal(fmt.Sprintf("forum-%d", f+1)))
		for _, p := range memberSets[f] {
			member.Insert(relstore.IntVal(fid), relstore.IntVal(int64(p)))
		}
	}

	// Phase 4 (parallel, entity-order merge): posts. The creator is
	// drawn per post from a member of a Zipf-chosen forum, the tag from
	// the creator's interests.
	postRows := make([][]relstore.Value, c.Posts)
	parallel.Run(c.Posts, cfg.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rng := entityRNG(cfg.Seed, saltPost, i+1)
			f := zipfIndex(rng, c.Forums)
			members := memberSets[f]
			creator := members[rng.Intn(len(members))]
			tag := interests[creator][rng.Intn(len(interests[creator]))]
			postRows[i] = []relstore.Value{
				relstore.IntVal(int64(postIDBase + i + 1)),
				relstore.IntVal(int64(forumIDBase + f + 1)),
				relstore.IntVal(int64(creator)),
				relstore.StrVal(TagName(tag)),
			}
		}
	})
	for _, row := range postRows {
		post.Insert(row...)
	}
	return db
}

// wireKnows builds the undirected adjacency (1-based; adj[p] holds p's
// neighbors in insertion order): ring first, then capped Pareto fan-out.
func wireKnows(seed int64, n int, countries []int) [][]int {
	adj := make([][]int, n+1)
	have := make([]map[int]struct{}, n+1)
	for p := 1; p <= n; p++ {
		have[p] = make(map[int]struct{}, 8)
	}
	addEdge := func(a, b int) bool {
		if a == b {
			return false
		}
		if _, dup := have[a][b]; dup {
			return false
		}
		if len(adj[a]) >= MaxKnowsDegree || len(adj[b]) >= MaxKnowsDegree {
			return false
		}
		have[a][b] = struct{}{}
		have[b][a] = struct{}{}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
		return true
	}
	for p := 1; p <= n; p++ {
		q := p%n + 1
		addEdge(p, q)
	}
	// byCountry supports the homophily draw: a same-country candidate in
	// O(1) instead of rejection sampling over all persons.
	byCountry := make([][]int, NumCountries)
	for p := 1; p <= n; p++ {
		byCountry[countries[p]] = append(byCountry[countries[p]], p)
	}
	rng := rand.New(rand.NewSource(mix(seed, saltKnows, 0)))
	for p := 1; p <= n; p++ {
		extra := paretoDegree(rng)
		for attempts := 0; extra > 0 && attempts < extra*8; attempts++ {
			var q int
			switch draw := rng.Float64(); {
			case draw < 0.35 && len(adj[p]) > 0:
				// Friend-of-friend: close a triangle.
				f := adj[p][rng.Intn(len(adj[p]))]
				q = adj[f][rng.Intn(len(adj[f]))]
			case draw < 0.80:
				// Homophily: same-country candidate.
				pool := byCountry[countries[p]]
				q = pool[rng.Intn(len(pool))]
			default:
				q = rng.Intn(n) + 1
			}
			if addEdge(p, q) {
				extra--
			}
		}
	}
	return adj
}

// buildForums spreads each forum from a moderator through their 2-hop
// neighborhood (0-based forum index -> sorted-by-arrival member list).
func buildForums(seed int64, forums, n int, adj [][]int) [][]int {
	sets := make([][]int, forums)
	rng := rand.New(rand.NewSource(mix(seed, saltForum, 0)))
	for f := 0; f < forums; f++ {
		size := 3 + paretoDegree(rng)
		if size > n {
			size = n
		}
		mod := rng.Intn(n) + 1
		members := []int{mod}
		seen := map[int]struct{}{mod: {}}
		for attempts := 0; len(members) < size && attempts < size*8; attempts++ {
			// Walk two hops from a random current member.
			cur := members[rng.Intn(len(members))]
			for hop := 0; hop < 2 && len(adj[cur]) > 0; hop++ {
				cur = adj[cur][rng.Intn(len(adj[cur]))]
			}
			if rng.Float64() < 0.1 {
				cur = rng.Intn(n) + 1 // drift: cross-community membership
			}
			if _, dup := seen[cur]; !dup {
				seen[cur] = struct{}{}
				members = append(members, cur)
			}
		}
		sets[f] = members
	}
	return sets
}

// personInterests draws 1..5 tags from a country-biased window of the tag
// vocabulary (sorted, deduplicated).
func personInterests(rng *rand.Rand, country int) []int {
	k := 1 + rng.Intn(5)
	seen := make(map[int]struct{}, k)
	var out []int
	for len(out) < k {
		var t int
		if rng.Float64() < 0.6 {
			// Country window: country c prefers tags [2c, 2c+7) mod NumTags.
			t = (2*country + rng.Intn(7)) % NumTags
		} else {
			t = rng.Intn(NumTags)
		}
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion order is already deterministic; sort for readability of
	// the generated table.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// paretoDegree draws the extra-edge count: Pareto(alpha=2) with minimum 1,
// truncated at MaxKnowsDegree/2 — a long-tailed distribution whose mean
// stays small (~2) while the tail reaches the cap.
func paretoDegree(rng *rand.Rand) int {
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	d := int(1 / math.Sqrt(u))
	if d < 1 {
		d = 1
	}
	if d > MaxKnowsDegree/2 {
		d = MaxKnowsDegree / 2
	}
	return d
}

// zipfIndex draws an index in [0, n) with a Zipf-like skew (index 0 most
// popular).
func zipfIndex(rng *rand.Rand, n int) int {
	u := rng.Float64()
	i := int(float64(n) * u * u)
	if i >= n {
		i = n - 1
	}
	return i
}

// CountryName renders country index c as its table value.
func CountryName(c int) string { return fmt.Sprintf("country-%d", c) }

// TagName renders tag index t as its table value.
func TagName(t int) string { return fmt.Sprintf("tag-%d", t) }

// Per-entity RNG salts: one per entity family, so person 7's stream never
// overlaps post 7's.
const (
	saltPerson uint64 = 0x9e3779b97f4a7c15
	saltKnows  uint64 = 0xbf58476d1ce4e5b9
	saltForum  uint64 = 0x94d049bb133111eb
	saltPost   uint64 = 0x2545f4914f6cdd1d
)

// entityRNG returns the deterministic RNG of one entity.
func entityRNG(seed int64, salt uint64, id int) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, salt, uint64(id))))
}

// mix hashes (seed, salt, id) into an RNG seed with a splitmix64 finalizer,
// so nearby entity IDs get uncorrelated streams.
func mix(seed int64, salt uint64, id uint64) int64 {
	z := uint64(seed) ^ salt ^ (id * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63)) // rand.NewSource wants a non-negative-friendly seed
}

// QueryKnows is the canonical extraction query of the SNB dataset: the
// person-knows-person graph.
const QueryKnows = `
Nodes(ID, Name) :- Person(ID, Name, Country).
Edges(A, B) :- Knows(A, B).
`
