package graphgen

// Equivalence tests for the secondary-index subsystem at the extraction
// level: the indexed pipeline (auto-created hash indexes, IndexScan /
// IndexedJoin access paths) must extract a graph row-for-row identical to
// the pure-scan pipeline for every workload — the planner's index choice
// is cost-only, never semantics.

import (
	"fmt"
	"math/rand"
	"testing"

	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/experiments"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// extractFingerprint extracts with the given options and fingerprints the
// resulting graph structure.
func extractFingerprint(t *testing.T, db *relstore.DB, query string, opts extract.Options) string {
	t.Helper()
	prog, err := datalog.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract.Extract(db, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return coreFingerprint(res.Graph)
}

// TestIndexedExtractionEquivalenceTable1 checks indexed == unindexed
// across the Table 1 workloads in both planner modes. The unindexed run
// goes second on the same database, proving IndexOff really bypasses the
// indexes the first run created.
func TestIndexedExtractionEquivalenceTable1(t *testing.T) {
	for _, d := range experiments.Table1Datasets(experiments.Scale{Quick: true}) {
		for _, condensed := range []bool{true, false} {
			opts := extract.DefaultOptions()
			opts.ForceCondensed = condensed
			opts.ForceExpand = !condensed
			indexed := extractFingerprint(t, d.DB, d.Query, opts)
			opts.UseIndex = relstore.IndexOff
			unindexed := extractFingerprint(t, d.DB, d.Query, opts)
			if indexed != unindexed {
				t.Errorf("%s (condensed=%t): indexed extraction differs from scan extraction", d.Name, condensed)
			}
		}
	}
}

// TestIndexedExtractionEquivalenceSelective exercises the IndexScan path
// hard: constant equality predicates on a temporal dataset, where the
// indexed plan answers from a year bucket while the scan plan walks the
// whole membership table.
func TestIndexedExtractionEquivalenceSelective(t *testing.T) {
	db := datagen.DBLPTemporal(9, 300, 1500, 2000, 2019)
	for year := 2000; year <= 2004; year++ {
		query := fmt.Sprintf(`
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPubYear(ID1, P, %d), AuthorPubYear(ID2, P, %d).
`, year, year)
		opts := extract.DefaultOptions()
		indexed := extractFingerprint(t, db, query, opts)
		opts.UseIndex = relstore.IndexOff
		unindexed := extractFingerprint(t, db, query, opts)
		if indexed != unindexed {
			t.Errorf("year %d: indexed extraction differs from scan extraction", year)
		}
	}
}

// TestIndexedExtractionEquivalenceRandomized builds randomized two-table
// membership databases (duplicate rows included) and compares indexed vs
// unindexed extraction across random constant-predicate queries and the
// plain co-membership join.
func TestIndexedExtractionEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := relstore.NewDB()
		ent, _ := db.Create("Ent", relstore.Column{Name: "id", Type: relstore.Int}, relstore.Column{Name: "name", Type: relstore.String})
		mem, _ := db.Create("Mem", relstore.Column{Name: "eid", Type: relstore.Int}, relstore.Column{Name: "gid", Type: relstore.Int}, relstore.Column{Name: "kind", Type: relstore.Int})
		nEnt := 40 + rng.Intn(40)
		for i := 1; i <= nEnt; i++ {
			ent.Insert(relstore.IntVal(int64(i)), relstore.StrVal(fmt.Sprintf("e%d", i)))
		}
		for i := 0; i < 600; i++ {
			mem.Insert(relstore.IntVal(int64(rng.Intn(nEnt)+1)), relstore.IntVal(int64(rng.Intn(25)+1)), relstore.IntVal(int64(rng.Intn(4))))
		}
		queries := []string{
			`Nodes(ID, N) :- Ent(ID, N).
Edges(A, B) :- Mem(A, G, k), Mem(B, G, k).`,
			fmt.Sprintf(`Nodes(ID, N) :- Ent(ID, N).
Edges(A, B) :- Mem(A, G, %d), Mem(B, G, %d).`, rng.Intn(4), rng.Intn(4)),
		}
		for qi, query := range queries {
			opts := extract.DefaultOptions()
			indexed := extractFingerprint(t, db, query, opts)
			opts.UseIndex = relstore.IndexOff
			unindexed := extractFingerprint(t, db, query, opts)
			if indexed != unindexed {
				t.Errorf("seed %d query %d: indexed differs from scan", seed, qi)
			}
		}
	}
}

// TestIndexedProgramEquivalence checks the public surface: Extract and
// ExtractProgram produce identical graphs with WithAutoIndex(true) and
// WithAutoIndex(false), including a recursive program whose semi-naive
// loop probes the temp-table indexes.
func TestIndexedProgramEquivalence(t *testing.T) {
	db := datagen.DBLPLike(13, 120, 200)
	indexedEngine := NewEngine(db, WithAutoIndex(true))
	scanEngine := NewEngine(db, WithAutoIndex(false))

	gi, err := indexedEngine.Extract(datagen.QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := scanEngine.Extract(datagen.QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	if coreFingerprint(gi.c) != coreFingerprint(gs.c) {
		t.Error("Extract: indexed graph differs from scan graph")
	}

	program := `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Nodes(ID, N) :- Author(ID, N).
Edges(A, B) :- Reach(A, B).
`
	pi, err := indexedEngine.ExtractProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := scanEngine.ExtractProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	if coreFingerprint(pi.c) != coreFingerprint(ps.c) {
		t.Error("ExtractProgram: indexed graph differs from scan graph")
	}
	si, _ := pi.ProgramStats()
	ss, _ := ps.ProgramStats()
	if si.DerivedTuples != ss.DerivedTuples || si.Iterations != ss.Iterations {
		t.Errorf("eval stats diverge: indexed %+v vs scan %+v", si, ss)
	}
}
