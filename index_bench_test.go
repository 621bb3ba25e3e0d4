package graphgen

import (
	"runtime"
	"testing"
	"time"

	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// The indexed-extraction benchmark workload: a temporal co-author dataset
// whose extraction query carries a selective equality predicate (one
// publication year out of a thousand, ~0.1% of a ~350k-row membership
// table). The scan pipeline walks the whole table once per predicate per
// extraction; the indexed pipeline answers each predicate from a year
// bucket — the access-path contrast the paper gets from PostgreSQL's
// indexes. The author table and the per-year join output are kept small
// so graph construction does not drown the relational cost under
// measurement.
func indexedBenchWorkload() (*relstore.DB, *datalog.Program) {
	db := datagen.DBLPTemporal(77, 400, 120000, 1000, 1999)
	prog, err := datalog.Parse(`
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPubYear(ID1, P, 1500), AuthorPubYear(ID2, P, 1500).
`)
	if err != nil {
		panic(err)
	}
	return db, prog
}

// BenchmarkIndexedExtraction times the same selective-predicate
// extraction through the index-backed access paths (the default) and the
// pure parallel-scan pipeline (-no-index / WithAutoIndex(false)), on one
// shared database — the IndexOff run bypasses the indexes the indexed run
// created, which is exactly the graphgend opt-out's behavior.
func BenchmarkIndexedExtraction(b *testing.B) {
	db, prog := indexedBenchWorkload()
	for _, mode := range []struct {
		name     string
		useIndex relstore.IndexMode
	}{{"Indexed", relstore.IndexAuto}, {"Scan", relstore.IndexOff}} {
		b.Run(mode.name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				opts := extract.DefaultOptions()
				opts.UseIndex = mode.useIndex
				res, err := extract.Extract(db, prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				edges = res.Graph.RepEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// TestIndexedExtractionSpeedup asserts the headline claim: on the
// selective-predicate workload, indexed extraction is at least 2x faster
// than the scan pipeline (the measured gap is far larger; 2x is the
// regression bar). Timing-sensitive, so skipped in -short mode.
func TestIndexedExtractionSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	db, prog := indexedBenchWorkload()
	measure := func(useIndex relstore.IndexMode) time.Duration {
		opts := extract.DefaultOptions()
		opts.UseIndex = useIndex
		// One warm-up extraction (builds indexes on the indexed arm),
		// then best of five timed runs, each behind a forced GC so
		// garbage left by earlier tests in the suite cannot bill its
		// collection time to whichever arm runs first.
		if _, err := extract.Extract(db, prog, opts); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			runtime.GC()
			start := time.Now()
			if _, err := extract.Extract(db, prog, opts); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		if best == 0 {
			best = time.Nanosecond
		}
		return best
	}
	indexed := measure(relstore.IndexAuto)
	scan := measure(relstore.IndexOff)
	ratio := float64(scan) / float64(indexed)
	t.Logf("scan %v vs indexed %v per extraction: %.1fx", scan, indexed, ratio)
	if ratio < 2 {
		t.Fatalf("indexed extraction only %.2fx faster than the scan path, want >= 2x", ratio)
	}
	// The speedup must not come from computing something different.
	iOpts := extract.DefaultOptions()
	sOpts := extract.DefaultOptions()
	sOpts.UseIndex = relstore.IndexOff
	ri, err := extract.Extract(db, prog, iOpts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := extract.Extract(db, prog, sOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fi, fs := coreFingerprint(ri.Graph), coreFingerprint(rs.Graph); fi != fs {
		t.Fatal("indexed and scan extractions disagree on the benchmark workload")
	}
}
