package incremental

import (
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// viewSink keeps the benchmarked views live.
var viewSink *core.Frozen

// BenchmarkFreezeAfterUpdate times the view a flush leaves behind: full is
// a from-scratch Freeze of the live graph, derived is FreezeVersioned
// deriving it from the previous view. Every iteration first inserts or
// deletes (alternately) tuples that change real vertices' rows and
// flushes them, outside the timer.
//
//   - knows: SNB scale factor 1, Knows(A, B): a new edge between two
//     existing persons, both directions (2 dirty rows);
//   - coactors: IMDBLike(2, 16000, 2600) co-actors, C-DUP: one cast row
//     joining an existing movie (the actor's row and every cast member's).
func BenchmarkFreezeAfterUpdate(b *testing.B) {
	for _, w := range []struct {
		name, table, query string
		db                 func() *relstore.DB
		rows               [][2]int64
	}{
		{"knows", "Knows", datagen.QueryKnows,
			func() *relstore.DB { return datagen.SNB(datagen.SNBConfig{Seed: 2, ScaleFactor: 1}) },
			nil}, // filled in below: the first pair of persons that do not know each other
		{"coactors", "cast_info", datagen.QueryCoactors,
			func() *relstore.DB { return datagen.IMDBLike(2, 16000, 2600) },
			[][2]int64{{1, 2_000_001}}},
	} {
		db := w.db()
		tbl, err := db.Table(w.table)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := datalog.Parse(w.query)
		if err != nil {
			b.Fatal(err)
		}
		lv, err := New(db, prog, extract.Options{LargeOutputFactor: 2})
		if err != nil {
			b.Fatal(err)
		}
		if w.rows == nil {
			q := int64(2)
			for existsEdge(lv, 1, q) || existsEdge(lv, q, 1) {
				q++
			}
			w.rows = [][2]int64{{1, q}, {q, 1}}
		}
		present := false
		toggle := func() {
			for _, r := range w.rows {
				row := []relstore.Value{relstore.IntVal(r[0]), relstore.IntVal(r[1])}
				if present {
					_, err = tbl.Delete(row...)
				} else {
					err = tbl.Insert(row...)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			present = !present
			if err := lv.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		for _, mode := range []string{"full", "derived"} {
			b.Run(w.name+"/"+mode, func(b *testing.B) {
				lv.FreezeVersioned() // the view the first derivation starts from
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					toggle()
					b.StartTimer()
					if mode == "full" {
						lv.mu.RLock()
						viewSink = lv.g.Freeze()
						lv.mu.RUnlock()
						continue
					}
					var build ViewBuild
					if viewSink, _, build = lv.FreezeVersioned(); build != ViewDerived {
						b.Fatalf("view %s, want derived", build)
					}
				}
			})
		}
		lv.Close()
	}
}
