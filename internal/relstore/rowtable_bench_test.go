package relstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// The benchmarks below drive the operators the row table serves through
// the public constructors only, so the same file times any version of
// them.

// distinctRows returns n two-column rows with exactly 40 % survivors: 0.4n
// distinct keys, each repeated, in shuffled order. second builds the
// second column from a key number.
func distinctRows(n int, second func(int) Value) [][]Value {
	rng := rand.New(rand.NewSource(2))
	keys := make([][]Value, n*2/5)
	for i := range keys {
		keys[i] = []Value{IntVal(rng.Int63n(1 << 40)), second(i)}
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = keys[i%len(keys)]
	}
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// BenchmarkDistinct times NewDistinct over ~360 k rows, the size of
// extract-expand's largest early distinct, with two int columns and with
// an int and a string column.
func BenchmarkDistinct(b *testing.B) {
	for _, c := range []struct {
		name   string
		second func(int) Value
	}{
		{"ints", func(i int) Value { return IntVal(int64(i) * 7919) }},
		{"int_string", func(i int) Value { return StrVal(fmt.Sprintf("name-%d", i)) }},
	} {
		rows := distinctRows(360_000, c.second)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := NewDistinct(IterRows([]string{"a", "b"}, rows), ExecOpts{})
				n := 0
				for {
					_, ok, err := it.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
				it.Close()
				if n != len(rows)*2/5 {
					b.Fatalf("%d survivors, want %d", n, len(rows)*2/5)
				}
			}
		})
	}
}

// BenchmarkTableJoinBuild times NewTableJoin against a 4096-row table
// indexed on its join column: a 3 000-row build (the scan path) and a
// one-row build (the index path, the live-delta shape, where any fixed
// per-table cost would show).
func BenchmarkTableJoinBuild(b *testing.B) {
	db := NewDB()
	t, err := db.Create("t", Column{Name: "k", Type: Int}, Column{Name: "v", Type: Int})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := t.Insert(IntVal(int64(i)), IntVal(int64(i*3))); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := t.CreateIndex("k"); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{3000, 1} {
		build := make([][]Value, n)
		for i := range build {
			build[i] = []Value{IntVal(int64(i)), IntVal(int64(i * 1231 % 4096))}
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := NewTableJoin(IterRows([]string{"x", "k"}, build), t, nil, []int{0, 1}, []string{"k", "v"},
					[]string{"k"}, nil, ExecOpts{})
				if err != nil {
					b.Fatal(err)
				}
				rel, err := Collect(it)
				if err != nil {
					b.Fatal(err)
				}
				if len(rel.Rows) != n {
					b.Fatalf("%d rows, want %d", len(rel.Rows), n)
				}
			}
		})
	}
}
