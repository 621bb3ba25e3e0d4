package relstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTableDelete times one Delete plus the re-Insert of the same
// tuple on a two-int-column table of 1 k, 10 k and 100 k rows with one
// index, whose buckets hold eight rows at every size. Victims are drawn
// at random, so each sits at a uniformly random position: a cyclic
// order would always find its victim first in the table, the row the
// previous cycle moved to the end earliest. It drives the public
// methods only, so the same file times any version of the table. The
// first Delete, outside the timer, pays any one-time set-up.
func BenchmarkTableDelete(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		t := NewTable("t", Column{Name: "a", Type: Int}, Column{Name: "b", Type: Int})
		row := func(k int) []Value { return []Value{IntVal(int64(k)), IntVal(int64(k / 8))} }
		for k := 0; k < n; k++ {
			if err := t.Insert(row(k)...); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := t.CreateIndex("b"); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			if ok, err := t.Delete(row(0)...); !ok || err != nil {
				b.Fatalf("delete: %v, %v", ok, err)
			}
			if err := t.Insert(row(0)...); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(n)
				if ok, err := t.Delete(row(k)...); !ok || err != nil {
					b.Fatalf("delete %d: %v, %v", k, ok, err)
				}
				if err := t.Insert(row(k)...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
