package workload

import (
	"testing"

	"graphgen"
	"graphgen/internal/core"
)

// FuzzCloseness decodes its input into a small directed graph and a source
// list, then checks Closeness on one and four workers against
// NaiveCloseness. Byte 0 sets the vertex count n (1..96, IDs 5+3i). Byte 1
// holds flags: bit 0 scores every vertex (more than 64 sources once n >
// 64, so runs span batches), bit 1 adds the path 0 -> 1 -> ... -> n-1, and
// bits 2-4 are a count k of explicit sources taken from the next k bytes
// (i mod (n+1), where n names an unknown ID). The remaining bytes are
// edges, two bytes each.
func FuzzCloseness(f *testing.F) {
	f.Add([]byte{4, 0x04, 0, 1, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{70, 0x03})
	f.Add([]byte{90, 0x0d, 3, 3, 90, 0, 10, 10, 20, 20, 30, 30, 0, 45, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256] // long inputs add run time, not shapes
		}
		n := 1 + int(data[0])%96
		flags := data[1]
		data = data[2:]
		id := func(i int) int64 { return int64(5 + 3*i) }
		g := graphgen.WrapCore(core.New(core.EXP))
		for i := 0; i < n; i++ {
			if err := g.AddVertex(id(i)); err != nil {
				t.Fatal(err)
			}
		}
		var sources []int64
		if flags&1 != 0 {
			for i := 0; i < n; i++ {
				sources = append(sources, id(i))
			}
		}
		for k := int(flags>>2) & 7; k > 0 && len(data) > 0; k-- {
			sources = append(sources, id(int(data[0])%(n+1))) // id(n) is not a vertex
			data = data[1:]
		}
		if flags&2 != 0 {
			for i := 1; i < n; i++ {
				if err := g.AddEdge(id(i-1), id(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			if err := g.AddEdge(id(int(data[0])%n), id(int(data[1])%n)); err != nil {
				t.Fatal(err)
			}
		}
		checkCloseness(t, "fuzz", g, Snap(g), sources)
	})
}
