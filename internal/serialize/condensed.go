package serialize

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphgen/internal/core"
)

// This file serializes the CONDENSED representation itself (not the
// expanded edge list): Section 6.5 suggests storing deduplicated graphs
// back into the database to amortize deduplication across sessions, and
// Section 4.3 notes DEDUP-1's structural simplicity makes it portable to
// any system that implements a traversing iterator. The format is a
// line-oriented text format:
//
//	G <mode> <selfLoops> <symmetric>
//	N <id> [key=value]...          real node, keys in the graph's key order
//	V <tag> <layer>                virtual node (tag is file-local)
//	S <tag> <realID>               source edge  real -> virtual
//	T <tag> <realID>               target edge  virtual -> real
//	W <tag> <tag>                  virtual -> virtual (directed)
//	U <tag> <tag>                  virtual <-> virtual (DEDUP-2, undirected)
//	D <realID> <realID>            direct edge
//
// BITMAP masks are intentionally not serialized — the paper calls BITMAP
// "less portable to systems outside GraphGen" for exactly this reason; a
// reloaded BITMAP graph must be re-deduplicated.

// WriteCondensed writes the condensed structure of g.
func WriteCondensed(w io.Writer, g *core.Graph) error {
	bw := bufio.NewWriter(w)
	mode := g.Mode()
	if mode == core.BITMAP {
		mode = core.CDUP // masks are dropped; the structure is C-DUP again
	}
	fmt.Fprintf(bw, "G %d %t %t\n", uint8(mode), g.SelfLoops, g.Symmetric)
	var err error
	g.ForEachReal(func(r int32) bool {
		fmt.Fprintf(bw, "N %d", g.RealID(r))
		g.ForEachProperty(r, func(k, v string) bool {
			if strings.ContainsAny(k, " \n") || strings.ContainsAny(v, " \n") {
				err = fmt.Errorf("serialize: property %q=%q contains whitespace", k, v)
				return false
			}
			fmt.Fprintf(bw, " %s=%s", k, v)
			return true
		})
		fmt.Fprintln(bw)
		return err == nil
	})
	if err != nil {
		return err
	}
	tag := make(map[int32]int)
	next := 0
	g.ForEachVirtual(func(v int32) bool {
		tag[v] = next
		fmt.Fprintf(bw, "V %d %d\n", next, g.VirtLayer(v))
		next++
		return true
	})
	g.ForEachVirtual(func(v int32) bool {
		for _, s := range g.VirtSources(v) {
			fmt.Fprintf(bw, "S %d %d\n", tag[v], g.RealID(s))
		}
		for _, t := range g.VirtTargets(v) {
			fmt.Fprintf(bw, "T %d %d\n", tag[v], g.RealID(t))
		}
		for _, w2 := range g.VirtOutVirt(v) {
			fmt.Fprintf(bw, "W %d %d\n", tag[v], tag[w2])
		}
		for _, w2 := range g.VirtUndirected(v) {
			if tag[v] < tag[w2] { // each undirected edge once
				fmt.Fprintf(bw, "U %d %d\n", tag[v], tag[w2])
			}
		}
		return true
	})
	g.ForEachReal(func(r int32) bool {
		for _, t := range g.OutDirect(r) {
			fmt.Fprintf(bw, "D %d %d\n", g.RealID(r), g.RealID(t))
		}
		return true
	})
	return bw.Flush()
}

// ReadCondensed parses a condensed graph written by WriteCondensed.
func ReadCondensed(r io.Reader) (*core.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var g *core.Graph
	virtByTag := make(map[int]int32)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		fail := func(msg string) error {
			return fmt.Errorf("serialize: line %d: %s", line, msg)
		}
		switch fields[0] {
		case "G":
			if len(fields) != 4 {
				return nil, fail("malformed header")
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad mode")
			}
			g = core.New(core.Mode(m))
			g.SelfLoops = fields[2] == "true"
			g.Symmetric = fields[3] == "true"
		case "N":
			if g == nil || len(fields) < 2 {
				return nil, fail("node before header or missing id")
			}
			id, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fail("bad node id")
			}
			idx := g.AddRealNode(id)
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fail("bad property " + kv)
				}
				g.SetProperty(idx, k, v)
			}
		case "V":
			if g == nil || len(fields) != 3 {
				return nil, fail("malformed virtual node")
			}
			t, err1 := strconv.Atoi(fields[1])
			layer, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad virtual node fields")
			}
			virtByTag[t] = g.AddVirtualNode(int32(layer))
		case "S", "T", "D", "W", "U":
			if g == nil || len(fields) != 3 {
				return nil, fail("malformed edge")
			}
			a, err1 := strconv.ParseInt(fields[1], 10, 64)
			b, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fail("bad edge endpoints")
			}
			switch fields[0] {
			case "S":
				v, ok := virtByTag[int(a)]
				r, ok2 := g.RealIndex(b)
				if !ok || !ok2 {
					return nil, fail("unknown endpoint")
				}
				g.ConnectRealToVirt(r, v)
			case "T":
				v, ok := virtByTag[int(a)]
				r, ok2 := g.RealIndex(b)
				if !ok || !ok2 {
					return nil, fail("unknown endpoint")
				}
				g.ConnectVirtToReal(v, r)
			case "W":
				v, ok := virtByTag[int(a)]
				w2, ok2 := virtByTag[int(b)]
				if !ok || !ok2 {
					return nil, fail("unknown virtual endpoint")
				}
				g.ConnectVirtToVirt(v, w2)
			case "U":
				v, ok := virtByTag[int(a)]
				w2, ok2 := virtByTag[int(b)]
				if !ok || !ok2 {
					return nil, fail("unknown virtual endpoint")
				}
				g.ConnectVirtUndirected(v, w2)
			case "D":
				u, ok := g.RealIndex(a)
				t, ok2 := g.RealIndex(b)
				if !ok || !ok2 {
					return nil, fail("unknown direct endpoint")
				}
				g.AddDirectEdgeIdx(u, t)
			}
		default:
			return nil, fail("unknown record " + fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("serialize: empty input")
	}
	g.SortAdjacency()
	return g, nil
}
