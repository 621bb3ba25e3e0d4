// Package serialize writes extracted graphs to standard formats so that
// external frameworks (NetworkX and friends, per Section 3.4's graphgenpy
// workflow) can consume them: an expanded edge list, and a JSON document
// with nodes, properties, and edges.
package serialize

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"graphgen/internal/core"
)

// WriteEdgeList writes the EXPANDED logical edge list as "src dst" lines,
// sorted for determinism. The graph itself stays condensed in memory.
func WriteEdgeList(w io.Writer, g *core.Graph) error {
	bw := bufio.NewWriter(w)
	type edge struct{ u, v int64 }
	var edges []edge
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(t int32) bool {
			edges = append(edges, edge{g.RealID(r), g.RealID(t)})
			return true
		})
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.u, e.v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// JSONGraph is the JSON serialization schema.
type JSONGraph struct {
	Directed bool       `json:"directed"`
	Nodes    []JSONNode `json:"nodes"`
	Edges    [][2]int64 `json:"edges"`
}

// JSONNode is one vertex with its properties.
type JSONNode struct {
	ID    int64             `json:"id"`
	Props map[string]string `json:"props,omitempty"`
}

// WriteJSON writes the expanded graph as a JSON document.
func WriteJSON(w io.Writer, g *core.Graph) error {
	doc := JSONGraph{Directed: !g.Symmetric}
	g.ForEachReal(func(r int32) bool {
		node := JSONNode{ID: g.RealID(r)}
		g.ForEachProperty(r, func(k, v string) bool {
			if node.Props == nil {
				node.Props = make(map[string]string)
			}
			node.Props[k] = v
			return true
		})
		doc.Nodes = append(doc.Nodes, node)
		return true
	})
	sort.Slice(doc.Nodes, func(i, j int) bool { return doc.Nodes[i].ID < doc.Nodes[j].ID })
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(t int32) bool {
			doc.Edges = append(doc.Edges, [2]int64{g.RealID(r), g.RealID(t)})
			return true
		})
		return true
	})
	sort.Slice(doc.Edges, func(i, j int) bool {
		if doc.Edges[i][0] != doc.Edges[j][0] {
			return doc.Edges[i][0] < doc.Edges[j][0]
		}
		return doc.Edges[i][1] < doc.Edges[j][1]
	})
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadEdgeList parses "src dst" lines into an EXP-mode graph. Blank and
// whitespace-only lines and '#' comment lines are skipped; any other line
// must hold exactly two integer fields (trailing junk is an error, not
// silently dropped).
func ReadEdgeList(r io.Reader) (*core.Graph, error) {
	g := core.New(core.EXP)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("serialize: line %d: want 2 fields \"src dst\", got %d", line, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serialize: line %d: src: %w", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serialize: line %d: dst: %w", line, err)
		}
		ui := g.AddRealNode(u)
		vi := g.AddRealNode(v)
		g.AddDirectEdgeIdx(ui, vi)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
