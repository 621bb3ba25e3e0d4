// Clean key handling: the relstore.AppendRowKey length-prefixed encoding,
// or keys not derived from Value data at all.
package fixture

import (
	"fmt"

	"graphgen/internal/relstore"
)

// appendRowKey is the sanctioned encoding.
func appendRowKey(rows [][]relstore.Value, cols []int) int {
	seen := map[string]bool{}
	n := 0
	var key []byte
	for _, row := range rows {
		key = relstore.AppendRowKey(key[:0], row, cols)
		if !seen[string(key)] {
			seen[string(key)] = true
			n++
		}
	}
	return n
}

// singleField uses one scalar component directly — nothing composite, so
// nothing to collide.
func singleField(v relstore.Value, set map[string]bool) bool {
	return set[v.S]
}

// plainStrings composes keys from data unrelated to Values.
func plainStrings(names []string) map[string]int {
	out := map[string]int{}
	for _, n := range names {
		out[fmt.Sprintf("col:%s", n)]++
	}
	return out
}
