package main

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"graphgen"
	"graphgen/internal/datagen"
)

// degreeFingerprint hashes every (vertex, out-degree) pair in ascending
// vertex order, so two graphs with the same logical adjacency sizes agree
// whatever their representation.
func degreeFingerprint(g *graphgen.Graph) uint64 {
	deg := g.Degrees()
	ids := make([]graphgen.NodeID, 0, len(deg))
	for id := range deg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	var buf [16]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], uint64(deg[id]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// closureOracle computes, straight from the base tables and without the
// Datalog engine, what recursiveProgram(tag) must extract: the number of
// active persons (fans of the tag who do not follow the muted tag) and
// the number of pairs A < B connected by a knows path through active
// persons, which is the sum over components of size*(size-1)/2.
func closureOracle(db *graphgen.DB, tag int) (vertices int, pairs int64, err error) {
	interest, err := db.Table("HasInterest")
	if err != nil {
		return 0, 0, err
	}
	knows, err := db.Table("Knows")
	if err != nil {
		return 0, 0, err
	}
	person, err := db.Table("Person")
	if err != nil {
		return 0, 0, err
	}
	fanTag, muted := datagen.TagName(tag), datagen.TagName(mutedTag(tag))
	fans, mutes := map[int64]bool{}, map[int64]bool{}
	for _, row := range interest.Rows {
		switch row[1].S {
		case fanTag:
			fans[row[0].I] = true
		case muted:
			mutes[row[0].I] = true
		}
	}
	active := map[int64]bool{}
	for _, row := range person.Rows {
		if id := row[0].I; fans[id] && !mutes[id] {
			active[id] = true
		}
	}
	adj := map[int64][]int64{}
	for _, row := range knows.Rows {
		a, b := row[0].I, row[1].I
		if active[a] && active[b] {
			adj[a] = append(adj[a], b)
		}
	}
	seen := map[int64]bool{}
	for start := range active {
		if seen[start] {
			continue
		}
		seen[start] = true
		size := int64(0)
		for queue := []int64{start}; len(queue) > 0; queue = queue[1:] {
			size++
			for _, next := range adj[queue[0]] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		pairs += size * (size - 1) / 2
	}
	return len(active), pairs, nil
}
