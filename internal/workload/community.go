package workload

import (
	"fmt"
	"sort"

	"graphgen"
	"graphgen/internal/datalog"
)

// Interest-community extraction — the contest query that exercises the
// whole stack: a Datalog program (evaluated semi-naively through
// Engine.ExtractProgram) restricts the knows graph to the fans of one
// interest tag, and the communities are the connected components of the
// extracted graph.

// InterestCommunityProgram renders the Datalog program that extracts the
// tag-restricted knows graph over the SNB schema (Person, Knows,
// HasInterest). The tag is embedded as a quoted string constant.
func InterestCommunityProgram(tag string) string {
	return fmt.Sprintf(`
Fan(P) :- HasInterest(P, %s).
FanProfile(P, N) :- Person(P, N, C), Fan(P).
FanKnows(A, B) :- Knows(A, B), Fan(A), Fan(B).
Nodes(P, N) :- FanProfile(P, N).
Edges(A, B) :- FanKnows(A, B).
`, datalog.Quote(tag))
}

// CommunityResult describes the communities of one interest tag.
type CommunityResult struct {
	Tag string
	// Members counts persons with the interest (the extracted vertices).
	Members int
	// Communities counts connected components among them.
	Communities int
	// LargestSize is the member count of the largest community.
	LargestSize int
	// Partition groups member IDs into communities: each inner slice is
	// sorted ascending, and the slices are sorted by their first member.
	Partition [][]int64
}

// InterestCommunities extracts the tag-restricted knows graph through the
// Datalog program engine and labels its connected components.
func InterestCommunities(e *graphgen.Engine, tag string, opts ...graphgen.Option) (*CommunityResult, error) {
	g, err := e.ExtractProgram(InterestCommunityProgram(tag), opts...)
	if err != nil {
		return nil, err
	}
	labels, n := g.ConnectedComponents()
	res := &CommunityResult{Tag: tag, Members: g.NumVertices(), Communities: n}
	res.Partition = partitionFromLabels(labels)
	for _, members := range res.Partition {
		if len(members) > res.LargestSize {
			res.LargestSize = len(members)
		}
	}
	return res, nil
}

// partitionFromLabels converts a vertex->label map into the canonical
// partition form (sorted members, groups ordered by first member), so two
// labelings of the same partition compare equal regardless of label
// values.
func partitionFromLabels[L comparable](labels map[int64]L) [][]int64 {
	groups := make(map[L][]int64)
	for id, l := range labels {
		groups[l] = append(groups[l], id)
	}
	out := make([][]int64, 0, len(groups))
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
