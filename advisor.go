package graphgen

// This file implements the representation-choice guidance of Section 6.5 as
// an executable advisor: "the system ... suggest[s] that the graph be
// expanded if the memory increase is not substantial, e.g., less than 20%.
// If expanding the graph is not an option, then the system needs to choose
// between C-DUP, BITMAP-2, DEDUP-1, DEDUP-2 ... the choice comes down to
// the use-case."

// Workload describes how an extracted graph will be used, mirroring the
// use cases Section 6.5 distinguishes.
type Workload int

// Workload kinds.
const (
	// WorkloadPointQueries: algorithms that touch a small portion of the
	// graph (e.g. BFS from a few sources, neighborhood lookups).
	WorkloadPointQueries Workload = iota
	// WorkloadFullScans: complex algorithms making multiple passes over
	// the whole graph (e.g. PageRank).
	WorkloadFullScans
	// WorkloadRepeatedAnalysis: many algorithms run over a period of
	// time, amortizing a one-time deduplication cost.
	WorkloadRepeatedAnalysis
)

func (w Workload) String() string {
	switch w {
	case WorkloadPointQueries:
		return "point-queries"
	case WorkloadFullScans:
		return "full-scans"
	case WorkloadRepeatedAnalysis:
		return "repeated-analysis"
	default:
		return "unknown"
	}
}

// Advice is the advisor's recommendation.
type Advice struct {
	Representation Representation
	// Reason is a human-readable justification.
	Reason string
	// ExpansionRatio is expanded edges / representation edges, computed
	// as a free side effect (the paper obtains it from deduplication).
	ExpansionRatio float64
}

// AdviseOptions tunes Advise.
type AdviseOptions struct {
	// ExpandThreshold is the maximum expansion ratio at which full
	// expansion is recommended (the paper suggests 1.2).
	ExpandThreshold float64
	// Workload describes the intended use.
	Workload Workload
}

// Advise recommends an in-memory representation for the graph following
// Section 6.5's decision procedure: expand when cheap; otherwise C-DUP for
// point queries, BITMAP for repeated full scans, and DEDUP-1 (or DEDUP-2
// when the graph class allows and it is smaller) when the one-time
// deduplication cost will be amortized across many analyses.
func (g *Graph) Advise(opts AdviseOptions) Advice {
	threshold := opts.ExpandThreshold
	if threshold <= 0 {
		threshold = 1.2
	}
	rep := g.RepEdges()
	exp := g.LogicalEdges()
	ratio := 0.0
	if rep > 0 {
		ratio = float64(exp) / float64(rep)
	}
	if g.NumVirtualNodes() == 0 {
		return Advice{Representation: EXP, Reason: "graph is already expanded", ExpansionRatio: 1}
	}
	if ratio > 0 && ratio <= threshold {
		return Advice{
			Representation: EXP,
			ExpansionRatio: ratio,
			Reason:         "expansion grows the graph only marginally; EXP iterates fastest",
		}
	}
	switch opts.Workload {
	case WorkloadPointQueries:
		return Advice{
			Representation: CDUP,
			ExpansionRatio: ratio,
			Reason:         "point queries touch little of the graph; C-DUP needs no preprocessing and deduplicates on the fly against a pooled mark set, with no allocation per call",
		}
	case WorkloadRepeatedAnalysis:
		// Prefer DEDUP-2 when the conversion is possible and smaller.
		if d2, err := g.As(DEDUP2); err == nil {
			if d1, err := g.As(DEDUP1); err == nil && d2.RepEdges() < d1.RepEdges() {
				return Advice{
					Representation: DEDUP2,
					ExpansionRatio: ratio,
					Reason:         "repeated analyses amortize deduplication; DEDUP-2 is smaller than DEDUP-1 on this graph's clique structure",
				}
			}
		}
		return Advice{
			Representation: DEDUP1,
			ExpansionRatio: ratio,
			Reason:         "repeated analyses amortize the one-time deduplication; DEDUP-1 iterates with no visited set and no masks, in either direction, and serializes portably",
		}
	default: // WorkloadFullScans
		return Advice{
			Representation: BITMAP,
			ExpansionRatio: ratio,
			Reason:         "multi-pass whole-graph algorithms favor BITMAP-2: cheap preprocessing, out-neighbor scans need no visited set (in-neighbor scans use the same pooled mark set as C-DUP)",
		}
	}
}
