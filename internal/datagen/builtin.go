package datagen

import (
	"fmt"
	"strings"

	"graphgen/internal/relstore"
)

// BuiltinDatasets names the built-in generated databases, in the order
// they are documented, for use in flag-validation messages.
var BuiltinDatasets = []string{"dblp", "imdb", "tpch", "univ", "snb"}

// ByName returns a seeded built-in dataset at its canonical CI-scale
// cardinalities together with the dataset's canonical extraction query.
// It is the single source of truth for cmd/graphgen and cmd/graphgend.
func ByName(name string, seed int64) (*relstore.DB, string, error) {
	switch strings.ToLower(name) {
	case "dblp":
		return DBLPLike(seed, 2000, 1600), QueryCoauthors, nil
	case "imdb":
		return IMDBLike(seed, 1200, 200), QueryCoactors, nil
	case "tpch":
		return TPCHLike(seed, 250, 1500, 30, 3), QuerySamePart, nil
	case "univ":
		return UnivLike(seed, 600, 20, 40, 4), QuerySameCourse, nil
	case "snb":
		// CI-scale social network (SF 0.1 ≈ 1k persons): the dataset
		// `graphgend -dataset snb` serves to cmd/graphload.
		return SNB(SNBConfig{Seed: seed, ScaleFactor: 0.1}), QueryKnows, nil
	default:
		return nil, "", fmt.Errorf("unknown dataset %q (valid: %s)", name, strings.Join(BuiltinDatasets, ", "))
	}
}
