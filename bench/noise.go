package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
)

// noisePasses is how many untraced passes each of the two compared sets
// has. One pass per set would compare single runs, and on a shared
// machine whose speed drifts for minutes at a time two single runs of the
// same code can differ by more than any useful bound.
const noisePasses = 3

// checkNoise runs two sets of untraced passes of the same code and seed,
// alternating between the sets so that a slow spell of the machine falls
// on both, and compares the sets' medians: every gated metric must agree
// within its own bound, every exact count must repeat, and nothing may
// fail. It is the evidence that a later change's movement is not noise.
func checkNoise(cfg config, stdout, stderr io.Writer) int {
	cfg.trace = false
	var sets [2][]*report
	for pass := 0; pass < noisePasses; pass++ {
		for set := range sets {
			fmt.Fprintf(stdout, "\n#### check-noise: set %d, pass %d of %d ####\n", set+1, pass+1, noisePasses)
			rep, err := runAll(cfg, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			sets[set] = append(sets[set], rep)
		}
	}
	return compareSets(sets[0], sets[1], stdout)
}

// setMedian is the median of one metric of one workload over a set.
func setMedian(set []*report, workload int, metric string) float64 {
	values := make([]float64, len(set))
	for i, rep := range set {
		values[i] = rep.Workloads[workload].EndToEnd[metric].Value
	}
	return median(values)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareSets(first, second []*report, out io.Writer) int {
	bad := 0
	fmt.Fprintf(out, "\n== check-noise: medians of two alternating sets of %d untraced passes of the same code ==\n", noisePasses)
	fmt.Fprintf(out, "%-22s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	all := slices.Concat(first, second)
	for i, a := range first[0].Workloads {
		for _, m := range endToEnd {
			x, y := setMedian(first, i, m.Name), setMedian(second, i, m.Name)
			// Either run may be the noisy one, so the difference is
			// taken in both directions.
			diff := math.Max(worsening(m, x, y), worsening(m, y, x))
			verdict := ""
			if diff > m.Bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(out, "%-22s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", a.Name, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
		for _, rep := range all[1:] {
			if b := rep.Workloads[i]; !reflect.DeepEqual(a.Dataset, b.Dataset) || a.OracleChecked != b.OracleChecked {
				fmt.Fprintf(out, "%-22s exact counts differ: %+v (%d checks) then %+v (%d checks)\n",
					a.Name, a.Dataset, a.OracleChecked, b.Dataset, b.OracleChecked)
				bad++
			}
		}
		for _, rep := range all {
			if w := rep.Workloads[i]; w.FailedShare != 0 {
				fmt.Fprintf(out, "%-22s failed_share %g, want 0\n", w.Name, w.FailedShare)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "check-noise: %d problems\n", bad)
		return 1
	}
	fmt.Fprintln(out, "check-noise: every gated metric within its bound, exact counts equal, nothing failed")
	return 0
}
