package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"graphgen"
)

// tinySizes keep the whole suite within a few seconds; nothing here
// asserts a time.
var tinySizes = sizes{
	condensedActors: 300, condensedMovies: 50,
	tpch:        [4]int{20, 60, 6, 2},
	dedupActors: 200, dedupMovies: 35,
	snbScaleFactor: 0.02,
}

func tinyParams(seed int64) params { return params{seed: seed, clients: 1, size: tinySizes} }

// benchmarkJSON mirrors the file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func asJSONMetrics(specs []metricSpec) []jsonMetric {
	out := make([]jsonMetric, len(specs))
	for i, m := range specs {
		out[i] = jsonMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	return out
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if got, want := b.EndToEnd, asJSONMetrics(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, spec.go %+v", got, want)
	}
	if got, want := b.PerLayer, asJSONMetrics(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json %+v, spec.go %+v", got, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", b.RunSeconds)
	}
}

// fingerprint hashes every row of every table in name order.
func fingerprint(db *graphgen.DB) uint64 {
	h := fnv.New64a()
	for _, name := range db.TableNames() {
		table, err := db.Table(name)
		if err != nil {
			continue
		}
		h.Write([]byte(name))
		for _, row := range table.Rows {
			for _, v := range row {
				h.Write([]byte(v.String()))
				h.Write([]byte{0})
			}
		}
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		var prints [3]uint64
		for i, seed := range []int64{7, 7, 8} {
			r, err := w.setup(tinyParams(seed))
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			switch r := r.(type) {
			case *batchRunner:
				prints[i] = fingerprint(r.db)
			case *serveRunner:
				prints[i] = fingerprint(r.stack.db)
			}
			r.close()
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: seed 7 generated two different datasets", w.Name)
		}
		if prints[0] == prints[2] {
			t.Errorf("%s: seeds 7 and 8 generated the same dataset", w.Name)
		}
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	take := func(seed int64, client int) []op {
		s := newOpStream(seed, client, 500, defaultMix)
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = s.next()
		}
		return ops
	}
	a, b := take(3, 0), take(3, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client produced different op sequences")
	}
	if reflect.DeepEqual(a, take(3, 1)) {
		t.Error("clients 0 and 1 share an op sequence")
	}
	if reflect.DeepEqual(a, take(4, 0)) {
		t.Error("seeds 3 and 4 share an op sequence")
	}
	// Inserts and deletes pair up, so the table keeps its size.
	balance := 0
	classes := map[string]int{}
	for _, o := range a {
		classes[o.Class]++
		if o.Class == classMutate {
			if o.Insert {
				balance++
			} else {
				balance--
			}
			if balance < 0 || balance > 1 {
				t.Fatalf("mutations not paired: balance %d", balance)
			}
		}
	}
	for _, class := range []string{classRead, classMutate, classAnalyze} {
		if classes[class] == 0 {
			t.Errorf("default mix produced no %s op in 2000", class)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}, {75, 8},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{4}, 99.9); got != 4 {
		t.Errorf("percentile of one sample = %g, want 4", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i)
	}
	l := summarize(samples)
	if l.N != 100 || l.Median != 50 || l.TailP != 90 || l.Tail != 90 {
		t.Errorf("summarize(100..1) = %+v", l)
	}
}

func TestWindowLatencyAveragesVariantMedians(t *testing.T) {
	w := newWindow()
	for _, v := range []float64{1, 2, 3} {
		w.add(classOp, 0, v)
	}
	for _, v := range []float64{100, 200, 300} {
		w.add(classOp, 1, v)
	}
	if got := w.latency(classOp); got.Median != 101 || got.N != 6 {
		t.Errorf("latency = %+v, want median 101 (mean of 2 and 200) over 6 samples", got)
	}
	if got := w.latency(classRead); got.N != 0 || got.Median != 0 {
		t.Errorf("absent class = %+v, want zero", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "extract.wire", Start: 5, End: 95},
		// Probes replay after the parent has ended.
		{ID: 3, Parent: 2, Op: 1, Name: "relstore.pipeline", Start: 100, End: 140},
		{ID: 4, Parent: 2, Op: 1, Name: "extract.plan", Start: 140, End: 150},
		{ID: 5, Parent: 3, Op: 1, Name: "core.neighbors", Start: 150, End: 155},
		// A second op with no children at all.
		{ID: 6, Op: 2, Name: "op.op", Start: 200, End: 260},
	}
	want := map[int]int64{1: 10, 2: 40, 3: 35, 4: 10, 5: 5, 6: 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sum := summarizeTrace(spans)
	if sum.Ops != 2 {
		t.Fatalf("ops = %d, want 2", sum.Ops)
	}
	// Self times of all layers, the uncovered "op" share included, add
	// up to the whole-op time.
	total := 0.0
	for _, v := range sum.LayerSelfMS {
		total += v
	}
	if diff := total - sum.WholeOpMS; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("layer self times sum to %g ms, whole op is %g ms", total, sum.WholeOpMS)
	}
	if want := 100 * 70.0 / 160.0; sum.UnaccountedPct != want {
		t.Errorf("unaccounted = %g%%, want %g%%", sum.UnaccountedPct, want)
	}
	if got := sum.LayerSelfMS["extract"] * 2 * 1e6; got != 50 {
		t.Errorf("extract self = %g ns over both ops, want 50", got)
	}
	if got := summarizeTrace(nil); got.Ops != 0 || got.WholeOpMS != 0 {
		t.Errorf("empty trace = %+v", got)
	}
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, m := range specs {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestRunReportsExactlyTheNamedMetrics runs every workload untraced and
// three of them traced, at tiny sizes, and checks the result line and the
// JSON report.
func TestRunReportsExactlyTheNamedMetrics(t *testing.T) {
	traced := map[string]bool{"extract-condensed": true, "program-recursive": true, "serve-mixed": true}
	rep := report{Environment: currentEnvironment(config{seed: 5, seconds: 1, clients: 1})}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && !traced[w.Name] {
				continue
			}
			wr, err := runWorkload(w, tinyParams(5), 60*time.Millisecond, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			res := wr.result()
			want := names(endToEnd)
			if trace {
				want = names(perLayer())
			}
			if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): metrics %v, want %v", w.Name, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): result %+v", w.Name, trace, res)
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %g, end-to-end metrics are never 0", w.Name, name, m.Value)
					}
				}
			}
			if wr.Dataset.Vertices == 0 || len(wr.Dataset.Rows) == 0 {
				t.Errorf("%s: dataset sizes missing: %+v", w.Name, wr.Dataset)
			}
			rep.Workloads = append(rep.Workloads, *wr)
		}
	}
	dir := t.TempDir()
	if err := rep.write(dir, "report.json"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(&back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), data) {
		t.Error("report JSON does not round-trip")
	}
	if back.Environment.GoVersion == "" || back.Environment.NProc == 0 || back.Environment.CPU == "" {
		t.Errorf("environment incomplete: %+v", back.Environment)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-clients", "0"}, {"-clients", "100000"}, {"extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2 (stderr %q)", args, code, errb.String())
		}
	}
	cfg, err := parseFlags([]string{"--workload", "serve-read", "--seed", "9", "--seconds", "3", "--trace", "1"}, os.Stderr)
	if err != nil || cfg.workload != "serve-read" || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("driver-style flags parsed to %+v, %v", cfg, err)
	}
}
