package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one named number as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: what the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment records where a report was produced.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"window_seconds"`
	Traced     bool   `json:"traced"`
	Clients    int    `json:"serving_clients"`
}

func currentEnvironment(cfg config) environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		Clients:    cfg.clients,
	}
}

// commit asks git for the checked-out revision; a checkout that is not a
// repository (the driver's) reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				return strings.TrimSpace(value)
			}
		}
	}
	return runtime.GOARCH
}

// workloadReport is everything one run of one workload measured.
type workloadReport struct {
	Name    string      `json:"name"`
	Why     string      `json:"why"`
	Class   string      `json:"op_ms_class"`
	Dataset datasetInfo `json:"dataset"`
	Clients int         `json:"clients"`
	// SetupRuns are the individual set-up times; setup_s is their median.
	SetupRuns []float64 `json:"setup_runs_s"`
	WindowS   float64   `json:"window_s"`
	Attempted int       `json:"ops_attempted"`
	Succeeded int       `json:"ops_succeeded"`
	Failed    int       `json:"ops_failed"`
	// OracleChecked and OracleMismatched count the output comparisons
	// made outside the window.
	OracleChecked    int `json:"oracle_checked"`
	OracleMismatched int `json:"oracle_mismatched"`
	// FailedShare is (failed ops + oracle mismatches) / attempted.
	FailedShare float64 `json:"failed_share"`
	// Latency holds op_ms, or read_ms / mutate_ms / analyze_ms, with
	// their tails; a class absent from the workload is absent here.
	Latency  map[string]latency     `json:"latency,omitempty"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Detail   []detailMetric         `json:"per_layer_detail,omitempty"`
	Trace    *traceSummary          `json:"trace,omitempty"`
	// TraceFile is where the raw spans of the traced pass were written.
	TraceFile string `json:"trace_file,omitempty"`
}

func (w *workloadReport) correct() bool { return w.OracleMismatched == 0 }

// result condenses the report into the driver's line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (w *workloadReport) result() result {
	metrics := w.EndToEnd
	if w.PerLayer != nil {
		metrics = w.PerLayer
	}
	return result{
		Correct:   w.correct(),
		Attempted: w.Attempted + w.OracleChecked,
		Failed:    w.Failed + w.OracleMismatched,
		Metrics:   metrics,
	}
}

// report is the JSON document written under the output directory.
type report struct {
	Environment environment      `json:"environment"`
	Workloads   []workloadReport `json:"workloads"`
}

func (r *report) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// print writes the human-readable tables: every metric by name and unit.
func (w *workloadReport) print(out io.Writer) {
	d := w.Dataset
	fmt.Fprintf(out, "\n== %s ==\n", w.Name)
	fmt.Fprintf(out, "  why: %s\n", w.Why)
	fmt.Fprintf(out, "  dataset: %s, %d rows in %d tables, %d vertices, %d logical / %d stored edges\n",
		d.Generator, totalRows(d.Rows), len(d.Rows), d.Vertices, d.LogicalEdges, d.StoredEdges)
	fmt.Fprintf(out, "  clients %d, window %.2f s, ops attempted %d, succeeded %d, failed %d; oracle checked %d, mismatched %d\n",
		w.Clients, w.WindowS, w.Attempted, w.Succeeded, w.Failed, w.OracleChecked, w.OracleMismatched)
	fmt.Fprintf(out, "  %-34s %16.6g %s\n", "failed_share", w.FailedShare, "ratio")
	for _, class := range sortedKeys(w.Latency) {
		l := w.Latency[class]
		line := fmt.Sprintf("  %-34s %16.6g ms     n=%d  min=%.6g ms", class+"_ms", l.Median, l.N, l.Min)
		if l.TailP > 0 {
			line += fmt.Sprintf("  p%g=%.6g ms", l.TailP, l.Tail)
		}
		fmt.Fprintln(out, line)
	}
	for _, m := range endToEnd {
		if v, ok := w.EndToEnd[m.Name]; ok {
			fmt.Fprintf(out, "  %-34s %16.6g %-6s (gated, bound %g%%)\n", m.Name, v.Value, v.Unit, m.Bound*100)
		}
	}
	if w.PerLayer == nil {
		return
	}
	fmt.Fprintf(out, "  -- traced pass: %d ops, whole op %.6g ms, spans in %s\n", w.Trace.Ops, w.Trace.WholeOpMS, w.TraceFile)
	for _, m := range perLayer() {
		v := w.PerLayer[m.Name]
		share := ""
		if m.Unit == "ms" && w.Trace.WholeOpMS > 0 {
			share = fmt.Sprintf("(%5.1f%% of whole op)", 100*v.Value/w.Trace.WholeOpMS)
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s %s\n", m.Name, v.Value, v.Unit, share)
	}
	fmt.Fprintf(out, "  -- self time per op by span\n")
	for _, name := range sortedKeys(w.Trace.SpanSelfMS) {
		fmt.Fprintf(out, "  %-34s %16.6g ms\n", name, w.Trace.SpanSelfMS[name])
	}
	fmt.Fprintf(out, "  -- per-layer detail (layer, metric)\n")
	for _, m := range w.Detail {
		layer, metric, _ := strings.Cut(m.Name, ".")
		fmt.Fprintf(out, "  %-12s %-34s %16.6g %s\n", layer, metric, m.Value, m.Unit)
	}
}

func totalRows(rows map[string]int) int {
	n := 0
	for _, c := range rows {
		n += c
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
