// Command bench is the repository's committed benchmark: eight workloads
// over the public graphgen surface and the /v1 routes, five gated
// end-to-end metrics, and a traced pass that attributes each operation's
// time to the layers below it. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md explains them.
//
//	go run -C bench . -workload extract-condensed -seed 1 -seconds 8 -trace 0
//
// Without -workload it runs every workload in turn. The last line of
// standard output for each workload is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupRuns is how often a workload is set up per run; setup_s is the
// median, which a single slow generation cannot move.
const setupRuns = 5

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	clients    int
	outDir     string
	checkNoise bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.checkNoise {
		return checkNoise(cfg, stdout, stderr)
	}
	rep, err := runAll(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, w := range rep.Workloads {
		if !w.correct() {
			fmt.Fprintf(stderr, "bench: %s: %d of %d oracle checks failed\n", w.Name, w.OracleMismatched, w.OracleChecked)
			return 1
		}
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, in order)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 8, "length of the measured window per workload")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.IntVar(&cfg.clients, "clients", min(runtime.NumCPU(), 2), "closed-loop clients of the serving workloads")
	fs.StringVar(&cfg.outDir, "out", "out", "directory for the JSON report and trace files")
	fs.BoolVar(&cfg.checkNoise, "check-noise", false, "run the untraced pass twice and compare every gated metric against its bound")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	case cfg.clients < 1:
		return cfg, fmt.Errorf("-clients must be at least 1, got %d", cfg.clients)
	case cfg.clients > runtime.NumCPU():
		// Load generation shares the machine with the server; more
		// clients than processors would measure the scheduler.
		return cfg, fmt.Errorf("-clients %d exceeds the %d processors available", cfg.clients, runtime.NumCPU())
	}
	if cfg.workload != "" {
		if _, ok := findWorkload(cfg.workload); !ok {
			return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
		}
	}
	return cfg, nil
}

// runAll runs the selected workloads, prints their tables and result
// lines, and writes the JSON report.
func runAll(cfg config, stdout io.Writer) (*report, error) {
	p := params{seed: cfg.seed, clients: cfg.clients, size: benchSizes}
	length := time.Duration(cfg.seconds) * time.Second
	rep := &report{Environment: currentEnvironment(cfg)}
	fmt.Fprintf(stdout, "bench: commit %s, %s, GOMAXPROCS %d, nproc %d, %s, seed %d, window %d s, traced %v\n",
		rep.Environment.Commit, rep.Environment.GoVersion, rep.Environment.GOMAXPROCS,
		rep.Environment.NProc, rep.Environment.CPU, cfg.seed, cfg.seconds, cfg.trace)
	for _, w := range workloads {
		if cfg.workload != "" && w.Name != cfg.workload {
			continue
		}
		wr, err := runWorkload(w, p, length, cfg.trace, cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Workloads = append(rep.Workloads, *wr)
		name := "report.json"
		if cfg.workload != "" {
			name = "report-" + cfg.workload + ".json"
		}
		if err := rep.write(cfg.outDir, name); err != nil {
			return nil, err
		}
		wr.print(stdout)
		line, err := json.Marshal(wr.result())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return rep, nil
}

// runWorkload sets the workload up over fresh databases, measures one
// window (or one traced pass) of the given length, and checks outputs
// against the oracle.
func runWorkload(spec workloadSpec, p params, length time.Duration, trace bool, outDir string) (*workloadReport, error) {
	wr := &workloadReport{Name: spec.Name, Why: spec.Why, Class: spec.Class}
	// Set-up is timed setupRuns times over the same seed; the traced
	// pass reports no set-up time and sets up once.
	runs := setupRuns
	if trace {
		runs = 1
	}
	var r runner
	for i := 0; i < runs; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = spec.setup(p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wr.SetupRuns = append(wr.SetupRuns, time.Since(start).Seconds())
	}
	defer r.close()
	wr.Clients = r.clients()

	var err error
	if trace {
		err = tracedPass(wr, r, spec, length, outDir)
	} else {
		err = endToEndPass(wr, spec, r.measure(length))
	}
	if err != nil {
		return nil, err
	}
	if wr.OracleChecked, wr.OracleMismatched, err = r.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	wr.Dataset = r.dataset()
	wr.FailedShare = float64(wr.Failed+wr.OracleMismatched) / float64(wr.Attempted+wr.OracleChecked)
	return wr, nil
}

// count records a window's op counts on the report.
func (w *workloadReport) count(win *window) {
	w.WindowS = win.Elapsed.Seconds()
	w.Attempted, w.Succeeded, w.Failed = win.Attempted, win.succeeded(), win.Failed
	w.Latency = map[string]latency{}
	for class := range win.Samples {
		w.Latency[class] = win.latency(class)
	}
}

func endToEndPass(wr *workloadReport, spec workloadSpec, win *window) error {
	wr.count(win)
	// The runner still references its database and the last op's
	// result, so this is the footprint a user holds after one op.
	heap := liveHeapMB()
	lat, ok := wr.Latency[spec.Class]
	if !ok || win.succeeded() == 0 {
		return fmt.Errorf("no successful %s op in the window (%d attempted, %d failed)", spec.Class, win.Attempted, win.Failed)
	}
	ops := float64(win.succeeded())
	wr.EndToEnd = map[string]metricValue{
		"setup_s":         {median(wr.SetupRuns), "s"},
		"op_ms":           {lat.Median, "ms"},
		"ops_per_s":       {ops / win.Elapsed.Seconds(), "1/s"},
		"alloc_mb_per_op": {float64(win.AllocBytes) / (1 << 20) / ops, "MB"},
		"live_heap_mb":    {heap, "MB"},
	}
	return nil
}

func tracedPass(wr *workloadReport, r runner, spec workloadSpec, length time.Duration, outDir string) error {
	rec := newRecorder()
	res, err := r.traced(length, rec)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	sum := summarizeTrace(rec.spans)
	wr.count(res.Untraced)
	wr.Trace, wr.Detail = &sum, res.Detail
	wr.PerLayer = map[string]metricValue{}
	for _, l := range layers {
		wr.PerLayer[l+"_self_ms"] = metricValue{sum.LayerSelfMS[l], "ms"}
	}
	wr.PerLayer["unaccounted_pct"] = metricValue{sum.UnaccountedPct, "%"}
	// Overhead compares the whole-op span of the op_ms class with the
	// same class untraced; the probes run outside that span.
	untraced := res.Untraced.latency(spec.Class).Median
	traced := res.Traced.latency(spec.Class).Median
	if untraced == 0 || traced == 0 {
		return fmt.Errorf("traced pass saw no %s op", spec.Class)
	}
	wr.PerLayer["trace_overhead_pct"] = metricValue{100 * (traced - untraced) / untraced, "%"}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	wr.TraceFile = outDir + "/trace-" + spec.Name + ".json"
	return rec.write(wr.TraceFile)
}
