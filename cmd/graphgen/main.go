// Command graphgen runs a graph-extraction query against one of the built-in
// generated databases (or demonstrates the planner with -validate), prints
// extraction statistics, optionally converts the representation, runs an
// analysis, and serializes the result.
//
// Usage examples:
//
//	graphgen -dataset dblp -query-file coauthors.dl -analyze pagerank
//	graphgen -dataset dblp -program reach.dl -analyze components
//	graphgen -dataset tpch -rep bitmap -out graph.el
//	graphgen -validate 'Nodes(A):-R(A). Edges(A,B):-R(A,X),R(B,X).'
//
// Exit codes: 0 on success, 1 on runtime failure (I/O, extraction,
// serialization), 2 on usage errors (unknown flags or invalid flag
// values — the error lists the valid options).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"graphgen"
	"graphgen/internal/datagen"
	"graphgen/internal/workload"
)

// Valid flag-value sets, shared by dispatch and error messages.
var (
	validReps     = []string{"cdup", "exp", "dedup1", "dedup2", "bitmap"}
	validAnalyses = []string{"degree", "bfs", "pagerank", "components", "triangles", "sssp", "closeness"}
)

// usageError marks a flag-validation failure: run exits 2 instead of 1.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed, validated flag set — the flag-to-pipeline
// dispatch input, separated from flag.Parse so tests can drive it.
type config struct {
	dataset     string
	queryFile   string
	programFile string
	rep         graphgen.Representation
	analyze     string
	out         string
	outJSON     string
	validate    string
	seed        int64
	suggest     bool
	csvTables   string
	workers     int
	noIndex     bool
	explain     bool
}

// errParseReported marks a flag.Parse failure: the FlagSet has already
// printed the error and usage to stderr, so run must not print it again.
var errParseReported = errors.New("flag parse error (already reported)")

// run parses and validates flags, then dispatches the pipeline. It is
// the testable entry point behind main.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		if !errors.Is(err, errParseReported) {
			fmt.Fprintln(stderr, "graphgen:", err)
		}
		return 2
	}
	if err := dispatch(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "graphgen:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	return 0
}

// parseFlags parses the command line and validates every enumerated flag
// value, so bad invocations fail before any dataset is generated.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataset := fs.String("dataset", "dblp", "built-in dataset: "+strings.Join(datagen.BuiltinDatasets, ", "))
	queryFile := fs.String("query-file", "", "file containing the extraction query (default: the dataset's canonical query)")
	programFile := fs.String("program", "", "file containing a multi-rule Datalog program (recursion, negation, comparisons); mutually exclusive with -query-file")
	rep := fs.String("rep", "cdup", "target representation: "+strings.Join(validReps, ", "))
	analyze := fs.String("analyze", "", "analysis to run: "+strings.Join(validAnalyses, ", "))
	out := fs.String("out", "", "write the expanded edge list to this file")
	outJSON := fs.String("out-json", "", "write the graph as JSON to this file")
	validate := fs.String("validate", "", "parse and classify a query (Case 1 vs Case 2) and exit")
	seed := fs.Int64("seed", 1, "dataset generator seed")
	suggestFlag := fs.Bool("suggest", false, "propose candidate extraction queries for the dataset's schema and exit")
	csvTables := fs.String("csv", "", "comma-separated name=path.csv pairs loaded into a fresh database instead of -dataset")
	workers := fs.Int("workers", 0, "worker-pool parallelism for Step-6 preprocessing (0 = GOMAXPROCS)")
	noIndex := fs.Bool("no-index", false, "disable automatic secondary hash indexes on join/predicate columns (indexes are on by default)")
	explain := fs.Bool("explain", false, "trace the extraction and print its execution profile as JSON (operator tree, access-path choices, rows, wall time)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return config{}, err
		}
		return config{}, fmt.Errorf("%w: %v", errParseReported, err)
	}
	cfg := config{
		dataset:     *dataset,
		queryFile:   *queryFile,
		programFile: *programFile,
		analyze:     *analyze,
		out:         *out,
		outJSON:     *outJSON,
		validate:    *validate,
		seed:        *seed,
		suggest:     *suggestFlag,
		csvTables:   *csvTables,
		workers:     *workers,
		noIndex:     *noIndex,
		explain:     *explain,
	}
	var err error
	if cfg.rep, err = parseRep(*rep); err != nil {
		return config{}, err
	}
	if cfg.programFile != "" && cfg.queryFile != "" {
		return config{}, usagef("-program and -query-file are mutually exclusive (pass one of them)")
	}
	if cfg.analyze != "" && !slices.Contains(validAnalyses, strings.ToLower(cfg.analyze)) {
		return config{}, usagef("unknown -analyze %q (valid: %s)", cfg.analyze, strings.Join(validAnalyses, ", "))
	}
	cfg.analyze = strings.ToLower(cfg.analyze)
	return cfg, nil
}

// dispatch routes a validated config through the pipeline: validate-only
// and suggest-only modes short-circuit; otherwise extract, convert,
// analyze, serialize.
func dispatch(cfg config, stdout io.Writer) error {
	if cfg.validate != "" {
		cases, err := graphgen.Validate(cfg.validate)
		if err != nil {
			return err
		}
		for i, ok := range cases {
			kind := "Case 2 (full expansion)"
			if ok {
				kind = "Case 1 (condensable chain)"
			}
			fmt.Fprintf(stdout, "Edges rule %d: %s\n", i+1, kind)
		}
		return nil
	}

	db, query, err := loadDatabase(cfg)
	if err != nil {
		return err
	}
	if cfg.queryFile != "" {
		data, err := os.ReadFile(cfg.queryFile)
		if err != nil {
			return err
		}
		query = string(data)
	}

	if cfg.suggest {
		props, err := graphgen.Suggest(db)
		if err != nil {
			return err
		}
		if len(props) == 0 {
			fmt.Fprintln(stdout, "no graph proposals found for this schema")
			return nil
		}
		for i, p := range props {
			fmt.Fprintf(stdout, "#%d [%s] %s (est. %d edges)\n%s\n", i+1, p.Kind, p.Description, p.EstimatedEdges, indent(p.Query))
		}
		return nil
	}
	engine := graphgen.NewEngine(db, graphgen.WithParallelism(cfg.workers), graphgen.WithAutoIndex(!cfg.noIndex))
	var extractOpts []graphgen.Option
	if cfg.explain {
		extractOpts = append(extractOpts, graphgen.WithProfile())
	}
	var g *graphgen.Graph
	if cfg.programFile != "" {
		data, err := os.ReadFile(cfg.programFile)
		if err != nil {
			return err
		}
		if g, err = engine.ExtractProgram(string(data), extractOpts...); err != nil {
			return err
		}
		es, _ := g.ProgramStats()
		fmt.Fprintf(stdout, "program: %d strata, %d semi-naive iterations, %d derived tuples in %d temp tables\n",
			es.Strata, es.Iterations, es.DerivedTuples, es.TempTables)
	} else {
		if query == "" {
			return usagef("no query: pass -query-file, -program, or use a built-in -dataset")
		}
		if g, err = engine.Extract(query, extractOpts...); err != nil {
			return err
		}
	}
	if cfg.explain {
		if prof := g.Profile(); prof != nil {
			fmt.Fprintln(stdout, "execution profile:")
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(prof); err != nil {
				return err
			}
		}
	}
	st := g.ExtractionStats()
	fmt.Fprintf(stdout, "extracted %s graph: %d vertices, %d virtual nodes, %d representation edges\n",
		g.Representation(), g.NumVertices(), g.NumVirtualNodes(), g.RepEdges())
	fmt.Fprintf(stdout, "planner: %d large-output joins postponed, %d joins handed to the database, %d Case-2 rules\n",
		st.LargeOutputJoins, st.DatabaseJoins, st.Case2Rules)

	if cfg.rep != g.Representation() {
		conv, err := g.As(cfg.rep)
		if err != nil {
			return fmt.Errorf("converting to %v: %w", cfg.rep, err)
		}
		g = conv
		fmt.Fprintf(stdout, "converted to %s: %d representation edges, ~%.2f MB\n",
			g.Representation(), g.RepEdges(), float64(g.MemBytes())/(1<<20))
	}

	if err := runAnalysis(g, cfg.analyze, stdout); err != nil {
		return err
	}

	if cfg.out != "" {
		if err := writeFile(cfg.out, g.WriteEdgeList); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote edge list to %s\n", cfg.out)
	}
	if cfg.outJSON != "" {
		if err := writeFile(cfg.outJSON, g.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote JSON to %s\n", cfg.outJSON)
	}
	return nil
}

// loadDatabase builds the queried database: CSV tables when -csv is
// given, otherwise the named built-in dataset with its canonical query.
func loadDatabase(cfg config) (*graphgen.DB, string, error) {
	if cfg.csvTables == "" {
		db, query, err := datagen.ByName(cfg.dataset, cfg.seed)
		if err != nil {
			return nil, "", usageError{err}
		}
		return db, query, nil
	}
	db := graphgen.NewDB()
	if err := db.LoadCSVFiles(cfg.csvTables); err != nil {
		if errors.Is(err, graphgen.ErrCSVSpec) {
			return nil, "", usageError{err}
		}
		return nil, "", err
	}
	return db, "", nil
}

// runAnalysis executes the named analysis and prints its summary line.
// The name is validated at flag-parse time; "" is a no-op.
func runAnalysis(g *graphgen.Graph, analyze string, stdout io.Writer) error {
	switch analyze {
	case "":
		return nil
	case "degree":
		deg := g.Degrees()
		max, maxID := -1, int64(0)
		for id, d := range deg {
			if d > max {
				max, maxID = d, id
			}
		}
		fmt.Fprintf(stdout, "degree: max %d at vertex %d\n", max, maxID)
	case "bfs":
		it := g.Vertices()
		src, _ := it.Next()
		visited, depth := g.BFS(src)
		fmt.Fprintf(stdout, "bfs from %d: visited %d vertices, max depth %d\n", src, visited, depth)
	case "pagerank":
		pr := g.PageRank(20, 0.85)
		best, bestID := -1.0, int64(0)
		for id, r := range pr {
			if r > best {
				best, bestID = r, id
			}
		}
		name, _ := g.PropertyOf(bestID, "Name")
		fmt.Fprintf(stdout, "pagerank: top vertex %d (%s) with rank %.6f\n", bestID, name, best)
	case "components":
		_, n := g.ConnectedComponents()
		fmt.Fprintf(stdout, "connected components: %d\n", n)
	case "triangles":
		fmt.Fprintf(stdout, "triangles: %d\n", g.CountTriangles())
	case "sssp":
		snap := workload.Snap(g)
		res := snap.MultiSourceBFS(snap.SampleSources(4))
		fmt.Fprintf(stdout, "sssp from %d sources: reached %d vertices (%d unreached), max depth %d, sum of distances %d\n",
			len(res.Sources), res.Reached, res.Unreached, res.MaxDepth, res.SumDist)
	case "closeness":
		snap := workload.Snap(g)
		top := workload.TopCloseness(snap.Closeness(snap.SampleSources(64), 0), 1)
		if len(top) == 0 {
			fmt.Fprintln(stdout, "closeness: empty graph")
			return nil
		}
		name, _ := g.PropertyOf(top[0].ID, "Name")
		fmt.Fprintf(stdout, "closeness: top vertex %d (%s) with score %.6f (reached %d)\n",
			top[0].ID, name, top[0].Closeness, top[0].Reached)
	default:
		return usagef("unknown -analyze %q (valid: %s)", analyze, strings.Join(validAnalyses, ", "))
	}
	return nil
}

func parseRep(s string) (graphgen.Representation, error) {
	switch strings.ToLower(s) {
	case "cdup", "c-dup":
		return graphgen.CDUP, nil
	case "exp":
		return graphgen.EXP, nil
	case "dedup1", "dedup-1":
		return graphgen.DEDUP1, nil
	case "dedup2", "dedup-2":
		return graphgen.DEDUP2, nil
	case "bitmap", "bmp":
		return graphgen.BITMAP, nil
	default:
		return graphgen.CDUP, usagef("unknown representation %q (valid: %s)", s, strings.Join(validReps, ", "))
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n")
}
