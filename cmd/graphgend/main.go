// Command graphgend is the GraphGen serving daemon: it loads a relational
// database (a built-in generated dataset or CSV tables), binds an
// extraction engine to it, and serves named graph sessions — static
// snapshots or live incrementally-maintained graphs — over a concurrent
// HTTP JSON API with LRU-cached analytics (see internal/server for the
// endpoint reference and docs/ARCHITECTURE.md for the cache contract).
//
// Usage examples:
//
//	graphgend -addr :8080 -dataset dblp
//	graphgend -addr :8080 -csv authors=a.csv,authorpub=ap.csv
//
// Then drive it with curl (examples/serving walks through this):
//
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/graphs -d '{"name":"coauth","live":true,"query":"..."}'
//	curl -s localhost:8080/v1/graphs/coauth/analyze/pagerank
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
	"graphgen/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, loads the database, and serves until the context is
// cancelled by SIGINT/SIGTERM. Flag and configuration errors (unknown
// dataset, malformed -csv spec) exit 2; runtime failures exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphgend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	dataset := fs.String("dataset", "dblp", "built-in dataset: "+strings.Join(datagen.BuiltinDatasets, ", "))
	seed := fs.Int64("seed", 1, "dataset generator seed")
	csvTables := fs.String("csv", "", "comma-separated name=path.csv pairs loaded instead of -dataset")
	noIndex := fs.Bool("no-index", false, "disable automatic secondary hash indexes on join/predicate columns (indexes are on by default)")
	cacheEntries := fs.Int("cache-entries", 256, "analytics cache: max entries")
	cacheMB := fs.Int64("cache-mb", 64, "analytics cache: max total result megabytes")
	maxSessions := fs.Int("max-sessions", 64, "max concurrent graph sessions")
	maxDerived := fs.Int64("max-derived", 10_000_000, "Datalog program sessions: max derived tuples per evaluation (-1 disables)")
	logLevel := fs.String("log-level", "info", "request log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "request log format: text or json (written to stderr)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof (profiling exposes heap contents; keep off on public listeners)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger, err := buildLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "graphgend:", err)
		return 2
	}

	db, canonical, err := loadDB(*csvTables, *dataset, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "graphgend:", err)
		// Usage errors (bad -dataset name, malformed -csv spec) exit 2;
		// runtime failures (unreadable or malformed CSV files) exit 1,
		// matching cmd/graphgen.
		if *csvTables == "" || errors.Is(err, graphgen.ErrCSVSpec) {
			return 2
		}
		return 1
	}
	engine := graphgen.NewEngine(db, graphgen.WithAutoIndex(!*noIndex))
	srv := server.New(engine, server.Options{
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheMB << 20,
		MaxSessions:      *maxSessions,
		MaxDerivedTuples: *maxDerived,
		Logger:           logger,
		EnablePprof:      *pprofOn,
	})
	defer srv.Close()

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	fmt.Fprintf(stdout, "graphgend: serving on %s (%d tables, %d rows)\n", *addr, len(db.TableNames()), db.TotalRows())
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		fmt.Fprintf(stdout, "graphgend:   table %s: %d rows\n", name, t.NumRows())
	}
	if canonical != "" {
		fmt.Fprintf(stdout, "graphgend: canonical query for -dataset %s:\n%s\n", *dataset, strings.TrimSpace(canonical))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "graphgend:", err)
			return 1
		}
	case <-ctx.Done():
		fmt.Fprintln(stdout, "graphgend: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(stderr, "graphgend: shutdown:", err)
			return 1
		}
	}
	return 0
}

// buildLogger assembles the request logger from the -log-level and
// -log-format flags; unknown values are usage errors.
func buildLogger(w io.Writer, levelName, format string) (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(levelName)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, or error", levelName)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// loadDB builds the served database: CSV tables when -csv is given,
// otherwise the named built-in dataset (returning its canonical query for
// the startup banner).
func loadDB(csvTables, dataset string, seed int64) (*graphgen.DB, string, error) {
	if csvTables == "" {
		return datagen.ByName(dataset, seed)
	}
	db := graphgen.NewDB()
	if err := db.LoadCSVFiles(csvTables); err != nil {
		return nil, "", err
	}
	return db, "", nil
}
