// Command graphlint machine-checks GraphGen's repo-specific invariants —
// the contracts previously enforced only by review and randomized tests:
//
//	keyencode     string keys over relstore.Value data use relstore.AppendRowKey (sets: relstore.RowSet)
//	lockorder     internal/server: no dbMu while sessMu may be held; table access under dbMu
//	notifyorder   relstore mutators route through notify; indexes before subscribers
//	determinism   deterministic packages shun wall clocks, global rand, map-order appends
//	lockedreturn  returns must not leak a mutex some path into them holds
//	iterclose     row iterators in relstore/conj/extract/datalogeval/incremental are closed or handed off
//	spanend       trace spans in relstore/conj/extract/datalogeval/incremental are ended or handed off
//	guardedby     fields annotated graphlint:guardedby are accessed under their mutex
//	nilsafe       internal/obs: exported *Trace/*Span methods begin with a nil guard
//
// guardedby, lockedreturn and lockorder share one branch-aware lock
// simulator; iterclose and spanend share one obligation checker.
//
// Usage:
//
//	graphlint [-list] [-counts] [package patterns]
//
// Patterns default to ./... rooted at the current directory. Findings are
// suppressed only by an inline "//lint:ignore <analyzer> <justification>"
// on the same or preceding line; malformed or stale directives are
// themselves findings. Exit status: 0 clean, 1 findings or analysis
// failure, 2 usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphgen/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	counts := fs.Bool("counts", false, "print per-analyzer finding counts after the findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: graphlint [-list] [-counts] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-14s %s\n", analyzers.LintName, "lint:ignore directives carry a justification and suppress something")
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "graphlint: %v\n", err)
		return 1
	}
	diags, err := analyzers.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "graphlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if *counts {
		byName := map[string]int{}
		for _, d := range diags {
			byName[d.Analyzer]++
		}
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %d\n", a.Name, byName[a.Name])
		}
		fmt.Fprintf(stdout, "%-14s %d\n", analyzers.LintName, byName[analyzers.LintName])
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "graphlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
