// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section 6). Each experiment prints rows in the layout of the
// corresponding table/figure; README.md ("Reproducing the evaluation (§6)")
// describes the reproduction targets.
//
// Usage:
//
//	experiments -exp table1          # one experiment
//	experiments -exp all             # everything
//	experiments -exp fig10 -quick    # smaller datasets, faster
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphgen/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig10, fig11, fig12a, fig12b, table3, fig13, table4, table5, table6, all)")
	quick := flag.Bool("quick", false, "use smaller datasets for a fast smoke run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	scale := experiments.Scale{Quick: *quick}
	run := func(e experiments.Experiment) {
		start := time.Now()
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		fmt.Print(e.Run(scale))
		fmt.Printf("(%s elapsed)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, err := experiments.Lookup(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run(e)
}
