// Command milback-experiments regenerates the paper's evaluation tables and
// figures (§9), plus the ablation (abl-*) and extension (ext-*) studies.
// With no arguments it runs everything; otherwise pass one or more
// experiment ids. `milback-experiments -list` prints every id with a
// one-line description.
//
// Flags:
//
//	-seed N    base random seed (default 1)
//	-quick     reduced trial counts for a fast smoke run
//	-csv       emit CSV instead of aligned tables (for plotting)
//	-list      print the available experiment ids and exit
//
// Each experiment prints the same rows/series the paper reports, annotated
// with the paper's reference values (see EXPERIMENTS.md for the comparison
// record). The ids, descriptions and settings come from
// experiments.Registry.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "reduced trial counts")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	exps := experiments.Registry()
	if *list {
		width := 0
		for _, e := range exps {
			width = max(width, len(e.ID))
		}
		for _, e := range exps {
			fmt.Printf("%-*s %s\n", width, e.ID, e.Desc)
		}
		return
	}
	want := flag.Args()
	byID := map[string]experiments.Experiment{}
	for _, e := range exps {
		byID[e.ID] = e
	}
	if len(want) == 0 {
		for _, e := range exps {
			want = append(want, e.ID)
		}
	}
	var unknown []string
	for _, id := range want {
		if _, ok := byID[strings.ToLower(id)]; !ok {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiment id(s): %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}
	for _, id := range want {
		e := byID[strings.ToLower(id)]
		tbl := e.Run(*seed, *quick)
		if *csvOut {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl)
		}
	}
}
