// Command milback-report runs the full reproduction suite and emits a
// markdown verdict report: every §9 result regenerated, checked against the
// paper's claims (the Claim of each experiments.Registry entry that has
// one), and marked MATCH or MISS. This is the one-command
// artifact-evaluation entry point:
//
//	go run ./cmd/milback-report > REPORT.md
//
// Flags:
//
//	-seed N   base random seed (default 1)
//	-quick    reduced trial counts
//
// With -trace FILE the command instead summarizes a pipeline-stage trace
// written by milback-sim -trace (or milback.Cluster.WriteTrace): a markdown
// table of span counts, durations and per-stage parallel efficiency (summed
// worker-busy time over wall time, for stages that fanned out), no
// experiments run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// summarizeTrace prints a markdown table aggregating a JSON Lines trace by
// span name: count, total and mean duration, the slowest single span, and —
// for stages that fan out — the parallel efficiency (summed worker-busy time
// over stage wall time, from the "<stage>.busy" companion spans). Busy
// companions are folded into their parent stage's row rather than listed.
func summarizeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	type agg struct {
		count       int
		totalNS     int64
		maxNS       int64
		first, last int64
		busyNS      int64
		busyCount   int
	}
	byName := make(map[string]*agg)
	get := func(name string) *agg {
		a := byName[name]
		if a == nil {
			a = &agg{first: math.MaxInt64}
			byName[name] = a
		}
		return a
	}
	listed := 0
	for _, s := range spans {
		if stage, ok := strings.CutSuffix(s.Name, obs.SpanBusySuffix); ok {
			a := get(stage)
			a.busyNS += s.DurNS
			a.busyCount++
			continue
		}
		listed++
		a := get(s.Name)
		a.count++
		a.totalNS += s.DurNS
		a.maxNS = max(a.maxNS, s.DurNS)
		a.first = min(a.first, s.StartNS)
		a.last = max(a.last, s.StartNS+s.DurNS)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# Trace summary: %s\n\n%d spans, %d stages.\n\n", path, listed, len(names))
	fmt.Println("| Stage | Spans | Total | Mean | Max | Par |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, name := range names {
		a := byName[name]
		if a.count == 0 {
			// Busy companions with no parent span in the retained window
			// (the tracer ring can evict one without the other).
			continue
		}
		mean := time.Duration(a.totalNS / int64(a.count))
		// Parallel efficiency: summed worker-busy time over wall time. A
		// serial stage emits no busy companion and shows "-"; a perfectly
		// scaled 4-worker stage shows ~4.00x.
		par := "-"
		if a.busyCount > 0 && a.totalNS > 0 {
			par = fmt.Sprintf("%.2fx", float64(a.busyNS)/float64(a.totalNS))
		}
		fmt.Printf("| %s | %d | %s | %s | %s | %s |\n", name, a.count,
			time.Duration(a.totalNS), mean, time.Duration(a.maxNS), par)
	}
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "reduced trial counts")
	tracePath := flag.String("trace", "", "summarize a JSON Lines trace file instead of running experiments")
	flag.Parse()

	if *tracePath != "" {
		if err := summarizeTrace(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "milback-report:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("# MilBack reproduction report")
	fmt.Println()
	fmt.Printf("Generated %s, seed %d, quick=%v.\n\n", time.Now().Format(time.RFC3339), *seed, *quick)
	fmt.Println("| Result | Paper claim | Measured | Verdict |")
	fmt.Println("|---|---|---|---|")
	failures := 0
	for _, e := range experiments.Registry() {
		c := e.Claim
		if c == nil {
			continue
		}
		ok, detail := c.Check(*seed, *quick)
		verdict := "MATCH"
		if !ok {
			verdict = "MISS"
			failures++
		}
		fmt.Printf("| %s | %s | %s | %s |\n", c.ID, c.Statement, detail, verdict)
	}
	fmt.Println()
	if failures == 0 {
		fmt.Println("All reproduced results match the paper's claims. See EXPERIMENTS.md")
		fmt.Println("for the per-figure discussion and the calibration-vs-emergent split.")
	} else {
		fmt.Printf("%d claim(s) missed — see EXPERIMENTS.md for expected deviations.\n", failures)
		os.Exit(1)
	}
}
