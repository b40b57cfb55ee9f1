// Command benchmark measures a served MilBack cluster end to end, and with
// -trace 1 layer by layer. It builds and runs from the repository root
// through run.sh:
//
//	bash benchmark/run.sh -workload localize -seed 3 -seconds 20 -trace 0
//	bash benchmark/run.sh -seed 3 -out results/base/3.json
//	bash benchmark/run.sh -trace 1 -spans spans.jsonl
//	bash benchmark/run.sh -compare results/base results/change
//
// Without -workload every workload runs in turn. A run prints one line per
// metric (workload, name, value, unit, samples) and ends its standard
// output with one JSON object holding correct, attempted, failed and the
// metrics. It exits 1 when any op failed or answered wrongly. README.md
// describes the workloads, the metrics and how to compare two trees.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	if name := os.Getenv(serveEnv); name != "" {
		if err := serveChild(name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark server:", err)
			os.Exit(1)
		}
		return
	}
	only := flag.String("workload", "", "workload to run: localize, roaming or fleet (all when empty)")
	seed := flag.Int64("seed", 1, "seed of the client's inputs: placements, schedules, op picks and payloads")
	seconds := flag.Int("seconds", 30, "measured seconds per workload, split across its phases")
	trace := flag.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	out := flag.String("out", "", "write the results and the machine stamp to this JSON file")
	spans := flag.String("spans", "", "write client spans and /v1/metrics snapshots to this JSON Lines file")
	compare := flag.Bool("compare", false, "compare two directories of -out files: -compare DIR_A DIR_B")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			usage("-compare needs two directories")
		}
		ok, err := compareDirs(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		usage("need -seconds >= 1 and -trace 0 or 1")
	}
	todo := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			usage(fmt.Sprintf("unknown workload %q", *only))
		}
		todo = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{seconds: float64(*seconds), trace: *trace == 1, setups: 5}
	var results []*result
	for _, w := range todo {
		res, err := runWorkload(ctx, w, *seed, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printMetrics(os.Stdout, res, cfg.trace)
		results = append(results, res)
	}
	if *spans != "" {
		if err := writeFile(*spans, func(f io.Writer) error {
			for _, r := range results {
				if err := r.writeSpans(f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		st := machineStamp(*seed, *seconds, cfg)
		if err := writeFile(*out, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Stamp   stamp     `json:"stamp"`
				Results []*result `json:"results"`
			}{st, results})
		}); err != nil {
			fatal(err)
		}
	}
	if !printSummary(os.Stdout, results, cfg.trace, len(todo) > 1) {
		os.Exit(1)
	}
}

// printMetrics writes one line per reported metric.
func printMetrics(w io.Writer, r *result, trace bool) {
	defs := reported(trace)
	if !trace {
		defs = append(defs, tailMetric)
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%-9s %-26s %14.6g %-9s n=%d\n", r.Workload, d.name, m.Value, m.Unit, m.Samples)
	}
	for _, o := range r.ops {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s: op %d (%s, node %d) failed: %v\n", r.Workload, o.index, o.kind, o.node, o.err)
			break
		}
	}
}

// reported lists the metrics BENCHMARK.json declares for a run:
// end-to-end when untraced, per-layer when traced.
func reported(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printSummary writes the closing JSON line with the metrics
// BENCHMARK.json declares and reports whether every op succeeded. With
// several workloads each metric is named workload/metric.
func printSummary(w io.Writer, results []*result, trace, qualify bool) bool {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: true, Metrics: map[string]reading{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, d := range reported(trace) {
			name, m := d.name, r.Metrics[d.name]
			if qualify {
				name = r.Workload + "/" + name
			}
			sum.Metrics[name] = reading{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
	return sum.Correct
}

// stamp records where and how a result file was measured.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"conns"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func machineStamp(seed int64, seconds int, cfg config) stamp {
	st := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns:      conns,
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Trace:      cfg.trace,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			st.Commit += "-dirty"
		}
	}
	return st
}

// writeFile creates path and fills it with fill, reporting any write or
// close failure.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		err = errors.New("interrupted")
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
