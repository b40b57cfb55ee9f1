package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary serve as its own child server, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if name := os.Getenv(serveEnv); name != "" {
		if err := serveChild(name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke holds the program to BENCHMARK.json — the same workloads and
// the same metrics with the same units, in order — then runs every
// workload briefly, untraced and traced, and checks that each declared
// metric is reported and no op failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server per workload and runs for several seconds")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, trace := range []bool{false, true} {
		declared := spec.EndToEnd
		if trace {
			declared = spec.PerLayer
		}
		if got := reported(trace); len(got) != len(declared) {
			t.Errorf("trace=%v: the program declares %d metrics, BENCHMARK.json %d", trace, len(got), len(declared))
		}
		for i, d := range reported(trace) {
			if i < len(declared) && (d.name != declared[i].Name || d.unit != declared[i].Unit) {
				t.Errorf("trace=%v: metric %d is %s in %s, BENCHMARK.json says %s in %s",
					trace, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				cfg := config{seconds: 2, trace: trace, setups: 1}
				res, err := runWorkload(context.Background(), w, 1, cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Errorf("trace=%v: %d of %d ops failed", trace, res.Failed, res.Attempted)
				}
				for _, d := range reported(trace) {
					got, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not reported", trace, d.name)
					case got.Unit != d.unit:
						t.Errorf("trace=%v: %s in %q, want %q", trace, d.name, got.Unit, d.unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace=%v: %s = %v", trace, d.name, got.Value)
					}
				}
			}
		})
	}
}

// TestQuartiles pins the quartiles -compare reports to Python's
// statistics.quantiles(v, n=4), by which the benchmark's spread is judged.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.v)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.v, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
