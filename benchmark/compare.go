package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one declared metric. Bound is the share of the base
// median by which the metric may worsen; per-layer metrics have none.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads every -out file in dir into workload → metric → values.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	runs := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var file struct {
			Results []*result `json:"results"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range file.Results {
			if runs[r.Workload] == nil {
				runs[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
			}
		}
	}
	return runs, nil
}

// quartiles returns the first quartile, median and third quartile of v,
// the quartiles by the method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// compareDirs prints, for every workload and end-to-end metric, each run
// set's median, quartiles and spread (quartile distance over median), the
// second set's change against the first, and PASS when that change is no
// worse than the metric's bound. It reports whether every row passed.
func compareDirs(w io.Writer, specPath, dirA, dirB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-9s %-17s %4s %11s %23s %7s %4s %11s %23s %7s %8s %6s\n",
		"workload", "metric", "n_a", "median_a", "[q1_a, q3_a]", "spr_a", "n_b", "median_b", "[q1_b, q3_b]", "spr_b", "change", "bound")
	pass := true
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-9s %-17s missing from a run set  FAIL\n", wl.Name, m.Name)
				pass = false
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			// change is positive when b is worse than a.
			change := ratio(bm-am, am)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "PASS"
			if change > m.Bound {
				verdict = "FAIL"
				pass = false
			}
			fmt.Fprintf(w, "%-9s %-17s %4d %11.5g [%10.5g, %10.5g] %6.1f%% %4d %11.5g [%10.5g, %10.5g] %6.1f%% %+7.1f%% %5.1f%% %s\n",
				wl.Name, m.Name, len(va), am, a1, a3, 100*ratio(a3-a1, am),
				len(vb), bm, b1, b3, 100*ratio(b3-b1, bm), 100*change, 100*m.Bound, verdict)
		}
	}
	return pass, nil
}
