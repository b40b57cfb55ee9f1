package experiments

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/parallel"
	"repro/internal/rfsim"
)

// Fig13Row is one orientation point of an orientation-sensing experiment.
type Fig13Row struct {
	OrientationDeg float64
	// MeanErrDeg and VarErrDeg summarize the trials that produced an
	// estimate; MeanErrDeg is NaN when none did.
	MeanErrDeg float64
	VarErrDeg  float64
	Trials     int
	// Failed counts the trials whose estimator returned an error (node side
	// only; an AP-side failure still panics).
	Failed int
}

// Fig13Result is an orientation-accuracy sweep (node-side 13a or AP-side
// 13b).
type Fig13Result struct {
	Side string // "node" or "AP"
	Rows []Fig13Row
}

// Fig13aNodeOrientation reproduces Fig 13a: the node at 2 m estimates its
// own orientation from the triangular chirps' peak separation, `trials`
// times per orientation (paper: 25). A trial whose estimator returns an
// error is counted as failed and kept out of the mean.
func Fig13aNodeOrientation(orientationsDeg []float64, trials int, seed int64) Fig13Result {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	out := Fig13Result{Side: "node", Rows: make([]Fig13Row, len(orientationsDeg))}
	parallel.ForEach(len(orientationsDeg), func(oi int) {
		orient := orientationsDeg[oi]
		sys := defaultSystem()
		n, err := sys.AddNode(rfsim.Point{X: 2}, orient)
		if err != nil {
			panic(err)
		}
		row := Fig13Row{OrientationDeg: orient, Trials: trials, MeanErrDeg: math.NaN()}
		var errs []float64
		for tr := 0; tr < trials; tr++ {
			res, err := sys.SenseOrientationAtNode(n, seed+int64(oi*1000+tr))
			if err != nil {
				row.Failed++
				continue
			}
			errs = append(errs, math.Abs(res.EstimateDeg-orient))
		}
		if len(errs) > 0 {
			row.MeanErrDeg = dsp.Mean(errs)
			row.VarErrDeg = dsp.Variance(errs)
		}
		out.Rows[oi] = row
	})
	return out
}

// Fig13bAPOrientation reproduces Fig 13b: the AP estimates the orientation
// of a node at 2 m from the reflected-power-vs-frequency profile, `trials`
// times per orientation (paper: 25). The −6°…−2° window shows elevated
// error from the partially-modulated mirror reflection.
func Fig13bAPOrientation(orientationsDeg []float64, trials int, seed int64) Fig13Result {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	out := Fig13Result{Side: "AP", Rows: make([]Fig13Row, len(orientationsDeg))}
	parallel.ForEach(len(orientationsDeg), func(oi int) {
		orient := orientationsDeg[oi]
		sys := defaultSystem()
		n, err := sys.AddNode(rfsim.Point{X: 2}, orient)
		if err != nil {
			panic(err)
		}
		var errs []float64
		for tr := 0; tr < trials; tr++ {
			loc, err := sys.Localize(n, seed+int64(oi*1000+tr))
			if err != nil {
				panic(fmt.Sprintf("experiments: AP orientation %g trial %d: %v", orient, tr, err))
			}
			errs = append(errs, math.Abs(loc.OrientationDeg-orient))
		}
		out.Rows[oi] = Fig13Row{
			OrientationDeg: orient,
			MeanErrDeg:     dsp.Mean(errs),
			VarErrDeg:      dsp.Variance(errs),
			Trials:         trials,
		}
	})
	return out
}

// Summary renders the orientation-error table.
func (r Fig13Result) Summary() Table {
	title := "Fig 13a — Orientation estimation at the node (2 m)"
	notes := []string{"paper: mean error always < 3°"}
	if r.Side == "AP" {
		title = "Fig 13b — Orientation estimation at the AP (2 m)"
		notes = []string{
			"paper: mean error < 1.5° in general, elevated (up to ~3°) in −6°…−2° from the mirror reflection",
		}
	}
	t := Table{
		Title:   title,
		Columns: []string{"orientation (deg)", "mean err (deg)", "std (deg)", "trials", "failed"},
		Notes:   notes,
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.OrientationDeg), f2(row.MeanErrDeg), f2(math.Sqrt(row.VarErrDeg)),
			fmt.Sprintf("%d", row.Trials), fmt.Sprintf("%d", row.Failed),
		})
	}
	return t
}

// Failed returns the number of failed trials over every orientation.
func (r Fig13Result) Failed() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Failed
	}
	return n
}

// MaxMeanErr returns the worst per-orientation mean error, ignoring
// orientations where every trial failed.
func (r Fig13Result) MaxMeanErr() float64 {
	m := 0.0
	for _, row := range r.Rows {
		if row.MeanErrDeg > m {
			m = row.MeanErrDeg
		}
	}
	return m
}
