package experiments

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/parallel"
	"repro/internal/rfsim"
)

// Fig12aRow is one distance point of the ranging-accuracy experiment.
type Fig12aRow struct {
	DistanceM float64
	// MeanErrM and P90ErrM summarize the trials that produced a fix; they
	// are NaN when none did.
	MeanErrM float64
	P90ErrM  float64
	Trials   int
	// Failed counts the trials whose localization returned an error.
	Failed int
}

// Fig12aResult is the ranging accuracy vs distance experiment (§9.2).
type Fig12aResult struct {
	Rows []Fig12aRow
}

// Fig12aRanging reproduces Fig 12a: the node is placed at each distance and
// localized `trials` times (paper: 20); mean and 90th-percentile ranging
// errors are reported over the trials that produced a fix, and the rest are
// counted as failed. The node orientation is fixed slightly off-normal so
// the reflection is strong but not degenerate.
func Fig12aRanging(distances []float64, trials int, seed int64) Fig12aResult {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	out := Fig12aResult{Rows: make([]Fig12aRow, len(distances))}
	// Each distance runs on its own simulator instance so the sweep
	// parallelizes across cores while staying deterministic.
	parallel.ForEach(len(distances), func(di int) {
		d := distances[di]
		sys := defaultSystem()
		n, err := sys.AddNode(rfsim.Point{X: d}, 8)
		if err != nil {
			panic(err)
		}
		row := Fig12aRow{DistanceM: d, Trials: trials, MeanErrM: math.NaN(), P90ErrM: math.NaN()}
		var errs []float64
		for tr := 0; tr < trials; tr++ {
			loc, err := sys.Localize(n, seed+int64(di*1000+tr))
			if err != nil {
				row.Failed++
				continue
			}
			errs = append(errs, math.Abs(loc.RangeM-d))
		}
		if len(errs) > 0 {
			row.MeanErrM = dsp.Mean(errs)
			row.P90ErrM = dsp.Percentile(errs, 90)
		}
		out.Rows[di] = row
	})
	return out
}

// Failed returns the number of failed trials over every distance.
func (r Fig12aResult) Failed() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Failed
	}
	return n
}

// Summary renders the per-distance error table.
func (r Fig12aResult) Summary() Table {
	t := Table{
		Title:   "Fig 12a — Ranging accuracy",
		Columns: []string{"distance (m)", "mean err (cm)", "90th pct err (cm)", "trials", "failed"},
		Notes: []string{
			"paper: mean error < 5 cm at 5 m and < 12 cm at 8 m; error grows with distance",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.DistanceM), f2(row.MeanErrM * 100), f2(row.P90ErrM * 100),
			fmt.Sprintf("%d", row.Trials), fmt.Sprintf("%d", row.Failed),
		})
	}
	return t
}

// Fig12bResult is the angle-accuracy CDF experiment (§9.2, Fig 12b).
type Fig12bResult struct {
	// ErrorsDeg are all per-trial absolute angle errors.
	ErrorsDeg []float64
	// CDF is the empirical distribution of ErrorsDeg.
	CDF []dsp.CDFPoint
	// MedianDeg and P90Deg summarize it.
	MedianDeg, P90Deg float64
}

// Fig12bAngle reproduces Fig 12b: the node is placed at several azimuths
// and distances, localized `trials` times each, and the absolute angle
// error distribution is reported.
func Fig12bAngle(anglesDeg []float64, distanceM float64, trials int, seed int64) Fig12bResult {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	perAngle := make([][]float64, len(anglesDeg))
	parallel.ForEach(len(anglesDeg), func(ai int) {
		az := anglesDeg[ai]
		sys := defaultSystem()
		n, err := sys.AddNode(rfsim.PolarPoint(distanceM, rfsim.DegToRad(az)), 8)
		if err != nil {
			panic(err)
		}
		for tr := 0; tr < trials; tr++ {
			loc, err := sys.Localize(n, seed+int64(ai*1000+tr))
			if err != nil {
				panic(fmt.Sprintf("experiments: angle az=%g trial %d: %v", az, tr, err))
			}
			perAngle[ai] = append(perAngle[ai], math.Abs(rfsim.RadToDeg(loc.AzimuthRad)-az))
		}
	})
	var errs []float64
	for _, e := range perAngle {
		errs = append(errs, e...)
	}
	return Fig12bResult{
		ErrorsDeg: errs,
		CDF:       dsp.EmpiricalCDF(errs),
		MedianDeg: dsp.Median(errs),
		P90Deg:    dsp.Percentile(errs, 90),
	}
}

// Summary renders the CDF quantiles.
func (r Fig12bResult) Summary() Table {
	t := Table{
		Title:   "Fig 12b — Angle accuracy CDF",
		Columns: []string{"quantile", "angle error (deg)"},
		Notes: []string{
			"paper: median 1.1°, 90th percentile 2.5°",
		},
	}
	for _, q := range []float64{10, 25, 50, 75, 90, 99} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("p%02.0f", q), f2(dsp.Percentile(r.ErrorsDeg, q)),
		})
	}
	return t
}
