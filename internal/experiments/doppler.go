package experiments

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/parallel"
	"repro/internal/rfsim"
)

// ExtDopplerRow is one (velocity, burst-length) cell of the Doppler study.
type ExtDopplerRow struct {
	VelocityMS float64
	Chirps     int
	MeanErrMS  float64
	Trials     int
}

// ExtDopplerResult is the radial-velocity sensing extension study: the same
// switched-backscatter captures that localize a node also measure its range
// rate from chirp-to-chirp carrier phase (ISAC, §10b of the paper's related
// work made concrete).
type ExtDopplerResult struct {
	Rows []ExtDopplerRow
	// MaxUnambiguousMS is the aliasing limit at the configured chirp
	// interval.
	MaxUnambiguousMS float64
}

// ExtDoppler sweeps true radial velocities and burst lengths, reporting the
// mean absolute velocity error over `trials` runs each.
func ExtDoppler(velocities []float64, bursts []int, trials int, seed int64) ExtDopplerResult {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	probe := defaultSystem()
	out := ExtDopplerResult{
		MaxUnambiguousMS: probe.AP.MaxUnambiguousVelocity(probe.Config().AP.LocalizationChirp),
	}
	type cell struct{ vi, bi int }
	var cells []cell
	for vi := range velocities {
		for bi := range bursts {
			cells = append(cells, cell{vi, bi})
		}
	}
	rows := make([]ExtDopplerRow, len(cells))
	parallel.ForEach(len(cells), func(ci int) {
		c := cells[ci]
		v, nChirps := velocities[c.vi], bursts[c.bi]
		sys := defaultSystem()
		n, err := sys.AddNode(rfsim.Point{X: 3}, 8)
		if err != nil {
			panic(err)
		}
		var errs []float64
		for tr := 0; tr < trials; tr++ {
			got, err := sys.MeasureRadialVelocity(n, v, nChirps, seed+int64(ci*1000+tr))
			if err != nil {
				panic(fmt.Sprintf("experiments: doppler v=%g chirps=%d: %v", v, nChirps, err))
			}
			errs = append(errs, math.Abs(got-v))
		}
		rows[ci] = ExtDopplerRow{
			VelocityMS: v,
			Chirps:     nChirps,
			MeanErrMS:  dsp.Mean(errs),
			Trials:     trials,
		}
	})
	out.Rows = rows
	return out
}

// Summary renders the Doppler study.
func (r ExtDopplerResult) Summary() Table {
	t := Table{
		Title:   "Extension — radial-velocity (Doppler) sensing from the localization burst",
		Columns: []string{"velocity (m/s)", "chirps", "mean |err| (m/s)", "trials"},
		Notes: []string{
			fmt.Sprintf("unambiguous range ±%.1f m/s at the 50 µs chirp interval", r.MaxUnambiguousMS),
			"longer bursts average more chirp pairs and sharpen the estimate",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f2(row.VelocityMS), fmt.Sprintf("%d", row.Chirps), f2(row.MeanErrMS), fmt.Sprintf("%d", row.Trials),
		})
	}
	return t
}
