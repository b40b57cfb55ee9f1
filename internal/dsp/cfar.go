package dsp

import (
	"fmt"
	"sort"
)

// CFAR implements cell-averaging constant-false-alarm-rate detection, the
// standard radar technique for finding targets in a range profile whose
// noise/clutter floor varies across bins. For each cell under test, the
// noise level is estimated from `Train` cells on each side (skipping
// `Guard` cells adjacent to the test cell so the target's own energy does
// not inflate the estimate), and the cell detects if it exceeds the
// estimate by `ThresholdFactor`.
//
// MilBack's AP uses it to pick out multiple nodes' modulated reflections
// from one background-subtracted profile when several backscatter devices
// respond in the same capture.
type CFAR struct {
	// Guard is the number of guard cells on each side of the test cell.
	Guard int
	// Train is the number of training cells on each side.
	Train int
	// ThresholdFactor multiplies the noise estimate (linear power ratio).
	ThresholdFactor float64
}

func (c CFAR) validate() error {
	if c.Guard < 0 {
		return fmt.Errorf("dsp: CFAR guard cells must be >= 0, got %d", c.Guard)
	}
	if c.Train < 1 {
		return fmt.Errorf("dsp: CFAR training cells must be >= 1, got %d", c.Train)
	}
	if c.ThresholdFactor <= 1 {
		return fmt.Errorf("dsp: CFAR threshold factor must be > 1, got %g", c.ThresholdFactor)
	}
	return nil
}

// Detect returns the refined peaks of every CFAR detection in the power
// profile x, strongest first. Adjacent detections within minSeparation bins
// are merged into their strongest member.
func (c CFAR) Detect(x []float64, minSeparation int) ([]Peak, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if minSeparation < 1 {
		minSeparation = 1
	}
	span := c.Guard + c.Train
	if len(x) < 2*span+1 {
		return nil, fmt.Errorf("dsp: CFAR needs at least %d bins, got %d", 2*span+1, len(x))
	}
	var hits []int
	for i := 0; i < len(x); i++ {
		// Training windows are clamped to the profile bounds, so cells within
		// span of either end fall back to one-sided (or truncated) training
		// instead of being skipped outright. Interior cells see exactly the
		// classic symmetric window. Without the clamp a node at very close
		// range (beat peak near bin 0) would sit in a dead zone no detector
		// pass ever examines.
		var noise float64
		n := 0
		for j := max(0, i-span); j < i-c.Guard; j++ {
			noise += x[j]
			n++
		}
		for j := i + c.Guard + 1; j <= min(len(x)-1, i+span); j++ {
			noise += x[j]
			n++
		}
		if n == 0 {
			// Unreachable under the minimum-length validation above (a cell
			// cannot be within Guard of both ends at once); kept as a guard.
			continue
		}
		noise /= float64(n)
		if noise <= 0 {
			// Degenerate all-zero neighbourhood: any positive energy is a
			// detection.
			if x[i] > 0 {
				hits = append(hits, i)
			}
			continue
		}
		if x[i] > noise*c.ThresholdFactor {
			hits = append(hits, i)
		}
	}
	// Keep only local maxima among hits, then merge within minSeparation.
	// Endpoint cells count as maxima against their single neighbour.
	var peaks []Peak
	for _, i := range hits {
		if (i == 0 || x[i] >= x[i-1]) && (i == len(x)-1 || x[i] >= x[i+1]) {
			peaks = append(peaks, refinePeak(x, i))
		}
	}
	sort.Slice(peaks, func(a, b int) bool { return peaks[a].Value > peaks[b].Value })
	var out []Peak
	for _, p := range peaks {
		keep := true
		for _, o := range out {
			if abs(p.Index-o.Index) < minSeparation {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out, nil
}
