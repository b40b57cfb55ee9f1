package dsp

// Peak describes a local maximum found in a sampled sequence.
type Peak struct {
	// Index is the integer sample index of the maximum.
	Index int
	// Position is the sub-sample refined location (parabolic interpolation).
	Position float64
	// Value is the interpolated peak amplitude.
	Value float64
}

// ArgMax returns the index of the largest element of x (the first one on
// ties). It panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("dsp: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// MaxPeak finds the global maximum of x and refines its position with
// three-point parabolic interpolation, the standard sub-bin refinement for
// FFT peaks. It is what turns MilBack's 5 cm FFT range resolution into the
// paper's sub-5-cm mean ranging error.
func MaxPeak(x []float64) Peak {
	i := ArgMax(x)
	return refinePeak(x, i)
}

// MaxPeakInRange finds the maximum of x restricted to [lo, hi) and refines
// it. Bounds are clamped to the slice. The boolean reports whether the
// clamped range was non-empty; callers pass computed bounds, so an empty
// window is an answerable condition ("nothing there"), not a programming
// error worth a panic.
func MaxPeakInRange(x []float64, lo, hi int) (Peak, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(x) {
		hi = len(x)
	}
	if lo >= hi {
		return Peak{}, false
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return refinePeak(x, best), true
}

func refinePeak(x []float64, i int) Peak {
	p := Peak{Index: i, Position: float64(i), Value: x[i]}
	if i <= 0 || i >= len(x)-1 {
		return p
	}
	a, b, c := x[i-1], x[i], x[i+1]
	denom := a - 2*b + c
	if denom == 0 {
		return p
	}
	delta := 0.5 * (a - c) / denom
	// A well-formed local max keeps the refinement within half a bin.
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	p.Position = float64(i) + delta
	p.Value = b - 0.25*(a-c)*delta
	return p
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
