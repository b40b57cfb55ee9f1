package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Helpers only the tests use: the plain in-place transform both
// directions, and a few measurement conveniences. Production code
// transforms through BatchPlan.

// Forward transforms x in place using the engineering-standard sign
// convention X[k] = Σ x[n]·exp(-2πikn/N). len(x) must equal the plan size.
func (p *FFTPlan) Forward(x []complex128) { p.Transform(x, false) }

// Transform runs the plan in the requested direction; the inverse includes
// the 1/N normalization.
func (p *FFTPlan) Transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan for length %d applied to length %d", p.n, len(x)))
	}
	n := len(x)
	if n <= 1 {
		return
	}
	tw := p.twFwd
	if inverse {
		tw = p.twInv
	}
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	stagesFrom(x, 1, tw)
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// Magnitudes returns |X[k]| for every bin.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// FilterCompensated filters x and shifts the output left by the group delay
// so filtered features line up with the input timeline. The tail is
// zero-padded.
func (f *FIR) FilterCompensated(x []float64) []float64 {
	y := f.Filter(x)
	d := (len(f.Taps) - 1) / 2
	out := make([]float64, len(x))
	copy(out, y[min(d, len(y)):])
	return out
}

// FindPeaks returns all local maxima of x whose value exceeds threshold,
// separated by at least minDistance samples. Peaks are returned sorted by
// descending value. When two candidate peaks are closer than minDistance the
// larger one wins.
func FindPeaks(x []float64, threshold float64, minDistance int) []Peak {
	if minDistance < 1 {
		minDistance = 1
	}
	var cands []Peak
	for i := 1; i < len(x)-1; i++ {
		if x[i] >= threshold && x[i] >= x[i-1] && x[i] > x[i+1] {
			cands = append(cands, refinePeak(x, i))
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].Value > cands[b].Value })
	var out []Peak
	for _, c := range cands {
		ok := true
		for _, o := range out {
			if abs(c.Index-o.Index) < minDistance {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}
