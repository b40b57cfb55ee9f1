package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter described by its tap coefficients.
// LowPassFIR produces linear-phase (symmetric) filters via the windowed-sinc
// method, the textbook technique for stripping a mixer's sum-frequency
// products in a passband dechirp chain like the one MilBack's AP models in
// the beat domain (Fig 7).
type FIR struct {
	Taps []float64
}

// sinc is the unnormalized sampling function sin(x)/x with sinc(0)=1.
func sinc(x float64) float64 {
	if math.Abs(x) < 1e-12 {
		return 1
	}
	return math.Sin(x) / x
}

func validateCutoff(name string, fc, fs float64) {
	if fs <= 0 {
		panic(fmt.Sprintf("dsp: %s: sample rate must be positive, got %g", name, fs))
	}
	if fc <= 0 || fc >= fs/2 {
		panic(fmt.Sprintf("dsp: %s: cutoff %g Hz outside (0, fs/2)=(0, %g)", name, fc, fs/2))
	}
}

func oddTaps(name string, n int) {
	if n < 3 || n%2 == 0 {
		panic(fmt.Sprintf("dsp: %s: tap count must be odd and >= 3, got %d", name, n))
	}
}

// LowPassFIR designs an n-tap (n odd) low-pass filter with cutoff fc at
// sample rate fs, using a Hamming window.
func LowPassFIR(n int, fc, fs float64) *FIR {
	oddTaps("LowPassFIR", n)
	validateCutoff("LowPassFIR", fc, fs)
	taps := make([]float64, n)
	w := Hamming(n)
	m := float64(n-1) / 2
	wc := 2 * math.Pi * fc / fs
	for i := 0; i < n; i++ {
		x := float64(i) - m
		taps[i] = wc / math.Pi * sinc(wc*x) * w[i]
	}
	normalizeDC(taps)
	return &FIR{Taps: taps}
}

// normalizeDC scales taps so the DC gain is exactly 1.
func normalizeDC(taps []float64) {
	s := 0.0
	for _, t := range taps {
		s += t
	}
	if s != 0 {
		for i := range taps {
			taps[i] /= s
		}
	}
}

// Filter convolves x with the filter taps and returns a same-length output
// (the leading transient is kept, so the output lags the input by the
// (len(Taps)−1)/2-sample group delay). Edges are zero-padded.
func (f *FIR) Filter(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	taps := f.Taps
	for i := 0; i < n; i++ {
		var acc float64
		kmax := len(taps)
		if i+1 < kmax {
			kmax = i + 1
		}
		for k := 0; k < kmax; k++ {
			acc += taps[k] * x[i-k]
		}
		out[i] = acc
	}
	return out
}
