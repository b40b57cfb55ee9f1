package dsp

import (
	"math"
	"sync"
)

// Hann returns the n-point Hann window. For n == 1 the window is {1}.
func Hann(n int) []float64 {
	return cosineSum(n, []float64{0.5, 0.5})
}

// hannCache memoizes Hann windows by length for HannCached. Capture
// pipelines window every chirp of every burst with the same-length Hann;
// recomputing (or even reallocating) it per chirp is pure waste.
var hannCache sync.Map // int -> []float64

// HannCached returns the n-point Hann window from a process-wide cache.
// The returned slice is shared: callers must treat it as read-only and
// never scale it in place.
func HannCached(n int) []float64 {
	if w, ok := hannCache.Load(n); ok {
		return w.([]float64)
	}
	w, _ := hannCache.LoadOrStore(n, Hann(n))
	return w.([]float64)
}

// Hamming returns the n-point Hamming window.
func Hamming(n int) []float64 {
	return cosineSum(n, []float64{0.54, 0.46})
}

// cosineSum builds a generalized cosine window:
// w[i] = a0 - a1 cos(2πi/(n-1)) + a2 cos(4πi/(n-1)) - a3 cos(6πi/(n-1)).
func cosineSum(n int, a []float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := 0; i < n; i++ {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		v := a[0]
		sign := -1.0
		for k := 1; k < len(a); k++ {
			v += sign * a[k] * math.Cos(float64(k)*x)
			sign = -sign
		}
		w[i] = v
	}
	return w
}
