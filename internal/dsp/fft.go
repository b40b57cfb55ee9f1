package dsp

import (
	"fmt"
	"math/bits"
	"math/cmplx"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics if n <= 0
// or the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dsp: NextPowerOfTwo of non-positive %d", n))
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic(fmt.Sprintf("dsp: NextPowerOfTwo overflow for %d", n))
	}
	return p
}

// Magnitudes returns |X[k]| for every bin.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Abs(v)
	}
	return out
}
