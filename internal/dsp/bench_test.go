package dsp

import (
	"math/rand"
	"testing"
)

// BenchmarkForwardPacked times the localization range FFT's shape: one
// capture pair's worth of rows (4), each a 450-sample windowed difference
// packed into a 2048-point forward transform.
func BenchmarkForwardPacked(b *testing.B) {
	const n, prefix, rows = 2048, 450, 4
	rng := rand.New(rand.NewSource(1))
	src := make([][]complex128, rows)
	xs := make([][]complex128, rows)
	for i := range src {
		src[i] = make([]complex128, n)
		copy(src[i], randomComplex(rng, prefix))
		xs[i] = make([]complex128, n)
	}
	bp := PlanBatch(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range xs {
			copy(xs[r], src[r][:NextPowerOfTwo(prefix)])
		}
		bp.ForwardPacked(xs, prefix)
	}
}

// BenchmarkAddBandEnvelope times the orientation envelope's shape: an
// 81-bin band around the node's beat bin inverse-transformed at 2048 points
// into a 450-sample envelope.
func BenchmarkAddBandEnvelope(b *testing.B) {
	const n, width, samples = 2048, 81, 450
	band := randomComplex(rand.New(rand.NewSource(2)), width)
	env := make([]float64, samples)
	bp := PlanBatch(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.AddBandEnvelope(env, band)
	}
}
