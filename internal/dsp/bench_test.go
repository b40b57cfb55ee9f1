package dsp

import (
	"math/rand"
	"testing"
)

// BenchmarkForwardPacked times the packed forward kernel at one fixed
// shape: 4 rows, each a 450-sample windowed difference packed into a
// 2048-point transform. The shape is pinned so that A/B runs against older
// commits compare the kernel like for like; the production transform size
// (ap.Config.FFTSize) is timed by the root package's steady-state capture
// benchmarks.
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

// BenchmarkAddBandEnvelope times the band-envelope kernel at one fixed
// shape: an 81-bin band inverse-transformed at 2048 points into a
// 450-sample envelope. Like BenchmarkForwardPacked it keeps this shape for
// like-for-like A/B runs; the orientation capture's production shape
// follows ap.Config.FFTSize and is timed end to end by the steady-state
// capture benchmarks.
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
