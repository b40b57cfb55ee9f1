package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// cloneBatch deep-copies a batch of buffers.
func cloneBatch(xs [][]complex128) [][]complex128 {
	out := make([][]complex128, len(xs))
	for i, x := range xs {
		out[i] = append([]complex128(nil), x...)
	}
	return out
}

// batchWorstErr returns the largest per-bin relative error (|Δ| over the
// batch RMS magnitude) between two batches.
func batchWorstErr(t *testing.T, got, want [][]complex128) float64 {
	t.Helper()
	var sum float64
	var cnt int
	for i := range want {
		for _, v := range want[i] {
			sum += real(v)*real(v) + imag(v)*imag(v)
			cnt++
		}
	}
	rms := 1.0
	if cnt > 0 && sum > 0 {
		rms = math.Sqrt(sum / float64(cnt))
	}
	worst := 0.0
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("batch %d: length %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if e := cmplx.Abs(got[i][j]-want[i][j]) / rms; e > worst {
				worst = e
			}
		}
	}
	return worst
}

// TestBatchMatchesSingleShotDifferential pins the batching equivalence:
// a full-prefix packed batch over batch sizes {1, 2, 33, 64} must match
// per-buffer single-shot transforms within 1e-9 per bin across three seeds.
// (The paths are in fact bit-identical by construction; the 1e-9 bound is
// the contract.)
func TestBatchMatchesSingleShotDifferential(t *testing.T) {
	sizes := []int{64, 2048}
	batches := []int{1, 2, 33, 64}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range sizes {
			plan := PlanFFT(n)
			bp := PlanBatch(n)
			for _, b := range batches {
				xs := make([][]complex128, b)
				for i := range xs {
					xs[i] = randomComplex(rng, n)
				}
				got := cloneBatch(xs)
				want := cloneBatch(xs)
				bp.ForwardPacked(got, n)
				for _, x := range want {
					plan.Forward(x)
				}
				if worst := batchWorstErr(t, got, want); worst > 1e-9 {
					t.Errorf("seed %d n=%d batch=%d: worst per-bin err %.3g", seed, n, b, worst)
				}
			}
		}
	}
}

// TestBatchForwardPackedMatchesZeroPadded checks the packed forward against
// a plain forward of the same zero-padded buffers, over several prefixes
// including non-power-of-two ones and the degenerate full-length case.
func TestBatchForwardPackedMatchesZeroPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ n, prefix int }{
		{2048, 450}, {2048, 1}, {2048, 512}, {2048, 513}, {2048, 2048},
		{64, 3},
	}
	for _, tc := range cases {
		bp := PlanBatch(tc.n)
		xs := make([][]complex128, 5)
		want := make([][]complex128, 5)
		for i := range xs {
			xs[i] = make([]complex128, tc.n)
			head := randomComplex(rng, tc.prefix)
			copy(xs[i], head)
			want[i] = append([]complex128(nil), xs[i]...)
		}
		bp.ForwardPacked(xs, tc.prefix)
		for _, x := range want {
			PlanFFT(tc.n).Forward(x)
		}
		if worst := batchWorstErr(t, xs, want); worst > 1e-12 {
			t.Errorf("n=%d prefix=%d: packed forward worst err %.3g", tc.n, tc.prefix, worst)
		}
	}
}

// TestBatchForwardPackedIgnoresTailGarbage pins the packed contract: bytes
// beyond NextPowerOfTwo(prefix) are dead on input, so a dirty reused buffer
// needs zeroing only up to that boundary.
func TestBatchForwardPackedIgnoresTailGarbage(t *testing.T) {
	const n, prefix = 2048, 450
	rng := rand.New(rand.NewSource(8))
	head := randomComplex(rng, prefix)

	clean := make([]complex128, n)
	copy(clean, head)
	dirty := make([]complex128, n)
	for i := NextPowerOfTwo(prefix); i < n; i++ {
		dirty[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	copy(dirty, head)
	for i := prefix; i < NextPowerOfTwo(prefix); i++ {
		dirty[i] = 0
	}
	bp := PlanBatch(n)
	bp.ForwardPacked([][]complex128{clean}, prefix)
	bp.ForwardPacked([][]complex128{dirty}, prefix)
	for i := range clean {
		if clean[i] != dirty[i] {
			t.Fatalf("bin %d: %v (clean) vs %v (dirty tail)", i, clean[i], dirty[i])
		}
	}
}

// TestAddBandEnvelopeMatchesMaskedIFFT checks the band-shifted packed
// envelope against the reference formulation the orientation estimator used:
// scatter the band at its absolute position into a full spectrum, inverse
// transform, accumulate magnitudes.
func TestAddBandEnvelopeMatchesMaskedIFFT(t *testing.T) {
	const n = 2048
	rng := rand.New(rand.NewSource(9))
	bp := PlanBatch(n)
	for _, tc := range []struct{ lo, width, env int }{
		{399, 81, 1125}, {1, 3, 64}, {1000, 24, 2048},
	} {
		band := randomComplex(rng, tc.width)

		got := make([]float64, tc.env)
		bp.AddBandEnvelope(got, band)
		bp.AddBandEnvelope(got, band) // accumulation must add, not overwrite

		masked := make([]complex128, n)
		copy(masked[tc.lo:], band)
		PlanFFT(n).Transform(masked, true)
		want := make([]float64, tc.env)
		for i := range want {
			want[i] += 2 * cmplx.Abs(masked[i])
		}
		for i := range want {
			d := got[i] - want[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-9*(1+want[i]) {
				t.Fatalf("lo=%d width=%d env[%d]: got %.12g want %.12g", tc.lo, tc.width, i, got[i], want[i])
			}
		}
	}
}

// TestEvalBinMatchesFFTBin checks single-bin evaluation of a zero-padded
// signal against the corresponding FFT bin, at short and anchor-straddling
// lengths.
func TestEvalBinMatchesFFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, sig int }{
		{2048, 1125}, {2048, 63}, {64, 64}, {256, 1},
	} {
		x := randomComplex(rng, tc.sig)
		full := make([]complex128, tc.n)
		copy(full, x)
		PlanFFT(tc.n).Forward(full)
		for _, bin := range []int{0, 1, tc.n / 3, tc.n - 1} {
			got := EvalBin(x, tc.n, float64(bin))
			if e := cmplx.Abs(got - full[bin]); e > 1e-9*(1+cmplx.Abs(full[bin])) {
				t.Errorf("n=%d sig=%d bin=%d: EvalBin %v vs FFT %v (err %.3g)", tc.n, tc.sig, bin, got, full[bin], e)
			}
		}
	}
}

// evalBinInt is EvalBin as it stood when it took only integer bins: the
// oracle that pins the fractional form bit-identical at integer bins.
func evalBinInt(x []complex128, n, bin int) complex128 {
	step := -2 * math.Pi * float64(bin) / float64(n)
	ws, wc := math.Sincos(step)
	w := complex(wc, ws)
	var acc, z complex128
	for i, v := range x {
		if i%ToneAnchorBlock == 0 {
			s, c := math.Sincos(step * float64(i))
			z = complex(c, s)
		}
		acc += v * z
		z *= w
	}
	return acc
}

// TestEvalBinFractional checks a fractional bin against the longer
// zero-padded FFT that holds it as an integer bin (bin b+k/4 of n points is
// bin 4b+k of 4n points), and an integer bin against the integer-only
// form, bit for bit.
func TestEvalBinFractional(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, sig int }{{512, 450}, {64, 63}, {256, 1}} {
		x := randomComplex(rng, tc.sig)
		full := make([]complex128, 4*tc.n)
		copy(full, x)
		PlanFFT(4 * tc.n).Forward(full)
		for _, b4 := range []int{0, 1, 2, 3, 4*tc.n/3 + 1, 4*tc.n - 1} {
			got := EvalBin(x, tc.n, float64(b4)/4)
			if e := cmplx.Abs(got - full[b4]); e > 1e-9*(1+cmplx.Abs(full[b4])) {
				t.Errorf("n=%d sig=%d bin=%g: EvalBin %v vs %d-point FFT %v (err %.3g)",
					tc.n, tc.sig, float64(b4)/4, got, 4*tc.n, full[b4], e)
			}
		}
		for _, bin := range []int{0, 1, tc.n / 3, tc.n - 1} {
			if got, want := EvalBin(x, tc.n, float64(bin)), evalBinInt(x, tc.n, bin); got != want {
				t.Errorf("n=%d bin=%d: EvalBin %v, integer form %v", tc.n, bin, got, want)
			}
		}
	}
}

// TestBatchPlanConcurrentUse hammers one shared BatchPlan per size from many
// goroutines under -race: the scratch pools are the only mutable state, and
// every concurrent batch must still match its serial single-shot result.
func TestBatchPlanConcurrentUse(t *testing.T) {
	const workers = 8
	sizes := []int{2048, 64}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for iter := 0; iter < 20; iter++ {
				n := sizes[(w+iter)%len(sizes)]
				bp := PlanBatch(n)
				xs := make([][]complex128, 3)
				want := make([][]complex128, 3)
				for i := range xs {
					xs[i] = randomComplex(rng, n)
					want[i] = append([]complex128(nil), xs[i]...)
					PlanFFT(n).Forward(want[i])
				}
				bp.ForwardPacked(xs, n)
				for i := range xs {
					for j := range xs[i] {
						if xs[i][j] != want[i][j] {
							t.Errorf("worker %d iter %d: bin mismatch", w, iter)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBatchPlanPanicsOnBadInput covers the argument contracts.
func TestBatchPlanPanicsOnBadInput(t *testing.T) {
	bp := PlanBatch(64)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	for _, n := range []int{0, 3, 1125} {
		expectPowerOfTwoPanic(t, "PlanBatch", PlanBatch, n)
	}
	expectPanic("length mismatch", func() { bp.ForwardPacked([][]complex128{make([]complex128, 63)}, 1) })
	expectPanic("packed prefix 0", func() { bp.ForwardPacked(nil, 0) })
	expectPanic("packed prefix too big", func() { bp.ForwardPacked(nil, 65) })
	expectPanic("band too wide", func() { bp.AddBandEnvelope(nil, make([]complex128, 65)) })
	expectPanic("band empty", func() { bp.AddBandEnvelope(nil, nil) })
	expectPanic("env too long", func() { bp.AddBandEnvelope(make([]float64, 65), make([]complex128, 2)) })
	expectPanic("EvalBin n<1", func() { EvalBin(nil, 0, 0) })
}
