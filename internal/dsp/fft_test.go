package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dftReference is a direct O(n^2) DFT used as the ground truth for FFT tests.
func dftReference(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for i := 0; i < n; i++ {
			ph := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			s, c := math.Sincos(ph)
			acc += x[i] * complex(c, s)
		}
		out[k] = acc
	}
	return out
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesDFTReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 128, 256} {
		x := randomComplex(rng, n)
		want := dftReference(x)
		PlanFFT(n).Forward(x)
		if e := maxErr(x, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: FFT deviates from reference DFT by %g", n, e)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	expectPowerOfTwoPanic(t, "PlanFFT", PlanFFT, 0)
	x := []complex128{3 + 4i}
	PlanFFT(1).Forward(x)
	if x[0] != 3+4i {
		t.Fatalf("FFT of single sample = %v, want %v", x[0], 3+4i)
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 64, 1024} {
		x := randomComplex(rng, n)
		y := append([]complex128(nil), x...)
		PlanFFT(n).Forward(y)
		PlanFFT(n).Transform(y, true)
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: IFFT(FFT(x)) deviates from x by %g", n, e)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (sizeSel % 9)
		r := rand.New(rand.NewSource(seed))
		x := randomComplex(r, n)
		y := append([]complex128(nil), x...)
		PlanFFT(n).Forward(y)
		PlanFFT(n).Transform(y, true)
		return maxErr(x, y) < 1e-8*float64(n)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/N) sum |X|^2 for any signal.
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (sizeSel % 8)
		r := rand.New(rand.NewSource(seed))
		x := randomComplex(r, n)
		var et, ef float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		PlanFFT(n).Forward(x)
		for _, v := range x {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(n)
		return math.Abs(et-ef) <= 1e-7*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	a := randomComplex(rng, n)
	b := randomComplex(rng, n)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = 2*a[i] + 3i*b[i]
	}
	plan := PlanFFT(n)
	plan.Forward(a)
	plan.Forward(b)
	plan.Forward(sum)
	for i := range sum {
		want := 2*a[i] + 3i*b[i]
		if cmplx.Abs(sum[i]-want) > 1e-8 {
			t.Fatalf("bin %d: linearity violated: got %v want %v", i, sum[i], want)
		}
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	// A pure complex exponential at bin k must concentrate all energy there.
	n := 256
	k := 37
	x := make([]complex128, n)
	for i := range x {
		ph := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		s, c := math.Sincos(ph)
		x[i] = complex(c, s)
	}
	PlanFFT(n).Forward(x)
	for i := range x {
		mag := cmplx.Abs(x[i])
		if i == k {
			if math.Abs(mag-float64(n)) > 1e-8 {
				t.Fatalf("bin %d magnitude = %g, want %d", k, mag, n)
			}
		} else if mag > 1e-7 {
			t.Fatalf("bin %d magnitude = %g, want ~0", i, mag)
		}
	}
}

func TestFFTInPlacePanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("in-place FFT of length 3 did not panic")
		}
	}()
	buf := make([]complex128, 3)
	PlanFFT(len(buf)).Forward(buf)
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextPowerOfTwo(0) did not panic")
		}
	}()
	NextPowerOfTwo(0)
}

func TestMagnitudesAndPowerSpectrum(t *testing.T) {
	x := []complex128{3 + 4i, -5, 0}
	mags := Magnitudes(x)
	wantM := []float64{5, 5, 0}
	for i := range x {
		if math.Abs(mags[i]-wantM[i]) > 1e-12 {
			t.Errorf("magnitude[%d] = %g, want %g", i, mags[i], wantM[i])
		}
	}
}
