package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float64{7, 7, 7}); got != 0 {
		t.Fatalf("ArgMax ties = %d, want first index 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ArgMax(empty) did not panic")
		}
	}()
	ArgMax(nil)
}

func TestMaxPeakParabolicInterpolation(t *testing.T) {
	// Sample a parabola whose true vertex sits between samples; the refined
	// position must recover it exactly (parabolic interpolation is exact on
	// parabolas).
	vertex := 10.3
	x := make([]float64, 21)
	for i := range x {
		d := float64(i) - vertex
		x[i] = 5 - d*d
	}
	p := MaxPeak(x)
	if math.Abs(p.Position-vertex) > 1e-9 {
		t.Fatalf("refined position = %g, want %g", p.Position, vertex)
	}
	if math.Abs(p.Value-5) > 1e-9 {
		t.Fatalf("refined value = %g, want 5", p.Value)
	}
}

func TestMaxPeakSincInterpolationAccuracy(t *testing.T) {
	// An off-bin windowed tone: interpolation should land within a tenth of
	// a bin, vs half a bin for plain ArgMax.
	n := 256
	trueBin := 40.37
	x := make([]complex128, n)
	for i := range x {
		ph := 2 * math.Pi * trueBin * float64(i) / float64(n)
		s, c := math.Sincos(ph)
		x[i] = complex(c, s)
	}
	w := Hann(n)
	for i := range x {
		x[i] *= complex(w[i], 0)
	}
	PlanFFT(n).Forward(x)
	mags := Magnitudes(x)
	p := MaxPeak(mags[:n/2])
	if math.Abs(p.Position-trueBin) > 0.1 {
		t.Fatalf("interpolated bin = %g, want %g +- 0.1", p.Position, trueBin)
	}
}

func TestMaxPeakEdges(t *testing.T) {
	// Peak at an edge: no interpolation, position == index.
	x := []float64{9, 1, 0}
	p := MaxPeak(x)
	if p.Index != 0 || p.Position != 0 || p.Value != 9 {
		t.Fatalf("edge peak = %+v", p)
	}
	// Flat plateau: the refinement clamps within half a bin of the index.
	flat := []float64{1, 2, 2, 2, 1}
	pf := MaxPeak(flat)
	if math.Abs(pf.Position-float64(pf.Index)) > 0.5 {
		t.Fatalf("flat peak position = %g, index %d: clamp violated", pf.Position, pf.Index)
	}
	// Perfectly symmetric peak: no shift at all.
	sym := []float64{0, 1, 2, 1, 0}
	ps := MaxPeak(sym)
	if ps.Position != 2 {
		t.Fatalf("symmetric peak position = %g, want 2", ps.Position)
	}
}

func TestMaxPeakInRange(t *testing.T) {
	x := []float64{10, 1, 2, 8, 3, 1}
	p, ok := MaxPeakInRange(x, 1, len(x))
	if !ok || p.Index != 3 {
		t.Fatalf("peak in range = %d (ok=%v), want 3", p.Index, ok)
	}
	// Clamping.
	p, ok = MaxPeakInRange(x, -5, 100)
	if !ok || p.Index != 0 {
		t.Fatalf("clamped peak = %d (ok=%v), want 0", p.Index, ok)
	}
	// Empty ranges — literal, inverted, and empty-after-clamping — report
	// !ok instead of panicking: callers pass computed bounds.
	for _, r := range [][2]int{{4, 4}, {5, 2}, {17, 99}, {-3, 0}} {
		if _, ok := MaxPeakInRange(x, r[0], r[1]); ok {
			t.Errorf("MaxPeakInRange(x, %d, %d) reported ok on empty range", r[0], r[1])
		}
	}
	if _, ok := MaxPeakInRange(nil, 0, 10); ok {
		t.Error("MaxPeakInRange(nil, ...) reported ok")
	}
}

func TestFindPeaks(t *testing.T) {
	x := []float64{0, 1, 0, 0, 3, 0, 0, 2, 0}
	peaks := FindPeaks(x, 0.5, 1)
	if len(peaks) != 3 {
		t.Fatalf("found %d peaks, want 3", len(peaks))
	}
	if peaks[0].Index != 4 || peaks[1].Index != 7 || peaks[2].Index != 1 {
		t.Fatalf("peaks sorted wrong: %+v", peaks)
	}
	// Threshold filters the small one.
	peaks = FindPeaks(x, 1.5, 1)
	if len(peaks) != 2 {
		t.Fatalf("threshold: found %d peaks, want 2", len(peaks))
	}
	// minDistance suppresses close-by smaller peaks.
	y := []float64{0, 5, 0, 4, 0, 0, 0, 0, 3, 0}
	peaks = FindPeaks(y, 0, 4)
	if len(peaks) != 2 || peaks[0].Index != 1 || peaks[1].Index != 8 {
		t.Fatalf("minDistance: %+v", peaks)
	}
}

func TestRefinedPeakStaysNearIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		p := MaxPeak(x)
		return math.Abs(p.Position-float64(p.Index)) <= 0.5 && p.Value >= x[p.Index]-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
