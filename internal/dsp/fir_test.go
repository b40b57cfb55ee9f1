package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// gainAt evaluates the magnitude response |H(f)| of a filter with at most
// 200 taps at a multiple f of 5 Hz for sample rate 1 kHz: bin f/5 of the
// taps' length-200 DFT is the response at f/fs cycles per sample.
func gainAt(fir *FIR, f int) float64 {
	taps := make([]complex128, len(fir.Taps))
	for i, v := range fir.Taps {
		taps[i] = complex(v, 0)
	}
	return cmplx.Abs(EvalBin(taps, 200, float64(f/5)))
}

func TestLowPassFIRResponse(t *testing.T) {
	fir := LowPassFIR(101, 100, 1000)
	if g := gainAt(fir, 0); math.Abs(g-1) > 1e-6 {
		t.Errorf("DC gain = %g, want 1", g)
	}
	if g := gainAt(fir, 10); math.Abs(g-1) > 0.01 {
		t.Errorf("passband gain at 10 Hz = %g, want ~1", g)
	}
	if g := gainAt(fir, 300); g > 0.01 {
		t.Errorf("stopband gain at 300 Hz = %g, want < 0.01", g)
	}
	if g := gainAt(fir, 450); g > 0.01 {
		t.Errorf("stopband gain at 450 Hz = %g, want < 0.01", g)
	}
}

func TestFIRDesignValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("even taps", func() { LowPassFIR(100, 10, 1000) })
	mustPanic("cutoff above nyquist", func() { LowPassFIR(101, 600, 1000) })
	mustPanic("zero cutoff", func() { LowPassFIR(101, 0, 1000) })
	mustPanic("negative fs", func() { LowPassFIR(101, 10, -1) })
}

func TestFilterImpulseResponse(t *testing.T) {
	fir := &FIR{Taps: []float64{0.25, 0.5, 0.25}}
	x := make([]float64, 8)
	x[0] = 1
	y := fir.Filter(x)
	want := []float64{0.25, 0.5, 0.25, 0, 0, 0, 0, 0}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Fatalf("impulse response = %v, want %v", y, want)
		}
	}
}

func TestFilterCompensatedAlignsPeak(t *testing.T) {
	fs := 1000.0
	fir := LowPassFIR(51, 200, fs)
	n := 300
	x := make([]float64, n)
	x[150] = 1 // impulse in the middle
	y := fir.FilterCompensated(x)
	if got := ArgMax(y); got != 150 {
		t.Fatalf("compensated peak at %d, want 150", got)
	}
}

func TestWindows(t *testing.T) {
	for name, wf := range map[string]func(int) []float64{
		"hann": Hann, "hamming": Hamming,
	} {
		w := wf(64)
		if len(w) != 64 {
			t.Errorf("%s: length %d", name, len(w))
		}
		for i, v := range w {
			if v < -1e-6 || v > 1+1e-9 {
				t.Errorf("%s: w[%d]=%g outside [0,1]", name, i, v)
			}
		}
		// Symmetric windows.
		for i := 0; i < 32; i++ {
			if math.Abs(w[i]-w[63-i]) > 1e-12 {
				t.Errorf("%s: not symmetric at %d", name, i)
			}
		}
		if len(wf(1)) != 1 || wf(1)[0] != 1 {
			t.Errorf("%s: single-point window should be {1}", name)
		}
	}
	// Hann endpoints are zero; Hamming endpoints are 0.08.
	h := Hann(65)
	if math.Abs(h[0]) > 1e-12 {
		t.Errorf("Hann endpoint = %g, want 0", h[0])
	}
	hm := Hamming(65)
	if math.Abs(hm[0]-0.08) > 1e-12 {
		t.Errorf("Hamming endpoint = %g, want 0.08", hm[0])
	}
	// Peak of odd-length windows is at the centre and equals ~1.
	if math.Abs(h[32]-1) > 1e-12 {
		t.Errorf("Hann centre = %g, want 1", h[32])
	}
}
