package node

import (
	"math"
	"testing"

	"repro/internal/rfsim"
)

func TestEnvelopeVoltsFromPower(t *testing.T) {
	d := DefaultDetector()
	// P = a²/(2·50): 1 mW across 50 Ω ⇒ a = sqrt(0.1) ≈ 0.316 V.
	if a := d.EnvelopeVoltsFromPower(1e-3); math.Abs(a-0.31623) > 1e-4 {
		t.Errorf("envelope of 0 dBm = %g V, want 0.316", a)
	}
	if a := d.EnvelopeVoltsFromPower(0); a != 0 {
		t.Errorf("zero power envelope = %g", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative power did not panic")
		}
	}()
	d.EnvelopeVoltsFromPower(-1)
}

func TestOutputVoltsLinearInEnvelope(t *testing.T) {
	d := DefaultDetector()
	// Linear-responding detector: 4x power ⇒ 2x output voltage.
	v1 := d.OutputVolts(1e-6)
	v4 := d.OutputVolts(4e-6)
	if math.Abs(v4/v1-2) > 1e-9 {
		t.Errorf("output ratio = %g, want 2 (linear in envelope)", v4/v1)
	}
}

func TestNoiseVrmsScalesWithBandwidth(t *testing.T) {
	d := DefaultDetector()
	full := d.NoiseVrms(d.VideoBandwidthHz)
	if math.Abs(full-d.NoiseVrmsAtFullBW) > 1e-15 {
		t.Errorf("full-BW noise = %g, want %g", full, d.NoiseVrmsAtFullBW)
	}
	quarter := d.NoiseVrms(d.VideoBandwidthHz / 4)
	if math.Abs(quarter-full/2) > 1e-12 {
		t.Errorf("quarter-BW noise = %g, want half of %g", quarter, full)
	}
	// Requesting more than the video bandwidth clamps.
	if over := d.NoiseVrms(10 * d.VideoBandwidthHz); math.Abs(over-full) > 1e-15 {
		t.Errorf("over-BW noise = %g, want clamp to %g", over, full)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth did not panic")
		}
	}()
	d.NoiseVrms(0)
}

func TestDetectSeriesFollowsPower(t *testing.T) {
	d := DefaultDetector()
	fs := 1e6 // 1 MHz sampling: far below video BW, output tracks instantly
	p := make([]float64, 100)
	for i := 50; i < 100; i++ {
		p[i] = 1e-6
	}
	v := d.DetectSeries(p, fs, nil)
	if v[49] > 1e-9 {
		t.Errorf("output before step = %g", v[49])
	}
	want := d.OutputVolts(1e-6)
	if math.Abs(v[99]-want)/want > 0.01 {
		t.Errorf("settled output = %g, want %g", v[99], want)
	}
}

func TestDetectSeriesVideoBandwidthLimits(t *testing.T) {
	// At a sample rate far above the video bandwidth, a one-sample pulse is
	// smeared: the detector cannot follow it.
	d := DefaultDetector()
	d2 := *d
	d2.VideoBandwidthHz = 10e6 // slow detector
	fs := 10e9
	p := make([]float64, 1000)
	for i := 400; i < 410; i++ { // 1 ns pulse
		p[i] = 1e-6
	}
	fast := d.DetectSeries(p, fs, nil)
	slow := d2.DetectSeries(p, fs, nil)
	maxOf := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(slow) > 0.2*maxOf(fast) {
		t.Errorf("slow detector peak %g should be far below fast %g", maxOf(slow), maxOf(fast))
	}
}

func TestDetectSeriesNoise(t *testing.T) {
	d := DefaultDetector()
	ns := rfsim.NewNoiseSource(3)
	fs := 1e6
	p := make([]float64, 20000)
	v := d.DetectSeries(p, fs, ns)
	// With zero signal, output is pure noise at the fs/2 bandwidth level.
	var sum, sq float64
	for _, x := range v {
		sum += x
		sq += x * x
	}
	mean := sum / float64(len(v))
	sigma := math.Sqrt(sq/float64(len(v)) - mean*mean)
	want := d.NoiseVrms(fs / 2)
	if math.Abs(sigma-want)/want > 0.1 {
		t.Errorf("noise sigma = %g, want %g", sigma, want)
	}
	// Determinism: same seed, same trace.
	v2 := d.DetectSeries(p, fs, rfsim.NewNoiseSource(3))
	for i := range v {
		if v[i] != v2[i] {
			t.Fatal("detector noise not reproducible")
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	bad := &EnvelopeDetector{}
	for _, f := range []func(){
		func() { bad.OutputVolts(1) },
		func() { DefaultDetector().DetectSeries(nil, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
