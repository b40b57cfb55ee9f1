package waveform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMilBackChirpParameters(t *testing.T) {
	loc := MilBackLocalizationChirp()
	if loc.Shape != Sawtooth || loc.Duration != 18e-6 {
		t.Errorf("localization chirp = %+v, want 18 µs sawtooth", loc)
	}
	if loc.Bandwidth() != 3e9 {
		t.Errorf("localization bandwidth = %g, want 3 GHz", loc.Bandwidth())
	}
	ori := MilBackOrientationChirp()
	if ori.Shape != Triangular || ori.Duration != 45e-6 {
		t.Errorf("orientation chirp = %+v, want 45 µs triangular", ori)
	}
	if err := loc.Validate(); err != nil {
		t.Errorf("localization chirp invalid: %v", err)
	}
	if err := ori.Validate(); err != nil {
		t.Errorf("orientation chirp invalid: %v", err)
	}
}

func TestChirpValidate(t *testing.T) {
	bad := []Chirp{
		{Shape: Sawtooth, FreqLow: 29.5e9, FreqHigh: 26.5e9, Duration: 1e-6},
		{Shape: Sawtooth, FreqLow: 0, FreqHigh: 1e9, Duration: 1e-6},
		{Shape: Sawtooth, FreqLow: 1e9, FreqHigh: 2e9, Duration: 0},
		{Shape: ChirpShape(7), FreqLow: 1e9, FreqHigh: 2e9, Duration: 1e-6},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("chirp %d: expected error", i)
		}
	}
}

func TestSawtoothFrequencySweep(t *testing.T) {
	c := MilBackLocalizationChirp()
	if f := c.FrequencyAt(0); f != 26.5e9 {
		t.Errorf("start frequency = %g", f)
	}
	if f := c.FrequencyAt(c.Duration); math.Abs(f-29.5e9) > 1 {
		t.Errorf("end frequency = %g", f)
	}
	if f := c.FrequencyAt(c.Duration / 2); math.Abs(f-28e9) > 1 {
		t.Errorf("mid frequency = %g, want 28 GHz", f)
	}
	// Clamping outside the chirp.
	if f := c.FrequencyAt(-1); f != 26.5e9 {
		t.Errorf("pre-chirp clamp = %g", f)
	}
	if f := c.FrequencyAt(1); math.Abs(f-29.5e9) > 1 {
		t.Errorf("post-chirp clamp = %g", f)
	}
	// Slope = B/T.
	if s := c.Slope(); math.Abs(s-3e9/18e-6)/s > 1e-12 {
		t.Errorf("slope = %g", s)
	}
}

func TestTriangularFrequencySweep(t *testing.T) {
	c := MilBackOrientationChirp()
	if f := c.FrequencyAt(0); f != 26.5e9 {
		t.Errorf("start = %g", f)
	}
	if f := c.FrequencyAt(c.Duration / 2); math.Abs(f-29.5e9) > 1 {
		t.Errorf("apex = %g, want 29.5 GHz", f)
	}
	if f := c.FrequencyAt(c.Duration); math.Abs(f-26.5e9) > 1 {
		t.Errorf("end = %g, want back to 26.5 GHz", f)
	}
	// Symmetry: f(T/2 - x) == f(T/2 + x).
	prop := func(xRaw float64) bool {
		x := math.Abs(math.Mod(xRaw, c.Duration/2))
		a := c.FrequencyAt(c.Duration/2 - x)
		b := c.FrequencyAt(c.Duration/2 + x)
		return math.Abs(a-b) < 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// peakSeparationForFrequency returns Δt, the time between the up-sweep and
// down-sweep instants a triangular chirp passes through frequency f.
func peakSeparationForFrequency(c Chirp, f float64) float64 {
	up := (f - c.FreqLow) / c.Slope()
	down := c.Duration/2 + (c.FreqHigh-f)/c.Slope()
	return down - up
}

func TestPeakSeparationRoundTrip(t *testing.T) {
	// Fig 5's observable: Δt uniquely encodes the aligned frequency, and the
	// node inverts it. Round-trip across the band.
	tri := MilBackOrientationChirp()
	prop := func(fracRaw float64) bool {
		frac := math.Abs(math.Mod(fracRaw, 1))
		f := 26.5e9 + frac*3e9
		dt := peakSeparationForFrequency(tri, f)
		back := tri.FrequencyForPeakSeparation(dt)
		return math.Abs(back-f) < 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Monotone: higher aligned frequency ⇒ smaller separation (peaks nearer
	// the apex).
	dLow := peakSeparationForFrequency(tri, 27e9)
	dHigh := peakSeparationForFrequency(tri, 29e9)
	if dHigh >= dLow {
		t.Errorf("Δt not monotone: %g at 29 GHz vs %g at 27 GHz", dHigh, dLow)
	}
	// Band edges: apex frequency gives Δt = 0... at f = FreqHigh both
	// crossings coincide at T/2; at f = FreqLow, Δt = T.
	if dt := peakSeparationForFrequency(tri, 29.5e9); math.Abs(dt) > 1e-12 {
		t.Errorf("apex separation = %g, want 0", dt)
	}
	if dt := peakSeparationForFrequency(tri, 26.5e9); math.Abs(dt-tri.Duration) > 1e-12 {
		t.Errorf("band-low separation = %g, want full duration", dt)
	}
}

func TestPeakSeparationPanicsOnSawtooth(t *testing.T) {
	saw := MilBackLocalizationChirp()
	for _, f := range []func(){
		func() { saw.FrequencyForPeakSeparation(1e-6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on sawtooth")
				}
			}()
			f()
		}()
	}
}

func TestFrequencyForPeakSeparationClamps(t *testing.T) {
	tri := MilBackOrientationChirp()
	if f := tri.FrequencyForPeakSeparation(-1); f != tri.FreqHigh {
		t.Errorf("negative Δt should clamp to band top, got %g", f)
	}
	if f := tri.FrequencyForPeakSeparation(1); f != tri.FreqLow {
		t.Errorf("huge Δt should clamp to band bottom, got %g", f)
	}
}

func TestBeatFrequencyAndRange(t *testing.T) {
	c := MilBackLocalizationChirp()
	// 8 m round trip: τ = 16/c ≈ 53.4 ns; beat = slope·τ ≈ 8.9 MHz.
	tau := 16.0 / 299792458.0
	fb := c.BeatFrequency(tau)
	if math.Abs(fb-8.896e6)/fb > 0.01 {
		t.Errorf("beat = %g, want ~8.9 MHz", fb)
	}
	if got := c.DelayForBeat(fb); math.Abs(got-tau)/tau > 1e-12 {
		t.Errorf("DelayForBeat round trip failed")
	}
}

func TestSampleCount(t *testing.T) {
	c := MilBackLocalizationChirp()
	if n := c.SampleCount(25e6); n != 450 {
		t.Errorf("samples = %d, want 450", n)
	}
	if n := c.SampleCount(1); n != 1 {
		t.Errorf("minimum sample count = %d, want 1", n)
	}
}

func TestInstantaneousFrequencies(t *testing.T) {
	c := MilBackLocalizationChirp()
	fs := 25e6
	freqs := c.InstantaneousFrequencies(fs, 450)
	if len(freqs) != 450 {
		t.Fatalf("len = %d", len(freqs))
	}
	for i := 1; i < len(freqs); i++ {
		if freqs[i] <= freqs[i-1] {
			t.Fatalf("sawtooth instantaneous frequency not increasing at %d", i)
		}
	}
}

func TestPhaseDerivativeMatchesFrequency(t *testing.T) {
	// dφ/dt / 2π == instantaneous frequency, for both shapes.
	rng := rand.New(rand.NewSource(3))
	for _, c := range []Chirp{MilBackLocalizationChirp(), MilBackOrientationChirp()} {
		for i := 0; i < 50; i++ {
			tt := rng.Float64() * c.Duration
			h := 1e-12
			if tt+h > c.Duration {
				tt = c.Duration - 2*h
			}
			df := (c.Phase(tt+h) - c.Phase(tt-h)) / (2 * h) / (2 * math.Pi)
			want := c.FrequencyAt(tt)
			if math.Abs(df-want)/want > 1e-3 {
				t.Fatalf("%v: numeric dφ/dt = %g, want %g at t=%g", c.Shape, df, want, tt)
			}
		}
	}
	if Sawtooth.String() != "sawtooth" || Triangular.String() != "triangular" {
		t.Error("shape names")
	}
}
