package ap

import (
	"math"
	"testing"

	"repro/internal/rfsim"
)

// movingTarget builds a toggling target with the given radial velocity.
func movingTarget(d, vel float64) *BackscatterTarget {
	t := pointTarget(rfsim.Point{X: d}, 25)
	t.RadialVelocityMS = vel
	return t
}

func TestEstimateRadialVelocity(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	for _, vel := range []float64{-5, -1.2, 0, 0.5, 3, 20} {
		tgt := movingTarget(3, vel)
		frames := synth(t)(a.SynthesizeChirps(0, c, 32, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(int64(vel*10)+900)))
		loc, err := a.ProcessLocalization(c, frames)
		if err != nil {
			t.Fatalf("v=%g: %v", vel, err)
		}
		got, err := a.EstimateRadialVelocity(c, frames, loc.PeakBin)
		if err != nil {
			t.Fatalf("v=%g: %v", vel, err)
		}
		if math.Abs(got-vel) > 0.3+0.02*math.Abs(vel) {
			t.Errorf("v=%g: estimated %.3f", vel, got)
		}
	}
}

func TestVelocityAliasingLimit(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	vmax := a.MaxUnambiguousVelocity(c)
	// 50 µs CRI at the 25 GHz effective carrier: ±60 m/s.
	if math.Abs(vmax-60) > 1 {
		t.Errorf("vmax = %.1f, want ~60", vmax)
	}
	// A velocity just past the limit aliases (estimate far from truth).
	tgt := movingTarget(3, vmax*1.5)
	frames := synth(t)(a.SynthesizeChirps(0, c, 32, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(901)))
	loc, err := a.ProcessLocalization(c, frames)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.EstimateRadialVelocity(c, frames, loc.PeakBin)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-vmax*1.5) < 10 {
		t.Errorf("super-aliasing velocity should not be recovered, got %.1f for %.1f", got, vmax*1.5)
	}
}

func TestEstimateRadialVelocityValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	tgt := movingTarget(3, 1)
	frames := synth(t)(a.SynthesizeChirps(0, c, 32, []*BackscatterTarget{tgt}, GridTable{}, nil, nil))
	if _, err := a.EstimateRadialVelocity(c, frames[:2], 100); err == nil {
		t.Error("2 chirps should fail")
	}
	if _, err := a.EstimateRadialVelocity(c, frames, 0); err == nil {
		t.Error("bin 0 should fail")
	}
	if _, err := a.EstimateRadialVelocity(c, frames, 1<<20); err == nil {
		t.Error("huge bin should fail")
	}
	if _, err := a.EstimateRadialVelocity(c, frames, math.NaN()); err == nil {
		t.Error("NaN bin should fail")
	}
	// Empty bin: no coherent signal.
	empty := synth(t)(a.SynthesizeChirps(0, c, 8, nil, GridTable{}, nil, nil))
	if _, err := a.EstimateRadialVelocity(c, empty, 100); err == nil {
		t.Error("empty capture should fail")
	}
}

func TestChirpIntervalValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChirpIntervalS = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero chirp interval should fail")
	}
}
