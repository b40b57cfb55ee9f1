package ap

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.TxPowerW = 0 },
		func(c *Config) { c.BeatSampleRateHz = 0 },
		func(c *Config) { c.FFTSize = 1000 }, // not a power of two
		func(c *Config) { c.FFTSize = 4 },
		func(c *Config) { c.RxSpacingM = 0 },
		func(c *Config) { c.NoiseFigureDB = -1 },
		func(c *Config) { c.ImplementationLossDB = -1 },
		func(c *Config) { c.LocalizationChirp.Duration = 0 },
		func(c *Config) { c.OrientationChirp.FreqLow = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("New with zero config should fail")
	}
}

func TestNewDefaultsToEmptyScene(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	if a.Scene() == nil || len(a.Scene().Reflectors) != 0 {
		t.Fatal("nil scene should become an empty scene")
	}
	if a.Config().TxPowerW != 0.5 {
		t.Errorf("tx power = %g, want 0.5 W (27 dBm)", a.Config().TxPowerW)
	}
}

// TestSteer pins that the pointing belongs to the call: a capture pointed
// at a node receives its toggling reflection stronger than one pointed
// away, and a capture at another pointing in between leaves the next
// capture at the first pointing bit-identical.
func TestSteer(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	az := rfsim.DegToRad(15)
	tgt := pointTarget(rfsim.PolarPoint(3, az), 25)
	capture := func(steer float64) []ChirpFrame {
		return synth(t)(a.SynthesizeChirps(steer, c, 2, []*BackscatterTarget{tgt}, GridTable{}, nil, nil))
	}
	// The chirp-to-chirp difference holds only the toggling target.
	swing := func(f []ChirpFrame) float64 {
		var e float64
		for i, v := range f[1].Rx[0] {
			d := v - f[0].Rx[0][i]
			e += real(d)*real(d) + imag(d)*imag(d)
		}
		return e
	}
	on := capture(az)
	if off := capture(-az); swing(on) <= 10*swing(off) {
		t.Errorf("node swing pointed at it %g, pointed away %g: want the beam to favour it by > 10 dB", swing(on), swing(off))
	}
	if again := capture(az); !slices.EqualFunc(on, again, sameFrames) {
		t.Error("a capture at another pointing changed the next capture at the first")
	}
}

// pointTarget builds a frequency-flat target that reflects with the given
// equivalent gain on odd chirps and absorbs (gain−20 dB) on even chirps,
// i.e. the §5.1 node switching pattern.
func pointTarget(pos rfsim.Point, gainDBi float64) *BackscatterTarget {
	return ConstantGainTarget(pos, gainDBi-20, gainDBi)
}

// synth returns an unwrapper for SynthesizeChirps* results at call sites
// with known-good arguments, curried so the multi-valued call can be the
// closure's entire argument list.
func synth(tb testing.TB) func([]ChirpFrame, error) []ChirpFrame {
	return func(frames []ChirpFrame, err error) []ChirpFrame {
		tb.Helper()
		if err != nil {
			tb.Fatalf("synthesize: %v", err)
		}
		return frames
	}
}

func TestSynthesizeChirpsBasics(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgt := pointTarget(rfsim.Point{X: 3}, 25)
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(1)))
	if len(frames) != 5 {
		t.Fatalf("frames = %d", len(frames))
	}
	want := c.SampleCount(a.Config().BeatSampleRateHz)
	for k, f := range frames {
		for m := 0; m < 2; m++ {
			if len(f.Rx[m]) != want {
				t.Fatalf("frame %d rx %d: %d samples, want %d", k, m, len(f.Rx[m]), want)
			}
		}
	}
	// Consecutive chirps differ (node modulation + noise).
	same := true
	for i := range frames[0].Rx[0] {
		if frames[0].Rx[0][i] != frames[1].Rx[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive chirps identical despite node modulation")
	}
}

func TestSynthesizeChirpsValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	for i, f := range []func() ([]ChirpFrame, error){
		func() ([]ChirpFrame, error) {
			return a.SynthesizeChirps(0, waveform.Chirp{}, 5, nil, GridTable{}, nil, nil)
		},
		func() ([]ChirpFrame, error) {
			return a.SynthesizeChirps(0, a.Config().LocalizationChirp, 0, nil, GridTable{}, nil, nil)
		},
	} {
		frames, err := f()
		if err == nil {
			t.Errorf("case %d: expected error", i)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("case %d: error %v does not wrap ErrInvalidConfig", i, err)
		}
		if frames != nil {
			t.Errorf("case %d: got frames alongside error", i)
		}
	}
}

func TestProcessLocalizationRecoversRange(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	for _, d := range []float64{1, 2.5, 5, 8} {
		tgt := pointTarget(rfsim.Point{X: d}, 25)
		frames := synth(t)(a.SynthesizeChirps(0, c, 5, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(int64(d*100))))
		res, err := a.ProcessLocalization(c, frames)
		if err != nil {
			t.Fatalf("d=%g: %v", d, err)
		}
		// Single-trial tolerance: sweep nonlinearity contributes ~1.2%·d.
		if math.Abs(res.RangeM-d) > 0.02+0.05*d {
			t.Errorf("d=%g: estimated %g m (err %.3f m)", d, res.RangeM, math.Abs(res.RangeM-d))
		}
	}
}

func TestProcessLocalizationRecoversAngle(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	for _, deg := range []float64{-30, -10, 0, 12, 25} {
		pos := rfsim.PolarPoint(3, rfsim.DegToRad(deg))
		tgt := pointTarget(pos, 25)
		// The AP tracks the node's direction.
		frames := synth(t)(a.SynthesizeChirps(rfsim.DegToRad(deg), c, 5, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(int64(deg)+500)))
		res, err := a.ProcessLocalization(c, frames)
		if err != nil {
			t.Fatalf("deg=%g: %v", deg, err)
		}
		got := rfsim.RadToDeg(res.AzimuthRad)
		// Single-trial tolerance: the per-capture receive-chain phase
		// mismatch alone contributes ~1.6° typical error (Fig 12b).
		if math.Abs(got-deg) > 6 {
			t.Errorf("deg=%g: estimated %.2f°", deg, got)
		}
	}
}

func TestBackgroundSubtractionRemovesClutter(t *testing.T) {
	// Without subtraction the wall (RCS 10 m²) dwarfs the node; with the
	// §5.1 pipeline the node dominates the subtracted profile. Verify by
	// ranging a weak node sitting closer than a strong wall.
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgt := pointTarget(rfsim.Point{X: 4}, 12) // modest node gain
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(7)))
	res, err := a.ProcessLocalization(c, frames)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if math.Abs(res.RangeM-4) > 0.2 {
		t.Errorf("range = %g m, want 4 (node, not the 12 m wall or 3 m desk)", res.RangeM)
	}
}

// clutterTracker drives one long-lived AP over scene and requires every
// capture to match, bit for bit, a fresh AP built over a copy of the scene
// as it then stands: the per-capture clutter scratch never serves an
// earlier capture's geometry. Each step also states whether the capture
// must differ from the previous one, or the comparison could not see stale
// paths.
func clutterTracker(t *testing.T, scene *rfsim.Scene) func(name string, pointing float64, mutate func(), wantChange bool) {
	a := MustNew(DefaultConfig(), scene)
	c := a.Config().LocalizationChirp
	tgt := pointTarget(rfsim.Point{X: 4, Y: 0.5}, 25)
	capture := func(ap *AP, pointing float64) []ChirpFrame {
		return synth(t)(ap.SynthesizeChirps(pointing, c, 2, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(5)))
	}
	same := func(x, y []ChirpFrame) bool {
		return slices.EqualFunc(x, y, sameFrames)
	}
	var prev []ChirpFrame
	return func(name string, pointing float64, mutate func(), wantChange bool) {
		t.Helper()
		mutate()
		got := capture(a, pointing)
		cp := &rfsim.Scene{Reflectors: slices.Clone(scene.Reflectors), Obstructions: slices.Clone(scene.Obstructions)}
		if want := capture(MustNew(DefaultConfig(), cp), pointing); !same(got, want) {
			t.Fatalf("%s: long-lived AP diverged from a fresh AP over the same scene", name)
		}
		if prev != nil && same(got, prev) == wantChange {
			t.Fatalf("%s: capture changed = %v, want %v", name, !same(got, prev), wantChange)
		}
		prev = got
	}
}

// TestClutterIncrementalInvalidation checks that each scene edit
// invalidates the clutter paths of earlier captures, and only as far as
// it should: steering and a blocker that crosses no AP→reflector ray leave
// the paths for a pointing as they were, while a blocker on a ray, its
// removal and a moved or added reflector change the next capture.
func TestClutterIncrementalInvalidation(t *testing.T) {
	scene := rfsim.DefaultIndoorScene()
	step := clutterTracker(t, scene)
	step("initial", 0, func() {}, true)
	step("steer away", 0.3, func() {}, true)
	step("steer back", 0, func() {}, true)
	step("off-path blocker", 0, func() {
		scene.AddObstruction(rfsim.Obstruction{Name: "far", A: rfsim.Point{X: -5, Y: -5}, B: rfsim.Point{X: -5, Y: -6}, LossDB: 30})
	}, false)
	step("blocker on the back-wall ray", 0, func() {
		scene.AddObstruction(rfsim.Obstruction{Name: "cabinet", A: rfsim.Point{X: 6, Y: -0.3}, B: rfsim.Point{X: 6, Y: 0.3}, LossDB: 40})
	}, true)
	step("steer away over the blocker", 0.3, func() {}, true)
	step("blocker removed", 0.3, func() { scene.RemoveObstruction("cabinet") }, true)
	step("reflector moved", 0.3, func() { scene.Reflectors[2].Position = rfsim.Point{X: 3.2, Y: -1.5} }, true) // the desk
	step("reflector added", 0.3, func() {
		scene.Reflectors = append(scene.Reflectors, rfsim.Reflector{Name: "cart", Position: rfsim.Point{X: 8, Y: -2}, RCS: 2})
	}, true)
}

// TestClutterMoveObstruction checks a blocker walking behind the AP, off
// every clutter ray, leaves the capture as it was, and one stepping onto a
// ray changes it.
func TestClutterMoveObstruction(t *testing.T) {
	scene := rfsim.DefaultIndoorScene()
	step := clutterTracker(t, scene)
	step("blocker behind the AP", 0, func() {
		scene.AddObstruction(rfsim.Obstruction{Name: "person", A: rfsim.Point{X: -3, Y: 1}, B: rfsim.Point{X: -3, Y: 2}, LossDB: 25})
	}, true)
	person := func() *rfsim.Obstruction { return &scene.Obstructions[0] }
	for i := 1; i < 4; i++ {
		y := 1 + 0.1*float64(i)
		step(fmt.Sprintf("walk step %d", i), 0, func() {
			person().A, person().B = rfsim.Point{X: -3, Y: y}, rfsim.Point{X: -3, Y: y + 1}
		}, false)
	}
	step("onto the back-wall ray", 0, func() {
		person().A, person().B = rfsim.Point{X: 6, Y: -1}, rfsim.Point{X: 6, Y: 1}
	}, true)
}

func TestProcessLocalizationFailsWithoutTarget(t *testing.T) {
	// No node: nothing survives subtraction except noise — the AP must not
	// hallucinate a range.
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, nil, GridTable{}, nil, rfsim.NewNoiseSource(9)))
	if _, err := a.ProcessLocalization(c, frames); err == nil {
		t.Fatal("expected failure with no modulated target")
	}
	// Fewer than 2 chirps cannot be subtracted.
	if _, err := a.ProcessLocalization(c, frames[:1]); err == nil {
		t.Fatal("expected failure with a single chirp")
	}
}

func TestStaticTargetInvisibleModulatedVisible(t *testing.T) {
	// A target that does NOT modulate is removed by subtraction, exactly
	// like clutter — switching is what makes the node detectable (§5.1).
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	static := ConstantGainTarget(rfsim.Point{X: 4}, 25)
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, []*BackscatterTarget{static}, GridTable{}, nil, rfsim.NewNoiseSource(11)))
	if _, err := a.ProcessLocalization(c, frames); err == nil {
		t.Fatal("static target should not be detected")
	}
}

// testMaskHz is the orientation mask half-width core configures by default.
const testMaskHz = 488281.25

func TestEstimateOrientationProfile(t *testing.T) {
	// Target whose reflection gain peaks at a known chirp frequency: the
	// profile's PeakFreqHz must recover it.
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	peakF := 28.7e9
	tgt := funcTarget(rfsim.Point{X: 2}, func(s int, fHz float64) float64 {
		shape := -40 * math.Pow((fHz-peakF)/0.5e9, 2) // ~0.5 GHz wide lobe
		base := 25 + shape
		if s == 1 {
			return base
		}
		return base - 20
	})
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(13)))
	loc, err := a.ProcessLocalization(c, frames)
	if err != nil {
		t.Fatalf("localization: %v", err)
	}
	prof, err := a.EstimateOrientationProfile(c, frames, loc.PeakIndex(), testMaskHz)
	if err != nil {
		t.Fatalf("orientation profile: %v", err)
	}
	if len(prof.Power) != len(prof.FreqHz) {
		t.Fatal("profile length mismatch")
	}
	if math.Abs(prof.PeakFreqHz-peakF) > 0.15e9 {
		t.Errorf("peak frequency = %.3f GHz, want %.3f", prof.PeakFreqHz/1e9, peakF/1e9)
	}
}

func TestEstimateOrientationProfileValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	tgt := pointTarget(rfsim.Point{X: 2}, 25)
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, []*BackscatterTarget{tgt}, GridTable{}, nil, nil))
	for _, hz := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := a.EstimateOrientationProfile(c, frames, 100, hz); err == nil {
			t.Errorf("mask half-width %g Hz should fail", hz)
		}
	}
	if _, err := a.EstimateOrientationProfile(c, frames, 0, 10); err == nil {
		t.Error("peakBin=0 should fail")
	}
	if _, err := a.EstimateOrientationProfile(c, frames, 1<<20, 10); err == nil {
		t.Error("huge peakBin should fail")
	}
	if _, err := a.EstimateOrientationProfile(c, frames[:1], 100, 10); err == nil {
		t.Error("single chirp should fail")
	}
	// The envelope is sized from the frames: a chirp argument whose sample
	// count differs from theirs is a configuration error, whether it is
	// shorter than the FFT (the 1125-sample orientation chirp) or longer.
	long := c
	long.Duration = 100e-6
	for _, cc := range []waveform.Chirp{a.Config().OrientationChirp, long} {
		if _, err := a.EstimateOrientationProfile(cc, frames, 100, 10); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%g µs chirp against %d-sample frames: err = %v, want ErrInvalidConfig",
				cc.Duration*1e6, len(frames[0].Rx[0]), err)
		}
	}
}

func TestDetectTargetsMultiNode(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgts := []*BackscatterTarget{
		pointTarget(rfsim.Point{X: 2}, 25),
		pointTarget(rfsim.Point{X: 5}, 25),
		pointTarget(rfsim.Point{X: 8}, 25),
	}
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, tgts, GridTable{}, nil, rfsim.NewNoiseSource(41)))
	dets, err := a.DetectTargets(c, frames, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 3 {
		t.Fatalf("detected %d targets, want 3: %+v", len(dets), dets)
	}
	got := map[int]bool{}
	for _, d := range dets {
		for _, want := range []float64{2, 5, 8} {
			if math.Abs(d.RangeM-want) < 0.3 {
				got[int(want)] = true
			}
		}
	}
	if len(got) != 3 {
		t.Fatalf("ranges %v do not cover 2/5/8 m", dets)
	}
}

func TestDetectTargetsValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, nil, GridTable{}, nil, rfsim.NewNoiseSource(43)))
	if _, err := a.DetectTargets(c, frames, 0); err == nil {
		t.Error("maxTargets 0 should fail")
	}
	// No modulated targets: detection must fail, not hallucinate.
	if _, err := a.DetectTargets(c, frames, 4); err == nil {
		t.Error("empty capture should yield no targets")
	}
	if _, err := a.DetectTargets(c, frames[:1], 4); err == nil {
		t.Error("single chirp should fail")
	}
}

func TestDetectTargetsCapsAtMax(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgts := []*BackscatterTarget{
		pointTarget(rfsim.Point{X: 2}, 25),
		pointTarget(rfsim.Point{X: 5}, 25),
		pointTarget(rfsim.Point{X: 8}, 25),
	}
	frames := synth(t)(a.SynthesizeChirps(0, c, 5, tgts, GridTable{}, nil, rfsim.NewNoiseSource(47)))
	dets, err := a.DetectTargets(c, frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 2 {
		t.Fatalf("cap: got %d, want 2", len(dets))
	}
	// Strongest (nearest) first.
	if dets[0].PeakSNRdB < dets[1].PeakSNRdB {
		t.Error("detections not strongest-first")
	}
}

func TestRangeFromBeat(t *testing.T) {
	c := waveform.MilBackLocalizationChirp()
	// Round trip with BeatFrequency.
	d := 5.0
	tau := 2 * d / rfsim.SpeedOfLight
	if got := RangeFromBeat(c, c.BeatFrequency(tau)); math.Abs(got-d) > 1e-9 {
		t.Errorf("RangeFromBeat round trip = %g, want %g", got, d)
	}
}
