package fsa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// halfPowerBeamwidthDeg estimates the −3 dB beamwidth of port A's beam at
// the band centre by numeric search.
func halfPowerBeamwidthDeg(f *FSA) float64 {
	fc := f.CenterFrequency()
	beam := f.BeamAngleDeg(PortA, fc)
	target := f.GainDBi(PortA, fc, beam) - 3
	const step = 0.01
	for off := step; off < 90; off += step {
		if f.GainDBi(PortA, fc, beam+off) < target {
			return 2 * off
		}
	}
	return 0
}

// reflectionGainDBi is the dB-form round-trip gain one port contributes to
// a backscatter path: the aperture gain counts once on receive and once on
// re-radiation, and an absorptive port reflects only the residual return
// loss. It is the reference for the linear-domain ReflectionAmplitudeWithModes.
func reflectionGainDBi(f *FSA, p Port, m Mode, fHz, angleDeg float64) float64 {
	g := 2 * f.GainDBi(p, fHz, angleDeg)
	if m == Absorptive {
		g -= f.Config().AbsorptionReturnLossDB
	}
	return g
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	f := Default()
	c := f.Config()
	if c.FreqLow != 26.5e9 || c.FreqHigh != 29.5e9 {
		t.Errorf("band = [%g, %g], want 26.5-29.5 GHz", c.FreqLow, c.FreqHigh)
	}
	if got := f.Bandwidth(); got != 3e9 {
		t.Errorf("bandwidth = %g, want 3 GHz", got)
	}
	if got := f.CenterFrequency(); got != 28e9 {
		t.Errorf("centre = %g, want 28 GHz", got)
	}
	// "Our FSA design covers over 60° azimuth angle with only 3 GHz" (§2).
	span := f.BeamAngleDeg(PortA, c.FreqHigh) - f.BeamAngleDeg(PortA, c.FreqLow)
	if span < 60-1e-9 {
		t.Errorf("scan span = %g°, want >= 60°", span)
	}
	// ">10 dB gain" (Fig 10 discussion).
	if g := f.PeakGainDBi(); g < 10 {
		t.Errorf("peak gain = %g dBi, want > 10", g)
	}
	// "beam width of the node is around 10 degree" (§9.3).
	if bw := halfPowerBeamwidthDeg(f); bw < 7 || bw > 13 {
		t.Errorf("HPBW = %g°, want ~10°", bw)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{FreqLow: 29.5e9, FreqHigh: 26.5e9, ScanLowDeg: -30, ScanHighDeg: 30, Elements: 10},
		{FreqLow: 0, FreqHigh: 1e9, ScanLowDeg: -30, ScanHighDeg: 30, Elements: 10},
		{FreqLow: 26.5e9, FreqHigh: 29.5e9, ScanLowDeg: 30, ScanHighDeg: -30, Elements: 10},
		{FreqLow: 26.5e9, FreqHigh: 29.5e9, ScanLowDeg: -30, ScanHighDeg: 30, Elements: 1},
		{FreqLow: 26.5e9, FreqHigh: 29.5e9, ScanLowDeg: -30, ScanHighDeg: 30, Elements: 10, AbsorptionReturnLossDB: -3},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestBeamAngleLinearMap(t *testing.T) {
	f := Default()
	if a := f.BeamAngleDeg(PortA, 26.5e9); math.Abs(a+30) > 1e-9 {
		t.Errorf("port A at 26.5 GHz -> %g°, want -30°", a)
	}
	if a := f.BeamAngleDeg(PortA, 29.5e9); math.Abs(a-30) > 1e-9 {
		t.Errorf("port A at 29.5 GHz -> %g°, want +30°", a)
	}
	if a := f.BeamAngleDeg(PortA, 28e9); math.Abs(a) > 1e-9 {
		t.Errorf("port A at centre -> %g°, want 0°", a)
	}
	// Out-of-band frequencies clamp.
	if a := f.BeamAngleDeg(PortA, 20e9); math.Abs(a+30) > 1e-9 {
		t.Errorf("below-band clamp -> %g°", a)
	}
	if a := f.BeamAngleDeg(PortA, 40e9); math.Abs(a-30) > 1e-9 {
		t.Errorf("above-band clamp -> %g°", a)
	}
}

func TestPortBIsMirrorOfPortA(t *testing.T) {
	// "two sets of beams while their frequency assignments are mirror of
	// each other" (Fig 3).
	f := Default()
	prop := func(fracRaw float64) bool {
		frac := math.Abs(math.Mod(fracRaw, 1))
		fHz := 26.5e9 + frac*3e9
		return math.Abs(f.BeamAngleDeg(PortA, fHz)+f.BeamAngleDeg(PortB, fHz)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Fig 3's concrete example: the beam at f1 for port A coincides with the
	// beam at f7 for port B (band-edge frequencies swap).
	if math.Abs(f.BeamAngleDeg(PortA, 26.5e9)-f.BeamAngleDeg(PortB, 29.5e9)) > 1e-9 {
		t.Error("band-edge beams of the two ports should coincide")
	}
}

func TestFrequencyForAngleInvertsBeamAngle(t *testing.T) {
	f := Default()
	for _, p := range []Port{PortA, PortB} {
		for _, deg := range []float64{-30, -17.3, -5, 0, 4.2, 15, 30} {
			fr := f.FrequencyForAngle(p, deg)
			back := f.BeamAngleDeg(p, fr)
			if math.Abs(back-deg) > 1e-6 {
				t.Errorf("port %v: angle %g -> f %g -> angle %g", p, deg, fr, back)
			}
		}
	}
	// At normal incidence both ports need the same frequency — the
	// f_A == f_B degenerate case that forces OOK fallback (§6.2).
	fa := f.FrequencyForAngle(PortA, 0)
	fb := f.FrequencyForAngle(PortB, 0)
	if fa != fb {
		t.Errorf("normal incidence frequencies differ: %g vs %g", fa, fb)
	}
	if fa != 28e9 {
		t.Errorf("normal incidence frequency = %g, want centre 28 GHz", fa)
	}
	// Distinct orientation -> distinct tone pair.
	fa = f.FrequencyForAngle(PortA, 10)
	fb = f.FrequencyForAngle(PortB, 10)
	if fa == fb {
		t.Error("off-normal orientation should give two distinct tones")
	}
	// Clamping outside the scan range.
	if fr := f.FrequencyForAngle(PortA, 90); fr != 29.5e9 {
		t.Errorf("over-range angle -> %g, want clamp to 29.5 GHz", fr)
	}
}

func TestGainPatternPeaksAtBeamAngle(t *testing.T) {
	f := Default()
	for _, fHz := range []float64{26.5e9, 27.5e9, 28e9, 29e9, 29.5e9} {
		beam := f.BeamAngleDeg(PortA, fHz)
		peak := f.GainDBi(PortA, fHz, beam)
		if math.Abs(peak-f.PeakGainDBi()) > 1e-9 {
			t.Errorf("f=%g: gain at beam angle = %g, want peak %g", fHz, peak, f.PeakGainDBi())
		}
		for _, off := range []float64{-20, -10, 10, 20} {
			if g := f.GainDBi(PortA, fHz, beam+off); g >= peak {
				t.Errorf("f=%g: off-beam gain %g >= peak %g", fHz, g, peak)
			}
		}
	}
}

func TestGainPatternSidelobesBelowPeak(t *testing.T) {
	f := Default()
	fc := f.CenterFrequency()
	peak := f.PeakGainDBi()
	// Everywhere more than one beamwidth away, gain is at least 12 dB down
	// (uniform array first sidelobe is −13.3 dB).
	bw := halfPowerBeamwidthDeg(f)
	for off := bw * 1.5; off <= 60; off += 0.5 {
		if g := f.GainDBi(PortA, fc, off); g > peak-12 {
			t.Errorf("sidelobe at +%g° = %g dBi, want <= %g", off, g, peak-12)
		}
	}
}

func TestBacklobeFloor(t *testing.T) {
	f := Default()
	// Very far from any beam, the pattern floors at the configured level.
	g := f.GainDBi(PortA, 26.5e9, 89)
	if g < f.Config().BacklobeFloorDBi-1e-9 {
		t.Errorf("gain %g below floor %g", g, f.Config().BacklobeFloorDBi)
	}
}

func TestModeSwitching(t *testing.T) {
	f := Default()
	if f.ModeOf(PortA) != Reflective || f.ModeOf(PortB) != Reflective {
		t.Fatal("ports should start reflective")
	}
	f.SetMode(PortA, Absorptive)
	if f.ModeOf(PortA) != Absorptive {
		t.Error("SetMode(A) did not stick")
	}
	if f.ModeOf(PortB) != Reflective {
		t.Error("SetMode(A) affected port B")
	}
	f.SetModes(Reflective, Absorptive)
	if f.ModeOf(PortA) != Reflective || f.ModeOf(PortB) != Absorptive {
		t.Error("SetModes wrong")
	}
	if PortA.String() != "A" || PortB.String() != "B" {
		t.Error("port names")
	}
	if Reflective.String() != "reflective" || Absorptive.String() != "absorptive" {
		t.Error("mode names")
	}
}

func TestInvalidPortPanics(t *testing.T) {
	f := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid port did not panic")
		}
	}()
	f.SetMode(Port(9), Reflective)
}

func TestReflectionGainModeDependence(t *testing.T) {
	f := Default()
	fc := f.CenterFrequency()
	// At broadside both ports' beams are aligned, so each contributes half
	// of the total reflection amplitude.
	refl := 20 * math.Log10(f.ReflectionAmplitude(fc, 0)/2)
	// Round-trip aperture gain: twice the one-way gain.
	if math.Abs(refl-2*f.PeakGainDBi()) > 1e-9 {
		t.Errorf("reflective gain = %g, want %g", refl, 2*f.PeakGainDBi())
	}
	f.SetModes(Absorptive, Absorptive)
	abs := 20 * math.Log10(f.ReflectionAmplitude(fc, 0)/2)
	if math.Abs(refl-abs-f.Config().AbsorptionReturnLossDB) > 1e-9 {
		t.Errorf("absorptive return = %g, want %g dB below reflective", abs, f.Config().AbsorptionReturnLossDB)
	}
}

func TestReflectionAmplitudeSwitchingContrast(t *testing.T) {
	// The uplink signal is the *difference* between reflective and
	// absorptive returns; it must be large when the beam is aligned.
	f := Default()
	incidence := 10.0
	fa := f.FrequencyForAngle(PortA, incidence)
	f.SetModes(Reflective, Absorptive)
	on := f.ReflectionAmplitude(fa, incidence)
	f.SetModes(Absorptive, Absorptive)
	off := f.ReflectionAmplitude(fa, incidence)
	if on <= off {
		t.Fatalf("reflective amplitude %g should exceed absorptive %g", on, off)
	}
	if contrast := on / off; contrast < 3 {
		t.Errorf("switching contrast = %g, want >= 3", contrast)
	}
}

func TestPortCoupling(t *testing.T) {
	f := Default()
	fc := f.CenterFrequency()
	// Reflective port delivers nothing to the detector.
	f.SetMode(PortA, Reflective)
	if g := f.PortCouplingDBi(PortA, fc, 0); !math.IsInf(g, -1) {
		t.Errorf("reflective port coupling = %g, want -Inf", g)
	}
	f.SetMode(PortA, Absorptive)
	if g := f.PortCouplingDBi(PortA, fc, 0); math.Abs(g-f.PeakGainDBi()) > 1e-9 {
		t.Errorf("aligned absorptive coupling = %g, want %g", g, f.PeakGainDBi())
	}
}

func TestTonePairSeparationAtPorts(t *testing.T) {
	// The key OAQFM property (§6.2): with the tone pair chosen for the
	// node's orientation, port A receives tone f_A strongly and tone f_B
	// weakly, and vice versa — each port sees only "its" tone.
	f := Default()
	f.SetModes(Absorptive, Absorptive)
	for _, inc := range []float64{-20, -10, 5, 15, 25} {
		fa := f.FrequencyForAngle(PortA, inc)
		fb := f.FrequencyForAngle(PortB, inc)
		aWant := f.PortCouplingDBi(PortA, fa, inc)
		aLeak := f.PortCouplingDBi(PortA, fb, inc)
		bWant := f.PortCouplingDBi(PortB, fb, inc)
		bLeak := f.PortCouplingDBi(PortB, fa, inc)
		if aWant-aLeak < 10 {
			t.Errorf("inc=%g: port A tone separation = %g dB, want >= 10", inc, aWant-aLeak)
		}
		if bWant-bLeak < 10 {
			t.Errorf("inc=%g: port B tone separation = %g dB, want >= 10", inc, bWant-bLeak)
		}
	}
}

func TestGainSymmetryProperty(t *testing.T) {
	// Mirror symmetry of the whole structure: port A's gain at (f, θ) equals
	// port B's gain at (f, −θ).
	f := Default()
	rng := rand.New(rand.NewSource(11))
	prop := func() bool {
		fHz := 26.5e9 + rng.Float64()*3e9
		theta := -60 + rng.Float64()*120
		return math.Abs(f.GainDBi(PortA, fHz, theta)-f.GainDBi(PortB, fHz, -theta)) < 1e-9
	}
	for i := 0; i < 300; i++ {
		if !prop() {
			t.Fatal("port mirror symmetry violated")
		}
	}
}

func TestFig10ShapeSevenFrequencies(t *testing.T) {
	// Reproduce the structure of Fig 10: seven frequencies, each producing a
	// beam with >10 dBi peak, peaks sweeping monotonically across ~60°.
	f := Default()
	freqs := []float64{26.5e9, 27e9, 27.5e9, 28e9, 28.5e9, 29e9, 29.5e9}
	prev := math.Inf(-1)
	for _, fHz := range freqs {
		beam := f.BeamAngleDeg(PortA, fHz)
		if beam <= prev {
			t.Errorf("beam angles not monotone: %g after %g", beam, prev)
		}
		prev = beam
		if g := f.GainDBi(PortA, fHz, beam); g < 10 {
			t.Errorf("f=%g GHz: peak %g dBi, want > 10", fHz/1e9, g)
		}
	}
	if span := prev - f.BeamAngleDeg(PortA, freqs[0]); span < 59 {
		t.Errorf("total sweep = %g°, want ~60°", span)
	}
}

func TestTaperedArrayFactorRecurrenceAccuracy(t *testing.T) {
	// The phasor-recurrence array factor (the oracle the half-angle kernel
	// is pinned against) must track the direct per-element Sincos
	// evaluation to ~1 ulp per element. 1e-12 relative is orders of
	// magnitude looser than the observed drift and orders tighter than any
	// consumer's tolerance.
	f := Default()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		psi := (rng.Float64()*2 - 1) * 2 * math.Pi
		taper, taperSum := oracleTaper(f)
		var re, im float64
		for k, w := range taper {
			s, c := math.Sincos(psi * float64(k))
			re += w * c
			im += w * s
		}
		want := math.Hypot(re, im) / taperSum
		if want < 1e-9 {
			want = 1e-9
		}
		got := f.taperedArrayFactor(psi)
		if math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Fatalf("psi=%g: recurrence %g vs direct %g", psi, got, want)
		}
	}
	// Boresight stays exactly unity (the recurrence rotation is exactly 1).
	if af := f.taperedArrayFactor(0); af != 1 {
		t.Fatalf("array factor at psi=0 = %g, want exactly 1", af)
	}
}

func TestReflectionAmplitudeMatchesLogDomainForm(t *testing.T) {
	// The linear-domain fast path must agree with exponentiating the dB-form
	// reflection gains (the historical implementation) to ~1 ulp.
	f := Default()
	rng := rand.New(rand.NewSource(22))
	modes := []Mode{Reflective, Absorptive}
	for i := 0; i < 300; i++ {
		fHz := 26.5e9 + rng.Float64()*3e9
		ang := -60 + rng.Float64()*120
		ma := modes[rng.Intn(2)]
		mb := modes[rng.Intn(2)]
		want := math.Pow(10, reflectionGainDBi(f, PortA, ma, fHz, ang)/20) +
			math.Pow(10, reflectionGainDBi(f, PortB, mb, fHz, ang)/20)
		got := f.ReflectionAmplitudeWithModes(ma, mb, fHz, ang)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("f=%g ang=%g modes=%v/%v: linear %g vs log-domain %g",
				fHz, ang, ma, mb, got, want)
		}
	}
}

func TestReflectionWithModesMatchesStatefulForm(t *testing.T) {
	// The explicit-modes queries must agree exactly with setting the switch
	// state and calling the stateful forms — they are the same computation,
	// minus the mutation.
	f := Default()
	modes := []Mode{Reflective, Absorptive}
	for _, ma := range modes {
		for _, mb := range modes {
			for _, fHz := range []float64{26.5e9, 28e9, 29.5e9} {
				for _, ang := range []float64{-25, 0, 13.7} {
					f.SetModes(ma, mb)
					want := f.ReflectionAmplitude(fHz, ang)
					// Scramble the stored state to prove the pure form
					// ignores it.
					f.SetModes(Absorptive, Reflective)
					got := f.ReflectionAmplitudeWithModes(ma, mb, fHz, ang)
					if got != want {
						t.Fatalf("modes %v/%v f=%g ang=%g: pure %g != stateful %g",
							ma, mb, fHz, ang, got, want)
					}
				}
			}
		}
	}
}
