package rfsim

import (
	"math"
	"testing"
	"testing/quick"
)

// testHorn returns the AP's 20 dBi horn, pointed at the given azimuth.
func testHorn(pointingRad float64) *Antenna {
	return &Antenna{BoresightGainDBi: 20, BeamwidthDeg: 18, SidelobeFloorDB: -25, PointingRad: pointingRad}
}

func TestHornGainPattern(t *testing.T) {
	h := testHorn(0)
	if g := h.GainDBi(0); math.Abs(g-20) > 1e-12 {
		t.Errorf("boresight gain = %g, want 20", g)
	}
	// Half-power beamwidth: at ±BW/2... the Gaussian model gives −3 dB at
	// off = BW/2? G = G0 − 12 (off/BW)²: off=BW/2 → −3 dB. Yes.
	half := DegToRad(9)
	if g := h.GainDBi(half); math.Abs(g-17) > 1e-9 {
		t.Errorf("gain at half beamwidth = %g, want 17", g)
	}
	// Far off boresight: clamped at the sidelobe floor.
	if g := h.GainDBi(DegToRad(90)); math.Abs(g-(-5)) > 1e-9 {
		t.Errorf("sidelobe gain = %g, want -5 (20-25)", g)
	}
	// Pattern is symmetric.
	f := func(offRaw float64) bool {
		off := math.Mod(offRaw, math.Pi)
		return math.Abs(h.GainDBi(off)-h.GainDBi(-off)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAntennaPointing(t *testing.T) {
	h := testHorn(0)
	h.Point(DegToRad(30))
	if g := h.GainDBi(DegToRad(30)); math.Abs(g-20) > 1e-12 {
		t.Errorf("gain at new boresight = %g, want 20", g)
	}
	if g := h.GainDBi(0); g >= 20 {
		t.Errorf("gain off new boresight = %g, should drop", g)
	}
	// Wrap-around: pointing at 170° and looking at -170° is only 20° apart.
	h.Point(DegToRad(170))
	gNear := h.GainDBi(DegToRad(-170))
	gFar := h.GainDBi(DegToRad(0))
	if gNear <= gFar {
		t.Errorf("wrap-around gain: near=%g should exceed far=%g", gNear, gFar)
	}
}

func TestAntennaValidation(t *testing.T) {
	a := &Antenna{BoresightGainDBi: 10}
	defer func() {
		if recover() == nil {
			t.Fatal("zero beamwidth did not panic")
		}
	}()
	a.GainDBi(0)
}

func TestRxArrayPhaseAngleRoundTrip(t *testing.T) {
	f := 28e9
	arr := &RxArray{Spacing: Wavelength(f) / 2}
	phaseDelta := func(theta float64) float64 {
		return 2 * math.Pi * arr.Spacing * math.Sin(theta) / Wavelength(f)
	}
	for _, deg := range []float64{-60, -30, -5, 0, 5, 30, 60} {
		theta := DegToRad(deg)
		phi := phaseDelta(theta)
		got := arr.AngleFromPhase(phi, f)
		if math.Abs(got-theta) > 1e-9 {
			t.Errorf("round trip at %g°: got %g°", deg, RadToDeg(got))
		}
	}
	// λ/2 spacing keeps |Δφ| <= π over ±90°.
	if phi := phaseDelta(DegToRad(90)); math.Abs(phi)-math.Pi > 1e-9 {
		t.Errorf("phase at 90° = %g, want <= π", phi)
	}
}

func TestAngleFromPhaseClamps(t *testing.T) {
	f := 28e9
	arr := &RxArray{Spacing: Wavelength(f) / 2}
	if got := arr.AngleFromPhase(4, f); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("over-range phase should clamp to +90°, got %g", RadToDeg(got))
	}
	if got := arr.AngleFromPhase(-4, f); math.Abs(got+math.Pi/2) > 1e-9 {
		t.Errorf("under-range phase should clamp to -90°, got %g", RadToDeg(got))
	}
}
