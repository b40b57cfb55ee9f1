package rfsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDistanceAndAngle(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 3, Y: 4}
	if d := a.Distance(b); math.Abs(d-5) > 1e-12 {
		t.Errorf("distance = %g, want 5", d)
	}
	if d := b.Distance(a); math.Abs(d-5) > 1e-12 {
		t.Errorf("distance not symmetric")
	}
	p := Point{X: 0, Y: 2}
	if az := p.AngleFrom(a); math.Abs(az-math.Pi/2) > 1e-12 {
		t.Errorf("angle = %g, want π/2", az)
	}
}

func TestPolarPointRoundTrip(t *testing.T) {
	f := func(rRaw, thetaRaw float64) bool {
		r := 0.1 + math.Abs(math.Mod(rRaw, 100))
		theta := math.Mod(thetaRaw, math.Pi) // stay inside atan2 principal range
		p := PolarPoint(r, theta)
		origin := Point{}
		return math.Abs(p.Distance(origin)-r) < 1e-9 &&
			math.Abs(WrapAngle(p.AngleFrom(origin)-theta)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWavelength(t *testing.T) {
	// 28 GHz -> 10.7 mm.
	if l := Wavelength(28e9); math.Abs(l-0.010707) > 1e-5 {
		t.Errorf("wavelength = %g, want ~0.0107", l)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wavelength(0) did not panic")
		}
	}()
	Wavelength(0)
}

func TestFreeSpacePathLoss(t *testing.T) {
	// The one-way link between 0 dBi antennas is the Friis free-space path
	// loss. Known value: FSPL at 1 m, 28 GHz ≈ 61.4 dB.
	fspl := func(d float64) float64 { return -20 * math.Log10(OneWayAmplitude(0, 0, d, 28e9)) }
	if l := fspl(1); math.Abs(l-61.37) > 0.1 {
		t.Errorf("FSPL(1m, 28GHz) = %g, want ~61.4", l)
	}
	// Doubling distance adds 6.02 dB.
	if d := fspl(4) - fspl(2); math.Abs(d-6.0206) > 1e-3 {
		t.Errorf("doubling distance added %g dB, want 6.02", d)
	}
}

func TestUplinkSlopeIsTwiceDownlinkSlope(t *testing.T) {
	// The core reason downlink outranges uplink in the paper (§9.5): going
	// from 2 m to 8 m costs 12 dB one-way but 24 dB round-trip.
	f := 28e9
	oneWay := 20 * math.Log10(OneWayAmplitude(0, 0, 2, f)/OneWayAmplitude(0, 0, 8, f))
	twoWay := 20 * math.Log10(BackscatterAmplitude(0, 0, 0, 2, f)/BackscatterAmplitude(0, 0, 0, 8, f))
	if math.Abs(oneWay-12.04) > 0.01 {
		t.Errorf("one-way slope = %g dB, want 12.04", oneWay)
	}
	if math.Abs(twoWay-2*oneWay) > 1e-9 {
		t.Errorf("two-way slope %g != 2x one-way %g", twoWay, oneWay)
	}
}

func TestPropagationDelay(t *testing.T) {
	// 3 m -> ~10 ns.
	if d := PropagationDelay(3); math.Abs(d-1.0007e-8) > 1e-11 {
		t.Errorf("delay = %g, want ~10 ns", d)
	}
}

func TestAngleConversions(t *testing.T) {
	if r := DegToRad(180); math.Abs(r-math.Pi) > 1e-12 {
		t.Errorf("DegToRad(180) = %g", r)
	}
	if d := RadToDeg(math.Pi / 2); math.Abs(d-90) > 1e-12 {
		t.Errorf("RadToDeg(π/2) = %g", d)
	}
	f := func(deg float64) bool {
		d := math.Mod(deg, 360)
		return math.Abs(RadToDeg(DegToRad(d))-d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapAngle(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestThermalNoise(t *testing.T) {
	// kTB for 1 Hz is -174 dBm; for 10 MHz it is -104 dBm.
	if n := ThermalNoiseDBm(1); math.Abs(n+174) > 1e-9 {
		t.Errorf("kTB(1 Hz) = %g", n)
	}
	if n := ThermalNoiseDBm(10e6); math.Abs(n+104) > 1e-9 {
		t.Errorf("kTB(10 MHz) = %g", n)
	}
	// 4x bandwidth = +6.02 dB noise: why the 40 Mbps uplink mode loses 6 dB
	// of SNR vs 10 Mbps in Fig 15.
	if d := ThermalNoiseDBm(40e6) - ThermalNoiseDBm(10e6); math.Abs(d-6.0206) > 1e-3 {
		t.Errorf("4x bandwidth noise delta = %g dB", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ThermalNoiseDBm(0) did not panic")
		}
	}()
	ThermalNoiseDBm(0)
}

func TestDBmWattsRoundTrip(t *testing.T) {
	if w := DBmToWatts(30); math.Abs(w-1) > 1e-12 {
		t.Errorf("30 dBm = %g W, want 1", w)
	}
	if w := DBmToWatts(27); math.Abs(w-0.5012) > 1e-3 {
		t.Errorf("27 dBm = %g W, want ~0.5 (MilBack's TX power)", w)
	}
	if w := DBmToWatts(0); math.Abs(w-0.001) > 1e-15 {
		t.Errorf("0 dBm = %g W, want 1 mW", w)
	}
	f := func(dbm float64) bool {
		d := math.Mod(dbm, 60)
		return math.Abs(10*math.Log10(DBmToWatts(d))+30-d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
