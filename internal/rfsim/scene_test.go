package rfsim

import (
	"math"
	"testing"
)

func TestDefaultIndoorScene(t *testing.T) {
	s := DefaultIndoorScene()
	if len(s.Reflectors) < 3 {
		t.Fatalf("indoor scene has %d reflectors, want several", len(s.Reflectors))
	}
	if len(EmptyScene().Reflectors) != 0 {
		t.Fatal("empty scene should have no reflectors")
	}
}

// clutterPaths is the path half of ClutterPathsWithDeps.
func clutterPaths(s *Scene, tx, rx *Antenna, f float64) []Path {
	paths, _ := s.ClutterPathsWithDeps(tx, rx, f)
	return paths
}

func TestClutterPaths(t *testing.T) {
	s := DefaultIndoorScene()
	tx := testHorn(0)
	rx := testHorn(0)
	paths := clutterPaths(s, tx, rx, 28e9)
	if len(paths) != len(s.Reflectors) {
		t.Fatalf("got %d paths, want %d", len(paths), len(s.Reflectors))
	}
	for i, p := range paths {
		r := s.Reflectors[i]
		d := r.Position.Distance(Point{})
		wantDelay := 2 * d / SpeedOfLight
		if math.Abs(p.Delay-wantDelay) > 1e-15 {
			t.Errorf("%s: delay %g, want %g", p.Name, p.Delay, wantDelay)
		}
		if p.Amplitude <= 0 {
			t.Errorf("%s: non-positive amplitude %g", p.Name, p.Amplitude)
		}
		if math.Abs(p.AoARad-r.Position.AngleFrom(Point{})) > 1e-12 {
			t.Errorf("%s: AoA mismatch", p.Name)
		}
	}
}

func TestClutterAmplitudeFallsWithDistanceAndOffAxis(t *testing.T) {
	tx, rx := testHorn(0), testHorn(0)
	near := Scene{Reflectors: []Reflector{{Position: Point{X: 2}, RCS: 1}}}
	far := Scene{Reflectors: []Reflector{{Position: Point{X: 8}, RCS: 1}}}
	an := clutterPaths(&near, tx, rx, 28e9)[0].Amplitude
	af := clutterPaths(&far, tx, rx, 28e9)[0].Amplitude
	// Radar equation: amplitude ~ 1/d², so 4x distance -> 16x amplitude.
	if ratio := an / af; math.Abs(ratio-16) > 0.01 {
		t.Errorf("amplitude ratio = %g, want 16 (1/d² law)", ratio)
	}
	onAxis := Scene{Reflectors: []Reflector{{Position: Point{X: 4}, RCS: 1}}}
	offAxis := Scene{Reflectors: []Reflector{{Position: PolarPoint(4, DegToRad(45)), RCS: 1}}}
	a0 := clutterPaths(&onAxis, tx, rx, 28e9)[0].Amplitude
	a45 := clutterPaths(&offAxis, tx, rx, 28e9)[0].Amplitude
	if a45 >= a0 {
		t.Errorf("off-axis clutter %g should be weaker than on-axis %g", a45, a0)
	}
}

func TestBackscatterAmplitude(t *testing.T) {
	f := 28e9
	// 1/d² scaling (power 1/d⁴).
	a2 := BackscatterAmplitude(20, 20, 12.5, 2, f)
	a4 := BackscatterAmplitude(20, 20, 12.5, 4, f)
	if ratio := a2 / a4; math.Abs(ratio-4) > 1e-9 {
		t.Errorf("backscatter amplitude ratio = %g, want 4", ratio)
	}
	// More node gain -> stronger return, +1 dB node gain = +1 dB... the node
	// gain enters squared (receive + re-radiate), so +3 dB node gain adds
	// 6 dB of return power = 2x amplitude.
	aLow := BackscatterAmplitude(20, 20, 9.5, 2, f)
	aHigh := BackscatterAmplitude(20, 20, 12.5, 2, f)
	if ratio := aHigh / aLow; math.Abs(ratio-1.995) > 0.01 {
		t.Errorf("node-gain doubling ratio = %g, want ~2", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero distance did not panic")
		}
	}()
	BackscatterAmplitude(20, 20, 12.5, 0, f)
}

func TestOneWayAmplitude(t *testing.T) {
	f := 28e9
	// 1/d scaling.
	a2 := OneWayAmplitude(20, 12.5, 2, f)
	a8 := OneWayAmplitude(20, 12.5, 8, f)
	if ratio := a2 / a8; math.Abs(ratio-4) > 1e-9 {
		t.Errorf("one-way amplitude ratio = %g, want 4", ratio)
	}
	// Consistency with FSPL: power gain = Gt·Gn / FSPL.
	wantDB := 20 + 12.5 - 20*math.Log10(4*math.Pi*2/Wavelength(f))
	gotDB := 20 * math.Log10(a2)
	if math.Abs(gotDB-wantDB) > 1e-9 {
		t.Errorf("one-way link budget = %g dB, want %g dB", gotDB, wantDB)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero distance did not panic")
		}
	}()
	OneWayAmplitude(20, 12.5, 0, f)
}

func TestDownlinkBeatsUplinkBudget(t *testing.T) {
	// At any distance the one-way (downlink) link is stronger than the
	// round-trip (uplink) link — the paper's §9.5 observation.
	for _, d := range []float64{1, 2, 4, 8} {
		down := OneWayAmplitude(20, 12.5, d, 28e9)
		up := BackscatterAmplitude(20, 20, 12.5, d, 28e9)
		if up >= down {
			t.Errorf("d=%g: uplink amplitude %g >= downlink %g", d, up, down)
		}
	}
}

func TestNoiseSourceDeterminism(t *testing.T) {
	a := NewNoiseSource(42)
	b := NewNoiseSource(42)
	for i := 0; i < 100; i++ {
		if a.Gaussian(1) != b.Gaussian(1) {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := NewNoiseSource(43)
	same := true
	a = NewNoiseSource(42)
	for i := 0; i < 10; i++ {
		if a.Gaussian(1) != c.Gaussian(1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestAddComplexAWGNStatistics(t *testing.T) {
	ns := NewNoiseSource(8)
	n := 200000
	x := make([]complex128, n)
	ns.AddComplexAWGN(x, 2)
	var power, pi, pq float64
	for _, v := range x {
		pi += real(v) * real(v)
		pq += imag(v) * imag(v)
	}
	pi /= float64(n)
	pq /= float64(n)
	power = pi + pq
	if math.Abs(power-2) > 0.05 {
		t.Errorf("total noise power = %g, want 2", power)
	}
	if math.Abs(pi-pq) > 0.05 {
		t.Errorf("I/Q power imbalance: %g vs %g", pi, pq)
	}
}
