package rfsim

import (
	"math"
	"slices"
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

// clutterPaths derives the scene's clutter paths into a fresh slice.
func clutterPaths(s *Scene, tx, rx *Antenna, f float64) []Path {
	return s.AppendClutterPaths(nil, tx, rx, f)
}

// TestSceneGenerationBumpsOnEveryMutator checks that every kind of scene
// edit — the obstruction mutators and direct edits of the reflector and
// obstruction slices — yields a new generation of the scene: one whose
// freshly derived clutter paths differ from the previous generation's, so
// a capture after the edit sees it.
func TestSceneGenerationBumpsOnEveryMutator(t *testing.T) {
	s := DefaultIndoorScene()
	tx, rx := testHorn(0), testHorn(0)
	prev := clutterPaths(s, tx, rx, 28e9)
	step := func(name string, mutate func() bool) {
		t.Helper()
		if !mutate() {
			t.Fatalf("%s did not take effect", name)
		}
		got := clutterPaths(s, tx, rx, 28e9)
		if slices.Equal(got, prev) {
			t.Fatalf("%s left the derived clutter paths unchanged", name)
		}
		prev = got
	}
	nRefl := len(s.Reflectors)
	step("add reflector", func() bool {
		s.Reflectors = append(s.Reflectors, Reflector{Name: "cart", Position: Point{X: 2, Y: 1}, RCS: 0.5})
		return true
	})
	step("move reflector", func() bool {
		s.Reflectors[nRefl].Position = Point{X: 3, Y: 1}
		return true
	})
	step("remove reflector", func() bool {
		s.Reflectors = s.Reflectors[:nRefl]
		return true
	})
	// The body first stands on the AP→back-wall ray (y=0 at x=6), then
	// steps off it.
	step("AddObstruction", func() bool {
		s.AddObstruction(Obstruction{Name: "body", A: Point{X: 6, Y: -0.3}, B: Point{X: 6, Y: 0.3}, LossDB: 30})
		return len(s.Obstructions) == 1
	})
	step("move obstruction", func() bool {
		s.Obstructions[0].A, s.Obstructions[0].B = Point{X: -5, Y: -5}, Point{X: -5, Y: -6}
		return true
	})
	// Back onto the ray, so that removing the body lifts its loss.
	step("move obstruction back", func() bool {
		s.Obstructions[0].A, s.Obstructions[0].B = Point{X: 6, Y: -0.3}, Point{X: 6, Y: 0.3}
		return true
	})
	step("RemoveObstruction", func() bool {
		return s.RemoveObstruction("body") && len(s.Obstructions) == 0
	})
}

// TestSceneGenerationUnchangedOnMisses checks that a removal naming an
// unknown obstruction reports false and leaves the scene, and so its
// derived clutter paths, as they were.
func TestSceneGenerationUnchangedOnMisses(t *testing.T) {
	s := DefaultIndoorScene()
	s.AddObstruction(Obstruction{Name: "cabinet", A: Point{X: 6, Y: -0.3}, B: Point{X: 6, Y: 0.3}, LossDB: 40})
	before := clutterPaths(s, testHorn(0), testHorn(0), 28e9)
	if s.RemoveObstruction("no-such-obstruction") {
		t.Fatal("RemoveObstruction reported success for an unknown name")
	}
	if after := clutterPaths(s, testHorn(0), testHorn(0), 28e9); !slices.Equal(before, after) {
		t.Fatalf("a missed mutation changed the clutter paths: %+v -> %+v", before, after)
	}
}

// TestAppendClutterPaths checks the append-into-dst contract: the paths
// land after dst's existing elements, a reused dst[:0] is refilled in place
// without allocating, and only the path a blocker crosses is attenuated.
func TestAppendClutterPaths(t *testing.T) {
	s := DefaultIndoorScene()
	tx, rx := testHorn(0), testHorn(0)
	clear := clutterPaths(s, tx, rx, 28e9)

	head := Path{Name: "head"}
	got := s.AppendClutterPaths([]Path{head}, tx, rx, 28e9)
	if len(got) != 1+len(clear) || got[0] != head {
		t.Fatalf("append kept %d paths with head %+v", len(got), got[0])
	}
	for i := range clear {
		if got[1+i] != clear[i] {
			t.Fatalf("appended path %d = %+v, want %+v", i, got[1+i], clear[i])
		}
	}

	dst := make([]Path, 0, len(s.Reflectors))
	if allocs := testing.AllocsPerRun(10, func() { dst = s.AppendClutterPaths(dst[:0], tx, rx, 28e9) }); allocs != 0 {
		t.Errorf("refilling a grown dst allocated %v times per run", allocs)
	}

	// A cabinet on the AP→back-wall ray (y=0 at x=6), and a blocker behind
	// the AP that crosses no ray.
	s.AddObstruction(Obstruction{Name: "cabinet", A: Point{X: 6, Y: -0.3}, B: Point{X: 6, Y: 0.3}, LossDB: 40})
	s.AddObstruction(Obstruction{Name: "far", A: Point{X: -5, Y: -5}, B: Point{X: -5, Y: -6}, LossDB: 40})
	blocked := clutterPaths(s, tx, rx, 28e9)
	for i, p := range blocked {
		want := clear[i].Amplitude
		if p.Name == "back wall" {
			want *= 1e-4 // one-way 40 dB ⇒ round-trip amplitude factor 10^(−4)
		}
		if math.Abs(p.Amplitude-want) > 1e-12*want {
			t.Errorf("%s: amplitude %g, want %g", p.Name, p.Amplitude, want)
		}
	}
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

// BenchmarkAppendClutterPaths times one capture's clutter derivation over
// the §9 indoor scene into a reused slice, as the AP does per capture.
func BenchmarkAppendClutterPaths(b *testing.B) {
	s := DefaultIndoorScene()
	tx, rx := testHorn(0.1), testHorn(0.1)
	dst := s.AppendClutterPaths(nil, tx, rx, 28e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.AppendClutterPaths(dst[:0], tx, rx, 28e9)
	}
}
