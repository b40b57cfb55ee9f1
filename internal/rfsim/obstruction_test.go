package rfsim

import (
	"math"
	"testing"
)

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		p1, p2, q1, q2 Point
		want           bool
	}{
		// Plain crossing.
		{Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}, true},
		// Parallel, no touch.
		{Point{0, 0}, Point{2, 0}, Point{0, 1}, Point{2, 1}, false},
		// Touching endpoint.
		{Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}, true},
		// Collinear overlap.
		{Point{0, 0}, Point{3, 0}, Point{1, 0}, Point{2, 0}, true},
		// Collinear, disjoint.
		{Point{0, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}, false},
		// T-junction.
		{Point{0, 0}, Point{2, 0}, Point{1, -1}, Point{1, 0}, true},
		// Near miss.
		{Point{0, 0}, Point{2, 0}, Point{1, 0.01}, Point{1, 1}, false},
	}
	for i, c := range cases {
		if got := segmentsIntersect(c.p1, c.p2, c.q1, c.q2); got != c.want {
			t.Errorf("case %d: intersect = %v, want %v", i, got, c.want)
		}
		// Symmetric in segment order.
		if got := segmentsIntersect(c.q1, c.q2, c.p1, c.p2); got != c.want {
			t.Errorf("case %d: not symmetric", i)
		}
	}
}

func TestObstructionLoss(t *testing.T) {
	s := EmptyScene()
	if loss := s.ObstructionLossDB(Point{}, Point{X: 5}); loss != 0 {
		t.Fatalf("empty scene loss = %g", loss)
	}
	// A human blocker crossing the x axis at x=2.
	s.AddObstruction(Obstruction{Name: "person", A: Point{X: 2, Y: -0.5}, B: Point{X: 2, Y: 0.5}, LossDB: 30})
	if loss := s.ObstructionLossDB(Point{}, Point{X: 5}); loss != 30 {
		t.Errorf("blocked path loss = %g, want 30", loss)
	}
	// Path that goes around (different bearing) is clear.
	if loss := s.ObstructionLossDB(Point{}, Point{X: 5, Y: 3}); loss != 0 {
		t.Errorf("clear path loss = %g, want 0", loss)
	}
	// Path shorter than the blocker's position is clear.
	if loss := s.ObstructionLossDB(Point{}, Point{X: 1}); loss != 0 {
		t.Errorf("short path loss = %g, want 0", loss)
	}
	// Losses accumulate over multiple blockers.
	s.AddObstruction(Obstruction{Name: "cabinet", A: Point{X: 4, Y: -1}, B: Point{X: 4, Y: 1}, LossDB: 40})
	if loss := s.ObstructionLossDB(Point{}, Point{X: 5}); loss != 70 {
		t.Errorf("double-blocked loss = %g, want 70", loss)
	}
	// Removal restores the link.
	if !s.RemoveObstruction("person") {
		t.Fatal("RemoveObstruction failed")
	}
	if s.RemoveObstruction("person") {
		t.Fatal("double removal should report false")
	}
	if loss := s.ObstructionLossDB(Point{}, Point{X: 5}); loss != 40 {
		t.Errorf("after removal loss = %g, want 40", loss)
	}
}

func TestAddObstructionValidation(t *testing.T) {
	s := EmptyScene()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive loss did not panic")
		}
	}()
	s.AddObstruction(Obstruction{Name: "ghost", LossDB: 0})
}

func TestClutterPathsRespectObstructions(t *testing.T) {
	tx, rx := testHorn(0), testHorn(0)
	scene := &Scene{Reflectors: []Reflector{{Name: "wall", Position: Point{X: 6}, RCS: 10}}}
	clear := clutterPaths(scene, tx, rx, 28e9)[0].Amplitude
	scene.AddObstruction(Obstruction{Name: "cabinet", A: Point{X: 3, Y: -1}, B: Point{X: 3, Y: 1}, LossDB: 20})
	blocked := clutterPaths(scene, tx, rx, 28e9)[0].Amplitude
	// One-way 20 dB ⇒ round-trip amplitude factor 10^(−2) = 0.01.
	if ratio := blocked / clear; math.Abs(ratio-0.01) > 1e-6 {
		t.Errorf("blocked/clear amplitude = %g, want 0.01", ratio)
	}
}
