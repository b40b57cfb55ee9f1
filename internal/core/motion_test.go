package core

import (
	"math"
	"testing"

	"repro/internal/motion"
	"repro/internal/rfsim"
)

// testPath is a smooth cubic walk through the default scene, staying in
// detectable range of the AP.
func testPath(t *testing.T) *motion.Path {
	t.Helper()
	p, err := motion.NewPath([]motion.Waypoint{
		{T: 0, X: 2.5, Y: 0.2, OrientationDeg: 0},
		{T: 2, X: 3.5, Y: 0.8, OrientationDeg: 10},
		// Orientations stay clear of the mirror-artifact window (−6°…−2°):
		// the static specular image would otherwise bias Doppler phase.
		{T: 4, X: 4.5, Y: -0.4, OrientationDeg: 8},
		{T: 6, X: 5.0, Y: 0.5, OrientationDeg: 5},
	}, motion.Cubic)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoseAtGrantRadialVelocityGate is the tentpole's Doppler differential
// gate: the radial velocity frozen into the node's sample at each advance
// must match the finite-difference derivative of the planar range along
// the true trajectory within 1e-6 — the synthesized frames consume exactly
// this value, so Doppler is consistent with the motion by construction.
func TestPoseAtGrantRadialVelocityGate(t *testing.T) {
	sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 2.5, Y: 0.2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := testPath(t)
	if err := sys.SetTrajectoryAt(n, path, 0); err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for step := 0; step < 40; step++ {
		pose, err := sys.AdvanceTrajectory(n, 0.13)
		if err != nil {
			t.Fatal(err)
		}
		_, mt, ok := sys.TrajectoryPose(n)
		if !ok {
			t.Fatal("trajectory pose lost")
		}
		if n.Position.X != pose.X || n.Position.Y != pose.Y {
			t.Fatalf("step %d: node position %+v diverged from pose %+v", step, n.Position, pose)
		}
		a, b := path.PoseAt(mt-h), path.PoseAt(mt+h)
		fd := (math.Hypot(b.X, b.Y) - math.Hypot(a.X, a.Y)) / (2 * h)
		if mt >= path.Duration() {
			fd = 0 // holding the endpoint: velocity is zero
		}
		if got := sys.RadialVelocityOf(n); math.Abs(got-fd) > 1e-6 {
			t.Fatalf("step %d (t=%.2f): sampled radial velocity %g vs analytic %g", step, mt, got, fd)
		}
	}
}

// TestMeasuredRadialVelocityTracksTrajectory runs the actual Doppler
// estimator against trajectory-fed synthesis: the measured range rate must
// track the analytic one within the estimator's noise bound, and the
// synthesized truth handed to the estimator must be the analytic value
// exactly (the 1e-6 gate lives in the sample; the estimate carries
// receiver noise).
func TestMeasuredRadialVelocityTracksTrajectory(t *testing.T) {
	sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 2.5, Y: 0.2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTrajectoryAt(n, testPath(t), 0); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		if _, err := sys.AdvanceTrajectory(n, 0.5); err != nil {
			t.Fatal(err)
		}
		truth := sys.RadialVelocityOf(n)
		got, err := sys.MeasureTrajectoryVelocity(n, 64, int64(100+step))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		tol := 0.3 + 0.02*math.Abs(truth)
		if math.Abs(got-truth) > tol {
			t.Fatalf("step %d: measured %g vs analytic %g (tol %g)", step, got, truth, tol)
		}
	}
}

// TestMovingSceneIncrementalInvalidationBitIdentical is the moving-scene
// half of the differential gate, over 3 seeds: a moving node plus a
// wandering blocker driven through one long-lived system must produce
// localization outcomes bit-identical to the replay oracle — a freshly
// built system replaying the mutations so far before every capture.
func TestMovingSceneIncrementalInvalidationBitIdentical(t *testing.T) {
	build := func() (func(step int), func(seed int64) LocalizationOutcome) {
		sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
		n, err := sys.AddNode(rfsim.Point{X: 2.5, Y: 0.2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetTrajectoryAt(n, testPath(t), 0); err != nil {
			t.Fatal(err)
		}
		scene := sys.AP.Scene()
		scene.AddObstruction(rfsim.Obstruction{Name: "person", A: rfsim.Point{X: 6, Y: 2}, B: rfsim.Point{X: 6, Y: 3}, LossDB: 25})
		mutate := func(step int) {
			// The person drifts across the room, sometimes crossing the
			// AP→back-wall ray (y spans negative to positive around x=6).
			y := 2 - 0.5*float64(step)
			scene.Obstructions[0].A, scene.Obstructions[0].B = rfsim.Point{X: 6, Y: y}, rfsim.Point{X: 6, Y: y + 1}
			if _, err := sys.AdvanceTrajectory(n, 0.4); err != nil {
				t.Fatal(err)
			}
		}
		loc := func(seed int64) LocalizationOutcome {
			out, err := sys.Localize(n, seed)
			if err != nil {
				t.Fatalf("localize: %v", err)
			}
			return out
		}
		return mutate, loc
	}

	for seed := int64(1); seed <= 3; seed++ {
		liveMut, liveLoc := build()
		for step := 0; step < 8; step++ {
			liveMut(step)
			refMut, refLoc := build()
			for s := 0; s <= step; s++ {
				refMut(s)
			}
			if live, ref := liveLoc(seed), refLoc(seed); live != ref {
				t.Fatalf("seed %d step %d: long-lived %+v != replayed %+v", seed, step, live, ref)
			}
		}
	}
}

// TestClockAdvances pins the clock semantics: starts at zero, accumulates,
// rejects rewinds, and is shared after SetClock.
func TestClockAdvances(t *testing.T) {
	sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	if now := sys.Clock().Now(); now != 0 {
		t.Fatalf("fresh clock at %g, want 0", now)
	}
	sys.Clock().Advance(1.5)
	sys.Clock().Advance(0.25)
	if now := sys.Clock().Now(); math.Abs(now-1.75) > 1e-15 {
		t.Fatalf("clock at %g, want 1.75", now)
	}
	shared := NewClock()
	sys2 := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	sys.SetClock(shared)
	sys2.SetClock(shared)
	sys.Clock().Advance(2)
	if sys2.Clock().Now() != 2 {
		t.Fatal("shared clock not visible across systems")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance must panic")
		}
	}()
	shared.Advance(-1)
}

// TestClockAdvanceRejectsOverflow pins that an advance whose sum is not
// finite panics and leaves the clock where it was, instead of carrying
// every later Now() to +Inf.
func TestClockAdvanceRejectsOverflow(t *testing.T) {
	c := NewClock()
	c.Advance(1.7e308)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an advance that overflows must panic")
			}
		}()
		c.Advance(1.7e308)
	}()
	if now := c.Now(); now != 1.7e308 {
		t.Fatalf("clock at %g after a rejected advance, want 1.7e308", now)
	}
	if now := c.Advance(1); math.IsInf(now, 0) {
		t.Fatalf("clock at %g after a finite advance", now)
	}
}
