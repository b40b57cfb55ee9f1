package milback

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestTrackerFollowsMovingNode(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(41))
	n := mustJoin(t, c, 2, -0.5, 0)
	tr, err := c.NewTracker(n)
	if err != nil {
		t.Fatal(err)
	}
	// Single-fix angle errors grow with range (~1.6° typical at the phase
	// mismatch), so tell the filter the honest per-fix std for this
	// geometry instead of the default near-field 5 cm.
	tr.MeasurementStdM = 0.15
	// The node walks a straight line at 0.5 m/s in x, localized at 20 Hz on
	// the simulation clock (Move teleports, so StepNow takes planar fixes
	// only — no trajectory is bound).
	vx := 0.5
	var rawErr, filtErr, vxSum, vySum float64
	cnt := 0
	vCnt := 0
	var last TrackedPose
	for i := 0; i <= 120; i++ {
		tSec := float64(i) * 0.05
		trueX := 2 + vx*tSec
		trueY := -0.5
		if err := c.Move(ctx, n, trueX, trueY, 0); err != nil {
			t.Fatal(err)
		}
		pose, err := tr.StepNow(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		c.AdvanceTime(0.05)
		last = pose
		if i > 40 {
			rawErr += math.Hypot(pose.Raw.X-trueX, pose.Raw.Y-trueY)
			filtErr += math.Hypot(pose.X-trueX, pose.Y-trueY)
			cnt++
		}
		if i > 80 {
			vxSum += pose.VX
			vySum += pose.VY
			vCnt++
		}
	}
	rawErr /= float64(cnt)
	filtErr /= float64(cnt)
	if filtErr >= rawErr {
		t.Errorf("filtered error %.4f m should beat raw %.4f m", filtErr, rawErr)
	}
	// Velocity recovered (averaged over the settled tail; single-step
	// velocity jitters with the range-dependent fix noise).
	meanVX, meanVY := vxSum/float64(vCnt), vySum/float64(vCnt)
	if math.Abs(meanVX-vx) > 0.2 || math.Abs(meanVY) > 0.25 {
		t.Errorf("mean velocity (%.2f, %.2f), want (%.1f, 0)", meanVX, meanVY, vx)
	}
	if last.StdX <= 0 || last.StdY <= 0 {
		t.Error("uncertainty missing")
	}
}

// TestTrackerStepNowFusesTrajectory drives a node along a trajectory on
// the simulation clock and pins StepNow's fusion contract: steps are filed
// at clock time, trajectory-bound nodes fuse a Doppler range-rate fix, and
// the filtered track beats the raw fixes.
func TestTrackerStepNowFusesTrajectory(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(47))
	n := mustJoin(t, c, 2, -0.5, 0)
	tr, err := c.NewTracker(n)
	if err != nil {
		t.Fatal(err)
	}
	tr.MeasurementStdM = 0.15 // honest per-fix std at this range

	// Walk 0.5 m/s in +x for 6 s, localized at 20 Hz on the sim clock.
	traj := Trajectory{Waypoints: []Waypoint{
		{T: 0, X: 2, Y: -0.5, OrientationDeg: 0},
		{T: 6, X: 5, Y: -0.5, OrientationDeg: 0},
	}}
	if err := c.SetTrajectory(ctx, n, traj); err != nil {
		t.Fatal(err)
	}
	const dt = 0.05
	var rawErr, filtErr, vxSum float64
	cnt, vCnt := 0, 0
	sawVelocityFix := false
	var lastT float64
	for i := 0; i <= 120; i++ {
		pose, err := tr.StepNow(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i > 0 && pose.T <= lastT {
			t.Fatalf("step %d filed at T=%g, not after %g — clock not advancing", i, pose.T, lastT)
		}
		lastT = pose.T
		if pose.RadialVelocityMS != 0 {
			sawVelocityFix = true
		}
		trueX, trueY, _, err := c.TruePosition(n)
		if err != nil {
			t.Fatal(err)
		}
		if i > 40 {
			rawErr += math.Hypot(pose.Raw.X-trueX, pose.Raw.Y-trueY)
			filtErr += math.Hypot(pose.X-trueX, pose.Y-trueY)
			cnt++
		}
		if i > 80 {
			vxSum += pose.VX
			vCnt++
		}
		if _, err := c.AdvanceTrajectory(ctx, n, dt); err != nil {
			t.Fatal(err)
		}
		c.AdvanceTime(dt)
	}
	if !sawVelocityFix {
		t.Error("no step fused a Doppler range-rate fix")
	}
	rawErr /= float64(cnt)
	filtErr /= float64(cnt)
	if filtErr >= rawErr {
		t.Errorf("filtered error %.4f m should beat raw %.4f m", filtErr, rawErr)
	}
	if meanVX := vxSum / float64(vCnt); math.Abs(meanVX-0.5) > 0.2 {
		t.Errorf("mean VX %.2f, want 0.5", meanVX)
	}
}

// TestTrackerStepNowStaticNode: StepNow on a static (unbound) node takes
// no Doppler fix and leaves z on the prior.
func TestTrackerStepNowStaticNode(t *testing.T) {
	c := newTestCluster(t, WithSeed(48))
	tr, err := c.NewTracker(mustJoin(t, c, 2.5, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pose, err := tr.StepNow(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if pose.RadialVelocityMS != 0 {
			t.Fatalf("static node fused a Doppler fix: %g m/s", pose.RadialVelocityMS)
		}
		if pose.Z != 0 || pose.VZ != 0 {
			t.Fatalf("planar fixes moved z: z=%g vz=%g", pose.Z, pose.VZ)
		}
		c.AdvanceTime(0.05)
	}
}

func TestTrackerErrors(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(43))
	n := mustJoin(t, c, 3, 0, 5)
	if _, err := c.NewTracker(n + 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("tracker on unknown node: err = %v, want ErrUnknownNode", err)
	}
	tr, err := c.NewTracker(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.StepNow(ctx); err != nil {
		t.Fatal(err)
	}
	// A blocked node cannot be tracked.
	if err := c.AddBlocker(ctx, "person", 1.5, -0.5, 1.5, 0.5, 30); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(0.05)
	if _, err := tr.StepNow(ctx); err == nil {
		t.Fatal("blocked step should fail")
	}
}
