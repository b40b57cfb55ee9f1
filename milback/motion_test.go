package milback

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestTrajectoryValidation covers the facade trajectory error paths.
func TestTrajectoryValidation(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(11))
	n := mustJoin(t, c, 2, 0.3, 5)

	if _, err := c.AdvanceTrajectory(ctx, n, 0.1); !errors.Is(err, ErrNoTrajectory) {
		t.Errorf("advance without trajectory = %v, want ErrNoTrajectory", err)
	}
	bad := []Trajectory{
		{}, // no waypoints
		{Waypoints: []Waypoint{{T: 1, X: 1}, {T: 1, X: 2}}},         // non-increasing T
		{Waypoints: []Waypoint{{T: 0, X: math.NaN()}}},              // non-finite
		{Waypoints: []Waypoint{{T: -1, X: 1}, {T: 1, X: 2}}},        // negative start
		{Waypoints: []Waypoint{{T: 0, X: 1}}, Interpolation: 99},    // unknown interp
		{Waypoints: []Waypoint{{T: 2, X: 1}, {T: 1, X: 2}, {T: 3}}}, // T reversal
	}
	for i, tr := range bad {
		if err := c.SetTrajectory(ctx, n, tr); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad trajectory %d: SetTrajectory = %v, want ErrInvalidConfig", i, err)
		}
	}
	good := Trajectory{Waypoints: []Waypoint{{T: 0, X: 2, Y: 0.3, OrientationDeg: 5}, {T: 2, X: 3, Y: 0.5, OrientationDeg: 5}}}
	if err := c.SetTrajectory(ctx, n, good); err != nil {
		t.Fatalf("good trajectory: %v", err)
	}
	if has, err := c.HasTrajectory(n); err != nil || !has {
		t.Errorf("HasTrajectory = %v, %v after SetTrajectory", has, err)
	}
	if _, err := c.AdvanceTrajectory(ctx, n, -0.1); !errors.Is(err, ErrInvalidCoordinate) {
		t.Errorf("negative advance = %v, want ErrInvalidCoordinate", err)
	}
	if err := c.ClearTrajectory(ctx, n); err != nil {
		t.Fatal(err)
	}
	if has, err := c.HasTrajectory(n); err != nil || has {
		t.Errorf("HasTrajectory = %v, %v after ClearTrajectory", has, err)
	}
	if _, err := ConstantSpeedWaypoints(0, Waypoint{}, Waypoint{X: 1}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("zero-speed retiming = %v, want ErrInvalidConfig", err)
	}
	wps, err := ConstantSpeedWaypoints(2, Waypoint{X: 1}, Waypoint{X: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := wps[1].T; math.Abs(got-2) > 1e-12 {
		t.Errorf("4 m at 2 m/s retimed to T=%g, want 2", got)
	}
}

// truePlanar returns the node's ground-truth (x, y, orientation), failing
// the test on error.
func truePlanar(t *testing.T, c *Cluster, id NodeID) (x, y, orientDeg float64) {
	t.Helper()
	x, y, orientDeg, err := c.TruePosition(id)
	if err != nil {
		t.Fatal(err)
	}
	return x, y, orientDeg
}

// TestTrajectoryDrivesTruePose pins the facade's pose contract: after an
// advance the node's ground truth sits exactly on the trajectory, holding
// endpoints outside the timed span.
func TestTrajectoryDrivesTruePose(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(12))
	n := mustJoin(t, c, 2, 0, 0)
	tr := Trajectory{
		Waypoints: []Waypoint{
			{T: 0, X: 2.0, Y: -0.5, Z: 1.0, OrientationDeg: 4},
			{T: 2, X: 3.0, Y: 0.5, Z: 1.2, OrientationDeg: 8},
		},
	}
	if err := c.SetTrajectory(ctx, n, tr); err != nil {
		t.Fatal(err)
	}
	// Binding teleports to the start pose.
	if x, y, o := truePlanar(t, c, n); x != 2.0 || y != -0.5 || o != 4 {
		t.Fatalf("start pose = (%g, %g, %g°), want (2, -0.5, 4°)", x, y, o)
	}
	pose, err := c.AdvanceTrajectory(ctx, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pose.X-2.5) > 1e-12 || math.Abs(pose.Y-0) > 1e-12 ||
		math.Abs(pose.Z-1.1) > 1e-12 || math.Abs(pose.OrientationDeg-6) > 1e-12 {
		t.Fatalf("midpoint pose = %+v, want (2.5, 0, 1.1, 6°)", pose)
	}
	if x, y, _ := truePlanar(t, c, n); x != pose.X || y != pose.Y {
		t.Fatalf("true position (%g, %g) diverged from pose %+v", x, y, pose)
	}
	// Past the end the trajectory holds its last waypoint.
	pose, err = c.AdvanceTrajectory(ctx, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pose.X != 3.0 || pose.Y != 0.5 || pose.OrientationDeg != 8 {
		t.Fatalf("endpoint pose = %+v, want (3, 0.5, 8°)", pose)
	}
	// The node is still localizable while moving.
	if _, err := c.Localize(ctx, n); err != nil {
		t.Fatalf("localize on trajectory: %v", err)
	}
}

// TestMoveClearsTrajectory pins the teleport-overrides-motion contract: a
// Move on a trajectory-bound node unbinds the trajectory, and the next
// operation's grant does not snap the pose back onto it.
func TestMoveClearsTrajectory(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(13))
	n := mustJoin(t, c, 2, 0, 0)
	tr := Trajectory{Waypoints: []Waypoint{{T: 0, X: 2, Y: 0, OrientationDeg: 5}, {T: 4, X: 5, Y: 1, OrientationDeg: 5}}}
	if err := c.SetTrajectory(ctx, n, tr); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(ctx, n, 3.5, -0.4, 6); err != nil {
		t.Fatal(err)
	}
	if has, _ := c.HasTrajectory(n); has {
		t.Fatal("Move left the trajectory bound")
	}
	// A localization grants airtime and syncs motion; the teleported pose
	// must survive it.
	if _, err := c.Localize(ctx, n); err != nil {
		t.Fatal(err)
	}
	if x, y, _ := truePlanar(t, c, n); x != 3.5 || y != -0.4 {
		t.Fatalf("pose (%g, %g) snapped away from the teleport target", x, y)
	}
}

// TestSimulationClock pins the facade clock: zero at start, advanced by
// exchange airtime and by explicit AdvanceTime, shared across the
// deployment.
func TestSimulationClock(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(14))
	if got := c.Now(); got != 0 {
		t.Fatalf("fresh clock at %g, want 0", got)
	}
	n := mustJoin(t, c, 2, 0.3, 5)
	// A standalone localization spends no tracked airtime...
	if _, err := c.Localize(ctx, n); err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); got != 0 {
		t.Fatalf("clock at %g after localize, want 0 (fixes book no airtime)", got)
	}
	// ...an exchange folds its packet airtime in...
	ex, err := c.Send(ctx, n, []byte("tick"), Rate10Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); got != ex.AirtimeS {
		t.Fatalf("clock at %g after exchange, want its airtime %g", got, ex.AirtimeS)
	}
	// ...and explicit advances model idle time.
	base := c.Now()
	if got := c.AdvanceTime(0.25); got != base+0.25 {
		t.Fatalf("AdvanceTime returned %g, want %g", got, base+0.25)
	}
	if got := c.Now(); got != base+0.25 {
		t.Fatalf("clock at %g, want %g", got, base+0.25)
	}
	// An advance that would overflow panics and leaves the clock finite.
	c.AdvanceTime(1.7e308)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceTime past the largest finite time must panic")
			}
		}()
		c.AdvanceTime(1.7e308)
	}()
	if got := c.Now(); math.IsInf(got, 0) {
		t.Fatalf("clock at %g after a rejected overflow", got)
	}
}

// TestTrajectoryBoundaryHandoff pins the tentpole's cluster integration: a
// trajectory that comes nearer another AP hands the node off to that AP
// automatically, rebinds the trajectory at the new AP at the same motion
// time, and keeps the node operational there.
func TestTrajectoryBoundaryHandoff(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(WithAPLayout(APPlacement{}, APPlacement{X: 4}), WithInterferenceRadius(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const x0, y0, orient = 1.4, 0.6, 5.0
	id, err := c.Join(ctx, x0, y0, orient)
	if err != nil {
		t.Fatal(err)
	}
	fromAP, err := c.OwnerAP(id)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty, wantAP := findRoam(t, c, x0, y0)

	// Walk from the join position to the roam target over 2 s.
	tr := Trajectory{Waypoints: []Waypoint{
		{T: 0, X: x0, Y: y0, OrientationDeg: orient},
		{T: 2, X: tx, Y: ty, OrientationDeg: orient},
	}}
	if err := c.SetTrajectory(ctx, id, tr); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		pose, err := c.AdvanceTrajectory(ctx, id, 0.5)
		if err != nil {
			t.Fatalf("advance %d: %v", step, err)
		}
		frac := float64(step+1) * 0.5 / 2
		wx, wy := x0+(tx-x0)*frac, y0+(ty-y0)*frac
		if math.Abs(pose.X-wx) > 1e-9 || math.Abs(pose.Y-wy) > 1e-9 {
			t.Fatalf("advance %d pose (%g, %g), want (%g, %g)", step, pose.X, pose.Y, wx, wy)
		}
	}
	if ap, _ := c.OwnerAP(id); ap != wantAP {
		t.Fatalf("node at AP %d after crossing, want %d", ap, wantAP)
	}
	met := c.Metrics()
	if met.Handoffs == 0 {
		t.Fatal("trajectory crossed a cell boundary without a handoff")
	}
	if met.PerAP[fromAP].HandoffsOut == 0 || met.PerAP[wantAP].HandoffsIn == 0 {
		t.Fatalf("handoff counters missed the crossing: %+v", met.PerAP)
	}
	// The trajectory survived the handoff at the same motion time.
	has, err := c.HasTrajectory(id)
	if err != nil || !has {
		t.Fatalf("trajectory lost across handoff (has=%v, err=%v)", has, err)
	}
	pose, err := c.AdvanceTrajectory(ctx, id, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pose.X != tx || pose.Y != ty {
		t.Fatalf("endpoint pose (%g, %g), want (%g, %g)", pose.X, pose.Y, tx, ty)
	}
	// Still operational at the new AP (a far placement may legitimately be
	// out of range; anything but ErrNoDetection is a defect).
	if _, err := c.Localize(ctx, id); err != nil && !errors.Is(err, ErrNoDetection) {
		t.Fatalf("post-handoff localize: %v", err)
	}
}

// clusterTrajectoryChurnRun drives a 4-AP cluster through a fixed mix of
// trajectory advancement, scene churn (blockers added and removed off every
// propagation path) and captures — concurrently, one goroutine per node —
// and fingerprints every result bit-for-bit.
func clusterTrajectoryChurnRun(t *testing.T, seed int64) string {
	t.Helper()
	ctx := context.Background()
	c, err := NewCluster(WithSeed(seed), WithAPLayout(fourCorners()...), WithInterferenceRadius(4.5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	starts := []struct{ x, y, orient float64 }{
		{1.6, 0.4, 5},
		{2.4, 1.3, -10},
		{3.1, 2.6, 8},
	}
	ids := make([]NodeID, len(starts))
	for i, p := range starts {
		id, err := c.Join(ctx, p.x, p.y, p.orient)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids[i] = id
	}

	fps := make([]string, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sb strings.Builder
			id, p := ids[i], starts[i]
			payload := []byte(fmt.Sprintf("churn-node-%d", i))

			// A 1.8 m diagonal walk: long enough to cross cell boundaries
			// (ownership is hashed per 1 m cell), short enough to stay in
			// coverage.
			tr := Trajectory{Waypoints: []Waypoint{
				{T: 0, X: p.x, Y: p.y, OrientationDeg: p.orient},
				{T: 3, X: p.x + 1.3, Y: p.y + 1.2, OrientationDeg: p.orient},
			}}
			if err := c.SetTrajectory(ctx, id, tr); err != nil {
				fmt.Fprintf(&sb, "set-err=%v;", err)
			}
			ex, err := c.Send(ctx, id, payload, Rate10Mbps)
			recordExchange(&sb, ex, err)

			for step := 0; step < 3; step++ {
				pose, err := c.AdvanceTrajectory(ctx, id, 1)
				fmt.Fprintf(&sb, "pose=%v err=%v;", pose, err)
				// Scene churn: a blocker far outside every AP's propagation
				// geometry (all nodes and reflectors sit within ~±8 m), so
				// captures are bit-identical however the goroutines
				// interleave — which is exactly what this test pins.
				bname := fmt.Sprintf("churn-%d-%d", i, step)
				off := -40.0 - float64(i)*4 - float64(step)
				if err := c.AddBlocker(ctx, bname, off, off, off+0.5, off+0.5, 20); err != nil {
					fmt.Fprintf(&sb, "blocker-err=%v;", err)
				}
				pos, err := c.Localize(ctx, id)
				recordPosition(&sb, pos, err)
				v, err := c.MeasureVelocity(ctx, id, 32)
				fmt.Fprintf(&sb, "v=%v err=%v;", v, err)
				if _, err := c.RemoveBlocker(ctx, bname); err != nil {
					fmt.Fprintf(&sb, "unblock-err=%v;", err)
				}
			}
			ap, err := c.OwnerAP(id)
			fmt.Fprintf(&sb, "ap=%d err=%v;", ap, err)
			ex, err = c.Deliver(ctx, id, payload, Rate36Mbps)
			recordExchange(&sb, ex, err)
			fps[i] = sb.String()
		}(i)
	}
	wg.Wait()

	met := c.Metrics()
	var sb strings.Builder
	for i, fp := range fps {
		fmt.Fprintf(&sb, "node%d{%s}\n", i, fp)
	}
	fmt.Fprintf(&sb, "handoffs=%d", met.Handoffs)
	for _, apm := range met.PerAP {
		fmt.Fprintf(&sb, " ap%d=%d/%d/%d", apm.AP, apm.HandoffsIn, apm.HandoffsOut, apm.Nodes)
	}
	return sb.String()
}

// TestClusterTrajectoryChurnDeterministic pins the mobility engine's
// determinism contract under concurrency: trajectory advancement, blocker
// add/remove and captures interleaving across a 4-AP cluster produce
// bit-identical fingerprints for a fixed seed, run after run. Runs under
// -race via the determinism suite.
func TestClusterTrajectoryChurnDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 9000} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want := clusterTrajectoryChurnRun(t, seed)
			for run := 1; run < 3; run++ {
				if got := clusterTrajectoryChurnRun(t, seed); got != want {
					t.Fatalf("run %d diverged from run 0:\n got %s\nwant %s", run, got, want)
				}
			}
		})
	}
}
