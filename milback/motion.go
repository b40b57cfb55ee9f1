package milback

import (
	"context"
	"fmt"

	"repro/internal/motion"
)

// Interpolation selects how a Trajectory moves between waypoints.
type Interpolation int

const (
	// InterpLinear moves in straight segments at piecewise-constant
	// velocity (velocity jumps at waypoints).
	InterpLinear Interpolation = iota
	// InterpCubic follows a Catmull-Rom spline through the waypoints with
	// continuous velocity — the natural model for head/hand motion.
	InterpCubic
)

// Waypoint is one timed knot of a Trajectory, in cluster-frame meters.
// T is the waypoint's motion time in seconds along the trajectory's own
// timeline (strictly increasing; the first waypoint's T is where the
// trajectory starts). Z rides along for the 3-D tracker but does not
// affect the planar RF simulation.
type Waypoint struct {
	T, X, Y, Z     float64
	OrientationDeg float64
}

// Trajectory is a continuous-time motion plan: the node's true pose is
// defined for every instant of the trajectory's timeline, interpolated
// through the waypoints (endpoints hold outside the timed span).
type Trajectory struct {
	Waypoints     []Waypoint
	Interpolation Interpolation
}

// path compiles the facade trajectory into the internal motion model.
func (tr Trajectory) path() (*motion.Path, error) {
	wps := make([]motion.Waypoint, len(tr.Waypoints))
	for i, w := range tr.Waypoints {
		wps[i] = motion.Waypoint{T: w.T, X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	interp := motion.Linear
	switch tr.Interpolation {
	case InterpLinear:
	case InterpCubic:
		interp = motion.Cubic
	default:
		return nil, fmt.Errorf("%w: unknown interpolation %d", ErrInvalidConfig, tr.Interpolation)
	}
	p, err := motion.NewPath(wps, interp)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	if p.Start() < 0 {
		return nil, fmt.Errorf("%w: trajectory starts at negative time %g", ErrInvalidConfig, p.Start())
	}
	return p, nil
}

// ConstantSpeedWaypoints retimes a spatial waypoint sequence so the node
// traverses it at the given constant speed (m/s): the input T values are
// ignored and replaced by cumulative chord length over speed. The helper
// for "walk this route at 2 m/s" experiment setups.
func ConstantSpeedWaypoints(speedMS float64, wps ...Waypoint) ([]Waypoint, error) {
	in := make([]motion.Waypoint, len(wps))
	for i, w := range wps {
		in[i] = motion.Waypoint{X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	timed, err := motion.ConstantSpeed(in, speedMS)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	out := make([]Waypoint, len(timed))
	for i, w := range timed {
		out[i] = Waypoint{T: w.T, X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	return out, nil
}

// Pose is a node's ground-truth pose sampled from its trajectory, in
// cluster-frame meters and degrees.
type Pose struct {
	X, Y, Z        float64
	OrientationDeg float64
}

// SetTrajectory binds a trajectory to the node. The node teleports to the
// trajectory's starting pose immediately (triggering a handoff if that
// pose lies in another AP's cell) and its true pose then follows the
// trajectory as AdvanceTrajectory moves it along the timeline; every
// capture between advances sees the frozen pose and the matching analytic
// radial velocity, so synthesized Doppler is consistent with the motion.
// It can return ErrUnknownNode, ErrInvalidConfig (bad waypoints),
// ErrCancelled and ErrClosed.
func (c *Cluster) SetTrajectory(ctx context.Context, id NodeID, tr Trajectory) error {
	p, err := tr.path()
	if err != nil {
		return err
	}
	cn, err := c.lockNode(id)
	if err != nil {
		return err
	}
	defer cn.mu.Unlock()
	start := p.Start()
	pose := p.PoseAt(start)
	c.mu.Lock()
	target := c.ownerLocked(pose.X, pose.Y)
	c.mu.Unlock()
	if target != cn.ap {
		if err := c.handoffLocked(ctx, cn, target, pose.X, pose.Y, pose.OrientationDeg, false); err != nil {
			return err
		}
	}
	cell := c.aps[cn.ap]
	local := p.Translated(-cell.place.X, -cell.place.Y)
	if err := cell.net.SetTrajectoryContext(ctx, cn.sess, local, start); err != nil {
		return fmt.Errorf("milback: %w", err)
	}
	cn.path, cn.motionT = p, start
	cn.x, cn.y, cn.orientDeg = pose.X, pose.Y, pose.OrientationDeg
	return nil
}

// ClearTrajectory unbinds the node's trajectory, leaving it static at its
// current pose. A no-op for nodes without one.
func (c *Cluster) ClearTrajectory(ctx context.Context, id NodeID) error {
	cn, err := c.lockNode(id)
	if err != nil {
		return err
	}
	defer cn.mu.Unlock()
	return c.clearTrajectoryLocked(ctx, cn)
}

// clearTrajectoryLocked unbinds cn's trajectory at its serving AP; callers
// hold cn.mu.
func (c *Cluster) clearTrajectoryLocked(ctx context.Context, cn *clusterNode) error {
	if cn.path == nil {
		return nil
	}
	if err := c.aps[cn.ap].net.SetTrajectoryContext(ctx, cn.sess, nil, 0); err != nil {
		return fmt.Errorf("milback: %w", err)
	}
	cn.path, cn.motionT = nil, 0
	return nil
}

// AdvanceTrajectory moves the node dt seconds (≥ 0) along its bound
// trajectory and returns the new cluster-frame pose. The advance is
// scheduled on the node's airtime queue, so it never races a capture; if
// the new pose's grid cell is owned by a different AP the advance is a
// roaming handoff (exactly like Move across a cell boundary) and the
// trajectory is rebound at the new serving AP at the same motion time.
// It can return ErrUnknownNode, ErrNoTrajectory, ErrCancelled and
// ErrClosed.
func (c *Cluster) AdvanceTrajectory(ctx context.Context, id NodeID, dt float64) (Pose, error) {
	if dt < 0 || !finite(dt) {
		return Pose{}, fmt.Errorf("%w: trajectory advance %g", ErrInvalidCoordinate, dt)
	}
	cn, err := c.lockNode(id)
	if err != nil {
		return Pose{}, err
	}
	defer cn.mu.Unlock()
	if cn.path == nil {
		return Pose{}, fmt.Errorf("%w: id %d", ErrNoTrajectory, id)
	}
	newT := cn.motionT + dt
	sample := cn.path.PoseAt(newT)
	pose := Pose{X: sample.X, Y: sample.Y, Z: sample.Z, OrientationDeg: sample.OrientationDeg}
	c.mu.Lock()
	target := c.ownerLocked(pose.X, pose.Y)
	c.mu.Unlock()
	if target == cn.ap {
		if _, err := c.aps[cn.ap].net.AdvanceTrajectoryContext(ctx, cn.sess, dt); err != nil {
			return Pose{}, fmt.Errorf("milback: %w", err)
		}
	} else {
		// The trajectory crossed a ring cell boundary: hand the node off to
		// the owner of its new cell, then rebind the remaining trajectory
		// there — same path, same motion time, translated into the new AP's
		// frame.
		if err := c.handoffLocked(ctx, cn, target, pose.X, pose.Y, pose.OrientationDeg, false); err != nil {
			return Pose{}, err
		}
		cell := c.aps[cn.ap]
		local := cn.path.Translated(-cell.place.X, -cell.place.Y)
		if err := cell.net.SetTrajectoryContext(ctx, cn.sess, local, newT); err != nil {
			return Pose{}, fmt.Errorf("milback: handoff rebind: %w", err)
		}
	}
	cn.motionT = newT
	cn.x, cn.y, cn.orientDeg = pose.X, pose.Y, pose.OrientationDeg
	return pose, nil
}

// HasTrajectory reports whether the node has a trajectory bound.
func (c *Cluster) HasTrajectory(id NodeID) (bool, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return false, err
	}
	defer cn.mu.Unlock()
	return cn.path != nil, nil
}

// MeasureVelocity runs a Doppler burst of nChirps against the node at its
// serving AP (§5.2's chirp-to-chirp carrier phase, repurposed for range
// rate) and returns the estimated radial velocity in m/s relative to that
// AP, positive receding. Estimator noise grows with speed
// (≈ 0.3 + 0.02·|v| m/s 1-σ); more chirps average more phase slopes.
// It can return ErrUnknownNode, ErrNoDetection, ErrCancelled and
// ErrClosed.
func (c *Cluster) MeasureVelocity(ctx context.Context, id NodeID, nChirps int) (float64, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, err
	}
	defer cn.mu.Unlock()
	v, err := c.aps[cn.ap].net.MeasureVelocityContext(ctx, cn.sess, nChirps)
	if err != nil {
		return 0, fmt.Errorf("milback: %w", err)
	}
	return v, nil
}

// AdvanceTime moves the cluster's shared simulation clock forward dt
// seconds and returns the new time. The clock also advances automatically
// by every exchange's airtime; explicit advances model idle time between
// operations. Panics on negative or non-finite dt.
func (c *Cluster) AdvanceTime(dt float64) float64 {
	return c.aps[0].sys.Clock().Advance(dt)
}

// Now returns the cluster's simulation time in seconds: total exchange
// airtime plus explicit AdvanceTime advances, never wall clock.
func (c *Cluster) Now() float64 {
	return c.aps[0].sys.Clock().Now()
}
