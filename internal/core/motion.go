package core

import (
	"fmt"

	"repro/internal/motion"
	"repro/internal/node"
	"repro/internal/rfsim"
)

// mover binds a node to a trajectory. Its motion time t is the node's own
// clock along the path: it advances only through AdvanceTrajectory calls
// run as the node's airtime jobs, never by sampling a shared clock,
// so a node's pose sequence depends only on its own operation order — the
// property the cluster's 3-seed determinism fingerprints pin.
type mover struct {
	path    *motion.Path
	t       float64
	pose    motion.Pose
	radialV float64
}

// sample freezes the trajectory's pose at the mover's current motion time
// into the node — position, orientation, and the analytic planar radial
// velocity the synthesizer will feed the Doppler model. Binding and every
// advance sample once, and the pose then holds until the next advance
// (pose-at-advance semantics).
func (m *mover) sample(n *node.Node) {
	m.pose = m.path.PoseAt(m.t)
	m.radialV = motion.RadialVelocity(m.pose, m.path.VelocityAt(m.t))
	n.Position = rfsim.Point{X: m.pose.X, Y: m.pose.Y}
	n.OrientationDeg = m.pose.OrientationDeg
}

// SetTrajectoryAt binds a trajectory to a registered node starting at
// motion time t0 (seconds along the path), immediately sampling the pose.
// A nil path unbinds. Like every scene mutation, callers must serialize
// this against captures — the cluster runs it as one of the node's airtime
// jobs.
func (s *System) SetTrajectoryAt(n *node.Node, p *motion.Path, t0 float64) error {
	if s.movers == nil {
		s.movers = make(map[*node.Node]*mover)
	}
	if p == nil {
		delete(s.movers, n)
		return nil
	}
	if t0 < 0 {
		return fmt.Errorf("core: trajectory start time must be >= 0, got %g", t0)
	}
	m := &mover{path: p, t: t0}
	m.sample(n)
	s.movers[n] = m
	return nil
}

// AdvanceTrajectory moves a bound node dt seconds along its trajectory and
// returns the new pose. The pose freezes until the next advance: captures
// granted in between all see this sample, and their synthesized Doppler
// uses the matching analytic radial velocity.
func (s *System) AdvanceTrajectory(n *node.Node, dt float64) (motion.Pose, error) {
	m := s.movers[n]
	if m == nil {
		return motion.Pose{}, fmt.Errorf("core: node has no trajectory")
	}
	if dt < 0 {
		return motion.Pose{}, fmt.Errorf("core: trajectory advance must be >= 0, got %g", dt)
	}
	m.t += dt
	m.sample(n)
	return m.pose, nil
}

// TrajectoryPose returns the bound node's frozen pose sample and motion
// time, or ok=false for nodes without a trajectory.
func (s *System) TrajectoryPose(n *node.Node) (pose motion.Pose, t float64, ok bool) {
	m := s.movers[n]
	if m == nil {
		return motion.Pose{}, 0, false
	}
	return m.pose, m.t, true
}

// RadialVelocityOf returns the node's sampled analytic radial velocity
// (m/s, positive receding) — zero for nodes without a trajectory, so the
// static capture path is untouched.
func (s *System) RadialVelocityOf(n *node.Node) float64 {
	if m := s.movers[n]; m != nil {
		return m.radialV
	}
	return 0
}

// MeasureTrajectoryVelocity is MeasureRadialVelocity with the ground-truth
// range rate taken from the node's trajectory sample instead of a caller
// argument — the ISAC measurement path for trajectory-driven nodes. For
// unbound nodes the truth is zero (a static node measures ~0 m/s).
func (s *System) MeasureTrajectoryVelocity(n *node.Node, nChirps int, seed int64) (float64, error) {
	return s.MeasureRadialVelocity(n, s.RadialVelocityOf(n), nChirps, seed)
}

// Clock returns the deployment's simulation clock.
func (s *System) Clock() *Clock { return s.clock }

// SetClock replaces the system's clock — wiring-time configuration used by
// the cluster so every cell shares one timeline. Not safe to call once
// traffic flows.
func (s *System) SetClock(c *Clock) {
	if c != nil {
		s.clock = c
	}
}
