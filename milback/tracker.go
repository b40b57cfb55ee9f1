package milback

import (
	"context"
	"fmt"

	"repro/internal/track"
)

// Tracker fuses a node's localization fixes through a constant-velocity
// Kalman filter, turning per-packet range/angle estimates into a smooth
// position + velocity stream — the form a VR/AR application (§1 of the
// paper) consumes. The filter state is 3-D ([x y z vx vy vz]); planar
// fixes from the simulator's 2-D RF plane leave the z channel coasting on
// its prior, and trajectory-bound nodes additionally fuse Doppler
// range-rate fixes (§5.2's chirp-to-chirp carrier phase).
type Tracker struct {
	c  *Cluster
	id NodeID
	kf *track.Filter
	// MeasurementStdM is the assumed 1-σ error of a single fix (default
	// 5 cm, the paper's mid-range ranging accuracy).
	MeasurementStdM float64
	// VelocityStdMS is the assumed 1-σ error of a Doppler range-rate fix
	// (default 0.35 m/s, the estimator's noise floor at walking speeds).
	VelocityStdMS float64
	// VelocityChirps is the Doppler burst length StepNow uses for
	// trajectory-bound nodes (default 64).
	VelocityChirps int
	t              float64
}

// NewTracker attaches a tracker to a node; its fixes are in the cluster
// frame. It returns ErrUnknownNode for an id the cluster never issued.
func (c *Cluster) NewTracker(id NodeID) (*Tracker, error) {
	if _, err := c.HasTrajectory(id); err != nil {
		return nil, err
	}
	kf, err := track.New(track.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("milback: %w", err)
	}
	return &Tracker{c: c, id: id, kf: kf, MeasurementStdM: 0.05, VelocityStdMS: 0.35, VelocityChirps: 64}, nil
}

// TrackedPose is a fused pose estimate.
type TrackedPose struct {
	// X, Y, Z is the filtered position; VX, VY, VZ the velocity estimate.
	// With planar fixes only, Z and VZ stay on the filter prior.
	X, Y, Z, VX, VY, VZ float64
	// StdX, StdY, StdZ are the 1-σ position uncertainties.
	StdX, StdY, StdZ float64
	// Raw is the unfiltered fix that fed this step.
	Raw Position
	// RadialVelocityMS is the Doppler fix fused this step (0 when none
	// was taken — static nodes take planar fixes only).
	RadialVelocityMS float64
	// T is the simulation time the step was filed under.
	T float64
}

// StepNow localizes the node once at the cluster's current simulation
// time and folds the fix into the track; for a trajectory-bound node it
// also measures radial velocity with a Doppler burst and fuses the
// range-rate fix. Advance the clock between steps (Cluster.AdvanceTime,
// or exchange airtime) — repeated steps at the same instant are legal but
// add no motion information. It can return ErrUnknownNode, ErrNoDetection,
// ErrCancelled and ErrClosed.
func (tr *Tracker) StepNow(ctx context.Context) (TrackedPose, error) {
	t := tr.c.Now()
	fuseVelocity, err := tr.c.HasTrajectory(tr.id)
	if err != nil {
		return TrackedPose{}, err
	}
	pos, err := tr.c.Localize(ctx, tr.id)
	if err != nil {
		return TrackedPose{}, err
	}
	if !tr.kf.Initialized() {
		tr.kf.Init(pos.X, pos.Y, 0, t)
	} else {
		if err := tr.kf.UpdatePlanar(pos.X, pos.Y, tr.MeasurementStdM, t); err != nil {
			return TrackedPose{}, fmt.Errorf("milback: %w", err)
		}
	}
	var radialV float64
	if fuseVelocity {
		radialV, err = tr.c.MeasureVelocity(ctx, tr.id, tr.VelocityChirps)
		if err != nil {
			return TrackedPose{}, err
		}
		if err := tr.kf.UpdateRadialVelocity(radialV, tr.VelocityStdMS, t); err != nil {
			return TrackedPose{}, fmt.Errorf("milback: %w", err)
		}
	}
	tr.t = t
	x, y, z, vx, vy, vz := tr.kf.State()
	sx, sy, sz := tr.kf.PositionStd()
	return TrackedPose{
		X: x, Y: y, Z: z, VX: vx, VY: vy, VZ: vz,
		StdX: sx, StdY: sy, StdZ: sz,
		Raw: pos, RadialVelocityMS: radialV, T: t,
	}, nil
}

// Speed returns the current speed estimate in m/s.
func (tr *Tracker) Speed() float64 { return tr.kf.Speed() }
