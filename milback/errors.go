package milback

import (
	"errors"
	"math"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/proto"
)

// Sentinel errors of the public API. Every milback method documents which
// of these it can return; match with errors.Is — the sentinels re-exported
// from the internal layers arrive wrapped through the full error chain, so
// the chain's context (which phase failed, at what rate) is preserved in
// the message while the sentinel stays matchable.
var (
	// ErrInvalidConfig reports a rejected configuration: a nil scene or a
	// core.Config the system cannot operate with at construction, a bit
	// rate that is not finite and positive or WithARQ below one attempt
	// passed to an exchange, and — re-exported from the capture layer — an
	// invalid chirp program or chirp count reaching a capture at runtime.
	ErrInvalidConfig error = ap.ErrInvalidConfig

	// ErrInvalidCoordinate reports NaN or ±Inf coordinates or orientations
	// passed to Join or Move — caught at the facade so non-finite values
	// never reach the physics.
	ErrInvalidCoordinate = errors.New("milback: non-finite coordinate")

	// ErrNoDetection reports that the AP could not find the node's
	// reflection: no beat peak, a peak buried in clutter, or an empty
	// discovery sweep. Typical causes are blockers on the line of sight and
	// out-of-range placements.
	ErrNoDetection error = ap.ErrNoDetection

	// ErrOutOfBand reports a requested data rate outside the node's
	// switch-limited sustainable band (§9.5; MaxUplinkRate is the ceiling).
	ErrOutOfBand error = core.ErrRateUnsupported

	// ErrCancelled reports that a call's context was cancelled or its
	// deadline (or the network's job timeout) expired before the AP
	// scheduler completed the operation. It wraps the context error, so
	// errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) also discriminate the cause.
	ErrCancelled error = proto.ErrCancelled

	// ErrClosed reports an operation on a network after Close.
	ErrClosed error = proto.ErrClosed

	// ErrUnknownNode reports a NodeID a Cluster has never issued.
	ErrUnknownNode = errors.New("milback: unknown node")

	// ErrNoTrajectory reports an AdvanceTrajectory on a node that has no
	// trajectory bound (SetTrajectory was never called, or a Move/teleport
	// cleared it).
	ErrNoTrajectory = errors.New("milback: node has no trajectory")
)

// finite reports whether every argument is a usable coordinate (no NaN or
// ±Inf).
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
