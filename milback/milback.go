// Package milback is the public API of the MilBack simulator — a faithful
// reproduction of "A Millimeter Wave Backscatter Network for Two-Way
// Communication and Localization" (SIGCOMM 2023).
//
// A Cluster owns one or more simulated access points in an indoor scene.
// Nodes join at a position and orientation and are addressed by NodeID;
// each exchange runs the paper's full protocol packet (Fig 8): the node
// senses its own orientation, the AP localizes the node and senses its
// orientation, and the payload flows uplink or downlink over OAQFM tones
// selected from the orientation estimate.
//
// With no layout options NewCluster builds the paper's single-AP testbed.
// WithAPs and WithAPLayout scale the same protocol past it (the §9.5
// network-scale discussion): one engine per access point, each node homed
// at the live AP nearest it, roaming nodes handed off at grant
// boundaries, and every AP's airtime charged to one simulated clock.
//
// Quick start:
//
//	ctx := context.Background()
//	c, _ := milback.NewCluster()
//	defer c.Close()
//	id, _ := c.Join(ctx, 3, 0.5, -10) // x, y (m), orientation (deg)
//	pos, _ := c.Localize(ctx, id)
//	reply, _ := c.Send(ctx, id, []byte("hello"), milback.Rate10Mbps)
//	_ = pos; _ = reply
//
// # Concurrency
//
// A Cluster is safe for concurrent use: each AP serves one node at a time
// (spatial-division multiplexing — one beam), so each operation waits for
// its grant at its AP and runs on the calling goroutine once granted.
// Waiting calls are granted in arrival order, and a node's calls run one at
// a time, so a node with a backlog cannot starve its neighbours. Granted
// operations of different nodes compute side by side, each with its own
// beam pointing and noise stream, while discovery sweeps and blocker edits
// run alone; every operation's airtime is charged to one simulated clock.
// Any number of goroutines may drive distinct nodes; each call blocks until
// its operation completes. Every operation takes a ctx and honors
// cancellation while it waits for its grant and between packet phases; see
// ErrCancelled.
//
// Everything is deterministic: each node draws noise seeds from its own
// stream, derived from the cluster seed, its serving AP and its NodeID, so
// for a fixed seed the results are bit-identical regardless of how
// goroutines interleave.
package milback

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/rfsim"
)

// Standard data rates from the paper's evaluation.
const (
	// Rate10Mbps is the Fig 15a uplink rate.
	Rate10Mbps = 10e6
	// Rate40Mbps is the Fig 15b uplink rate.
	Rate40Mbps = 40e6
	// Rate36Mbps is the maximum downlink rate (§9.4).
	Rate36Mbps = 36e6
	// MaxUplinkRate is the switch-limited uplink ceiling (§9.5).
	MaxUplinkRate = 160e6
)

// Option configures a Cluster.
type Option func(*options)

type options struct {
	cfg             core.Config
	scene           *rfsim.Scene
	seed            int64
	jobTimeout      time.Duration
	debugAddr       string
	aps             int
	layout          []APPlacement
	interfRadius    float64
	interfRadiusSet bool
}

// WithSeed fixes the cluster's base random seed (default 1). Per-node seed
// streams are derived from it, so two clusters with the same seed and the
// same operation sequence produce identical results.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithEmptyScene removes the default indoor clutter (anechoic conditions).
func WithEmptyScene() Option {
	return func(o *options) { o.scene = rfsim.EmptyScene() }
}

// WithScene installs a custom clutter scene.
func WithScene(s *rfsim.Scene) Option {
	return func(o *options) { o.scene = s }
}

// WithSystemConfig replaces the full low-level system configuration. Most
// users should not need this; it is the escape hatch for ablations.
func WithSystemConfig(cfg core.Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithJobTimeout bounds how long any single scheduled operation (grant
// wait plus airtime) may take before it fails with ErrCancelled wrapping
// context.DeadlineExceeded. An operation still waiting at the deadline fails
// immediately; one already on the air finishes its current packet phase
// first (the channel is never preempted mid-capture) and abandons the
// remaining phases. Zero (the default) means no limit.
func WithJobTimeout(d time.Duration) Option {
	return func(o *options) { o.jobTimeout = d }
}

// Stats is a snapshot of cluster-wide counters maintained by the airtime
// schedulers. Its exchange totals match the sums over the successful
// Send/Deliver results.
type Stats struct {
	// Exchanges counts completed payload transfers (Send/Deliver; a
	// transfer counts once regardless of retransmissions).
	Exchanges uint64
	// Localizations counts completed standalone fixes (Localize, Discover
	// and Orientation calls; exchanges embed their own fix and are not
	// double-counted here).
	Localizations uint64
	// BitErrors and BitsSent accumulate what crossed the channel across all
	// exchanges: wire bits summed over attempts, errors counted before any
	// FEC correction (see Exchange).
	BitErrors uint64
	BitsSent  uint64
	// AirtimeS is the total simulated air occupancy in seconds.
	AirtimeS float64
	// Completed, Failed and Cancelled count scheduled jobs by outcome.
	Completed uint64
	Failed    uint64
	Cancelled uint64
}

// Position is a localization fix.
type Position struct {
	// RangeM is the AP→node distance estimate.
	RangeM float64
	// AzimuthDeg is the node's direction from the AP.
	AzimuthDeg float64
	// OrientationDeg is the AP-side estimate of the node's orientation.
	OrientationDeg float64
	// X, Y is the Cartesian position implied by range and azimuth.
	X, Y float64
}

func positionFromOutcome(out core.LocalizationOutcome) Position {
	az := out.AzimuthRad
	return Position{
		RangeM:         out.RangeM,
		AzimuthDeg:     rfsim.RadToDeg(az),
		OrientationDeg: out.OrientationDeg,
		X:              out.RangeM * math.Cos(az),
		Y:              out.RangeM * math.Sin(az),
	}
}

// Exchange is the outcome of a payload transfer. SNRdB, Position and
// NodeOrientationDeg come from the delivering packet; the counts and the
// accounting sum over every attempt.
type Exchange struct {
	// Data is the payload as received (at the AP for Send, at the node for
	// Deliver); with WithARQ or WithFEC, the CRC-verified payload.
	Data []byte
	// BitErrors and BitsSent measure link quality: the payload bits on the
	// wire (the frame and FEC code included) and their errors before any
	// correction.
	BitErrors, BitsSent int
	// SNRdB (uplink) or SINRdB (downlink) of the link.
	SNRdB float64
	// Position is the fix obtained during the packet preamble.
	Position Position
	// NodeOrientationDeg is the node-side orientation estimate from Field 1.
	NodeOrientationDeg float64
	// AirtimeS and NodeEnergyJ account for the packets.
	AirtimeS    float64
	NodeEnergyJ float64
	// Attempts counts the packets that ran to an outcome, the delivering
	// one included (1 without WithARQ).
	Attempts int
	// Corrections counts the bits WithFEC corrected.
	Corrections int
}

// BER returns the measured payload bit error rate.
func (e Exchange) BER() float64 {
	if e.BitsSent == 0 {
		return 0
	}
	return float64(e.BitErrors) / float64(e.BitsSent)
}

// ExchangeOption configures one Send or Deliver.
type ExchangeOption func(*exchangeOptions)

type exchangeOptions struct {
	coding proto.Coding
	err    error
}

// WithFEC protects the payload with Hamming(7,4) forward error correction
// and a depth-8 interleaver inside a CRC-checked frame (the Fig 15 range
// extension): isolated channel bit errors are corrected without the
// airtime of a retransmission, and residual errors fail the CRC.
func WithFEC() ExchangeOption {
	return func(o *exchangeOptions) { o.coding.FEC = true }
}

// WithARQ frames the payload with a CRC-16 and retransmits a corrupted or
// failed packet, stop-and-wait, up to maxAttempts packets in all. A
// maxAttempts below 1 fails the call with ErrInvalidConfig.
func WithARQ(maxAttempts int) ExchangeOption {
	return func(o *exchangeOptions) {
		if maxAttempts < 1 {
			o.err = fmt.Errorf("%w: ARQ needs at least 1 attempt, got %d", ErrInvalidConfig, maxAttempts)
		}
		o.coding.MaxAttempts = maxAttempts
	}
}

// exchangeCoding folds the options into a transfer's coding. A call
// without options returns before the options struct exists, so a raw
// exchange does not move it to the heap.
func exchangeCoding(opts []ExchangeOption) (proto.Coding, error) {
	if len(opts) == 0 {
		return proto.Coding{}, nil
	}
	var o exchangeOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o.coding, o.err
}

// checkRate rejects a bit rate that is not finite and positive before it
// reaches an engine job.
func checkRate(bitRate float64) error {
	if !(bitRate > 0) || math.IsInf(bitRate, 1) {
		return fmt.Errorf("%w: bit rate must be finite and positive, got %g", ErrInvalidConfig, bitRate)
	}
	return nil
}

// exchange maps a transfer outcome at this AP into the facade's Exchange,
// with the Position in the cluster frame.
func (c *apCell) exchange(out proto.TransferOutcome) Exchange {
	return Exchange{
		Data:               out.Payload,
		BitErrors:          out.BitErrors,
		BitsSent:           out.BitsSent,
		SNRdB:              out.LinkQualityDB,
		Position:           c.position(out.Localization),
		NodeOrientationDeg: out.NodeOrientation.EstimateDeg,
		AirtimeS:           out.AirtimeS,
		NodeEnergyJ:        out.NodeEnergyJ,
		Attempts:           out.Attempts,
		Corrections:        out.Corrections,
	}
}
