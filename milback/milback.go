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
// boundaries, and co-channel APs inside the link-budget interference
// radius serialized.
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
// (spatial-division multiplexing — one beam), so an internal airtime
// scheduler queues operations and grants the channel round-robin across
// nodes. Any number of goroutines may drive distinct nodes; each call
// blocks until its turn on the air completes. Every operation takes a ctx
// and honors cancellation while it waits in the queue and between packet
// phases; see ErrCancelled.
//
// Everything is deterministic: each node draws noise seeds from its own
// stream, derived from the cluster seed, its serving AP and its NodeID, so
// for a fixed seed the results are bit-identical regardless of how
// goroutines interleave.
package milback

import (
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

// WithJobTimeout bounds how long any single scheduled operation (queue wait
// plus airtime) may take before it fails with ErrCancelled wrapping
// context.DeadlineExceeded. An operation still queued at the deadline fails
// immediately; one already on the air finishes its current packet phase
// first (the channel is never preempted mid-capture) and abandons the
// remaining phases. Zero (the default) means no limit.
func WithJobTimeout(d time.Duration) Option {
	return func(o *options) { o.jobTimeout = d }
}

// Stats is a snapshot of cluster-wide counters maintained by the airtime
// schedulers. For plain Send/Deliver calls the totals match the
// per-exchange sums of the individual results; reliable and FEC transfers
// contribute their wire-level accounting (the framed payload over every
// attempt, with bit errors counted before any correction).
type Stats struct {
	// Exchanges counts completed payload transfers (Send/Deliver; a
	// reliable or FEC transfer counts once regardless of retransmissions).
	Exchanges uint64
	// Localizations counts completed standalone fixes (Localize, Discover
	// and Orientation calls; exchanges embed their own fix and are not
	// double-counted here).
	Localizations uint64
	// BitErrors and BitsSent accumulate what crossed the channel across all
	// exchanges: raw payload bits for Send/Deliver, framed wire bits summed
	// over attempts (errors pre-correction) for reliable/FEC transfers.
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

// Exchange is the outcome of a payload transfer.
type Exchange struct {
	// Data is the payload as received (at the AP for Send, at the node for
	// Deliver).
	Data []byte
	// BitErrors and BitsSent measure link quality.
	BitErrors, BitsSent int
	// SNRdB (uplink) or SINRdB (downlink) of the link.
	SNRdB float64
	// Position is the fix obtained during the packet preamble.
	Position Position
	// NodeOrientationDeg is the node-side orientation estimate from Field 1.
	NodeOrientationDeg float64
	// AirtimeS and NodeEnergyJ account for the packet.
	AirtimeS    float64
	NodeEnergyJ float64
}

// BER returns the measured payload bit error rate.
func (e Exchange) BER() float64 {
	if e.BitsSent == 0 {
		return 0
	}
	return float64(e.BitErrors) / float64(e.BitsSent)
}

// exchange maps a protocol packet outcome at this AP into the facade's
// Exchange, with the Position in the cluster frame.
func (c *apCell) exchange(out proto.PacketOutcome) Exchange {
	return Exchange{
		Data:               out.Payload,
		BitErrors:          out.BitErrors,
		BitsSent:           out.BitsSent,
		SNRdB:              out.LinkQualityDB,
		Position:           c.position(out.Localization),
		NodeOrientationDeg: out.NodeOrientation.EstimateDeg,
		AirtimeS:           out.AirtimeS,
		NodeEnergyJ:        out.NodeEnergyJ,
	}
}
