package proto

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/node"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// PacketOutcome reports one full Fig-8 packet exchange.
type PacketOutcome struct {
	// Direction the node decoded from Field 1 (must match the request).
	Direction waveform.Direction
	// NodeOrientation is the node-side estimate from Field 1 (§5.2b).
	NodeOrientation node.OrientationResult
	// Localization is the AP-side outcome of Field 2 (§5.1/§5.2a).
	Localization core.LocalizationOutcome
	// Payload is the received payload (at the node for downlink, at the AP
	// for uplink).
	Payload []byte
	// BitErrors and BitsSent describe payload integrity.
	BitErrors, BitsSent int
	// LinkQualityDB is the payload link quality: SINR at the node for
	// downlink, link-budget SNR at the AP for uplink.
	LinkQualityDB float64
	// AirtimeS is the total packet duration.
	AirtimeS float64
	// NodeEnergyJ is the node-side energy spent on the packet.
	NodeEnergyJ float64
}

// BER returns the payload bit error rate.
func (p PacketOutcome) BER() float64 {
	if p.BitsSent == 0 {
		return 0
	}
	return float64(p.BitErrors) / float64(p.BitsSent)
}

// Session is the AP's per-node protocol state. Each session owns its seed
// stream: operation k of session i draws the same noise whatever any other
// session does, which is what makes concurrent exchanges deterministic.
type Session struct {
	sys  *core.System
	node *node.Node
	id   int
	// LastOutcome caches the most recent packet outcome (tracking state).
	LastOutcome *PacketOutcome
	rng         SeedStream
	frameSeq    int
}

// NewSession binds a node to the system's AP with the given stream seed.
func NewSession(sys *core.System, n *node.Node, seed int64) (*Session, error) {
	if sys == nil || n == nil {
		return nil, fmt.Errorf("proto: nil system or node")
	}
	return &Session{sys: sys, node: n, rng: NewSeedStream(seed)}, nil
}

// ID returns the session's scheduler queue key (join order, starting at 1;
// 0 is reserved for network-scope jobs).
func (s *Session) ID() int { return s.id }

// nextSeed draws the session's next deterministic operation seed.
func (s *Session) nextSeed() int64 {
	return s.rng.Next()
}

// localizationSwitchRate is the node's Field-2 toggle rate (§5.1: 10 kHz).
const localizationSwitchRate = 10e3

// RunPacketContext executes one complete packet on the caller's goroutine.
// For downlink, payload is what the AP sends and the outcome's Payload is
// what the node decoded; for uplink, payload is the node's data and the
// outcome's Payload is what the AP decoded. rate is the payload data rate
// in bits/s. ctx is checked between the packet phases (Field 1, Field 2,
// payload): a cancellation mid-packet abandons the remainder and returns
// ErrCancelled wrapping the context error; the session's seed stream still
// advances past the abandoned phases' draws only up to the point reached.
func (s *Session) RunPacketContext(ctx context.Context, dir waveform.Direction, payload []byte, rate float64) (PacketOutcome, error) {
	if len(payload) == 0 {
		return PacketOutcome{}, fmt.Errorf("proto: empty payload")
	}
	if rate <= 0 {
		return PacketOutcome{}, fmt.Errorf("proto: rate must be positive, got %g", rate)
	}
	if err := ctx.Err(); err != nil {
		return PacketOutcome{}, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	spec := waveform.DefaultPacketSpec(dir, 0)

	// ---- Field 1: direction announcement + node-side orientation ----
	// The Field-1 trace is a node-side sampling (no chirp capture at the
	// AP), but it still flows through the capture plane: the lease steers
	// the horns at the node and owns the phase's noise stream.
	lease := s.sys.Capture().Acquire(s.node.AzimuthRad(), s.nextSeed())
	defer lease.Close()
	ns := lease.Noise
	apCfg := s.sys.Config().AP
	trace := s.node.Field1Trace(spec, s.sys.EffectiveTxPowerW(s.node), apCfg.TxGainDBi, ns)
	chirpSamples := spec.OrientationChirp.SampleCount(s.node.Config().ADCSampleRateHz)
	gotDir, err := node.DetectDirection(trace, chirpSamples)
	if err != nil {
		return PacketOutcome{}, fmt.Errorf("proto: field 1: %w", err)
	}
	if gotDir != dir {
		return PacketOutcome{}, fmt.Errorf("proto: node decoded direction %v, AP sent %v", gotDir, dir)
	}
	nodeOri, err := s.sys.SenseOrientationAtNode(s.node, s.nextSeed())
	if err != nil {
		return PacketOutcome{}, fmt.Errorf("proto: field 1 orientation: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return PacketOutcome{}, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// ---- Field 2: AP localization + orientation ----
	loc, err := s.sys.Localize(s.node, s.nextSeed())
	if err != nil {
		return PacketOutcome{}, fmt.Errorf("proto: field 2: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return PacketOutcome{}, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// ---- Payload ----
	out := PacketOutcome{
		Direction:       dir,
		NodeOrientation: nodeOri,
		Localization:    loc,
	}
	var payloadS float64
	switch dir {
	case waveform.Downlink:
		res, err := s.sys.Downlink(s.node, loc.OrientationDeg, payload, rate/2, s.nextSeed())
		if err != nil {
			return PacketOutcome{}, fmt.Errorf("proto: payload: %w", err)
		}
		out.Payload = res.Data
		out.BitErrors = res.BitErrors
		out.BitsSent = res.BitsSent
		out.LinkQualityDB = res.SINRdB
		payloadS = float64(res.BitsSent) / rate
	case waveform.Uplink:
		res, err := s.sys.Uplink(s.node, loc.OrientationDeg, payload, rate, s.nextSeed())
		if err != nil {
			return PacketOutcome{}, fmt.Errorf("proto: payload: %w", err)
		}
		out.Payload = res.Data
		out.BitErrors = res.BitErrors
		out.BitsSent = res.BitsSent
		out.LinkQualityDB = res.SNRdB
		payloadS = float64(res.BitsSent) / rate
	default:
		return PacketOutcome{}, fmt.Errorf("proto: unknown direction %v", dir)
	}

	// ---- Accounting ----
	f1 := spec.Field1Duration()
	f2 := spec.Field2Duration()
	out.AirtimeS = f1 + f2 + payloadS
	pm := s.node.Power
	energy := pm.Power(node.ModeDownlink, 0) * f1 // listening with detectors on
	energy += pm.Power(node.ModeLocalization, localizationSwitchRate) * f2
	if dir == waveform.Uplink {
		energy += pm.Power(node.ModeUplink, node.UplinkToggleRate(rate)) * payloadS
	} else {
		energy += pm.Power(node.ModeDownlink, 0) * payloadS
	}
	out.NodeEnergyJ = energy
	s.LastOutcome = &out
	return out, nil
}

// Network serves multiple nodes with SDM scheduling: every *Context call is
// a job granted the simulated channel by the airtime scheduler, so any
// number of goroutines can exchange packets concurrently.
type Network struct {
	sys        *core.System
	baseSeed   int64
	jobTimeout time.Duration
	admit      func() (release func())

	mu       sync.Mutex
	sessions []*Session
	netRNG   SeedStream

	engOnce sync.Once
	eng     *Engine
}

// NetworkOptions parameterizes NewNetwork.
type NetworkOptions struct {
	// BaseSeed roots every session's seed stream.
	BaseSeed int64
	// JobTimeout bounds each scheduled job's time in the scheduler
	// (0 = none; see EngineConfig.JobTimeout).
	JobTimeout time.Duration
	// Admit, when set, gates every airtime grant through a deployment-level
	// admission check (see EngineConfig.Admit). The cluster facade wires
	// all co-channel APs of one cluster to a shared coordinator here.
	Admit func() (release func())
}

// NewNetwork wraps a system with the given scheduler options.
func NewNetwork(sys *core.System, opts NetworkOptions) *Network {
	return &Network{
		sys:        sys,
		baseSeed:   opts.BaseSeed,
		jobTimeout: opts.JobTimeout,
		admit:      opts.Admit,
		netRNG:     NewSeedStream(DeriveSessionSeed(opts.BaseSeed, networkJobKey)),
	}
}

// System returns the underlying system.
func (n *Network) System() *core.System { return n.sys }

// engine lazily starts the airtime scheduler. Each granted job is
// bracketed by a capture-plane job lease, so any capture buffers a job
// leaks are reclaimed when its airtime grant ends.
func (n *Network) engine() *Engine {
	n.engOnce.Do(func() {
		n.eng = NewEngine(EngineConfig{
			JobTimeout: n.jobTimeout,
			Obs:        n.sys.Obs(),
			Tracer:     n.sys.Tracer(),
			Admit:      n.admit,
			OnGrant: func() func() {
				// Pose-at-grant: freeze every trajectory-bound node's pose
				// (idempotent between advances) before the job's captures,
				// then bracket the job with a capture lease.
				n.sys.SyncMotion()
				return n.sys.Capture().BeginJob().End
			},
			OnAirtime: func(seconds float64) { n.sys.Clock().Advance(seconds) },
		})
	})
	return n.eng
}

// Close shuts the airtime scheduler down. Queued jobs fail with ErrClosed;
// subsequent *Context calls fail the same way. Idempotent.
func (n *Network) Close() {
	n.engine().Close()
}

// Stats returns a snapshot of the scheduler's accounting.
func (n *Network) Stats() Stats {
	return n.engine().Stats()
}

// Join creates a session for a node placed at pos/orientation. The
// session's seed stream derives from the network base seed and the node's
// join index, so per-node noise is independent of every other node's
// activity. Safe for concurrent use.
func (n *Network) Join(pos rfsim.Point, orientationDeg float64) (*Session, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := len(n.sessions) + 1 // 0 is the network-scope queue key
	return n.joinLocked(pos, orientationDeg, id, DeriveSessionSeed(n.baseSeed, id))
}

// JoinSeeded creates a session with a caller-chosen queue id and seed-stream
// root — the hook the cluster facade uses so a node's noise stream derives
// from its cluster-wide identity (and handoff generation) rather than from
// its join order at whichever AP currently serves it. id must be positive
// (0 is the network-scope queue key) and unique among the network's live
// sessions. Safe for concurrent use.
func (n *Network) JoinSeeded(pos rfsim.Point, orientationDeg float64, id int, seed int64) (*Session, error) {
	if id <= 0 {
		return nil, fmt.Errorf("proto: session id must be positive, got %d", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.sessions {
		if s.id == id {
			return nil, fmt.Errorf("proto: session id %d already joined", id)
		}
	}
	return n.joinLocked(pos, orientationDeg, id, seed)
}

// joinLocked registers a node and its session; callers hold n.mu.
func (n *Network) joinLocked(pos rfsim.Point, orientationDeg float64, id int, seed int64) (*Session, error) {
	nd, err := n.sys.AddNode(pos, orientationDeg)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(n.sys, nd, seed)
	if err != nil {
		return nil, err
	}
	s.id = id
	n.sessions = append(n.sessions, s)
	return s, nil
}

// Detach removes a session from the network and its node from the system,
// reporting whether the session was present. The caller is responsible for
// scheduling the detach so it cannot race a capture in flight — the cluster
// runs it as a job on the session's own queue, which drains any granted
// operation first. A detached session's pointer stays valid but the node no
// longer participates in discovery sweeps or superframes.
func (n *Network) Detach(s *Session) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, have := range n.sessions {
		if have == s {
			n.sessions = append(n.sessions[:i], n.sessions[i+1:]...)
			n.sys.RemoveNode(s.node)
			return true
		}
	}
	return false
}

// Sessions returns a snapshot of all sessions in join order.
func (n *Network) Sessions() []*Session {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Session, len(n.sessions))
	copy(out, n.sessions)
	return out
}

// Node returns a session's node.
func (s *Session) Node() *node.Node { return s.node }

// ExchangeContext runs one full protocol packet for the session through the
// airtime scheduler: the calling goroutine blocks until the AP grants the
// session its slot and the packet completes, the context is cancelled
// (ErrCancelled), or the network is closed (ErrClosed). The packet phases
// run under the job's effective context (ctx plus any network job timeout),
// so a deadline is observed between phases too.
func (n *Network) ExchangeContext(ctx context.Context, s *Session, dir waveform.Direction,
	payload []byte, rate float64) (PacketOutcome, error) {
	var out PacketOutcome
	err := n.engine().Run(ctx, s.id, func(jctx context.Context) (JobReport, error) {
		o, err := s.RunPacketContext(jctx, dir, payload, rate)
		if err != nil {
			return JobReport{}, err
		}
		out = o
		return JobReport{
			Exchange:  true,
			BitErrors: o.BitErrors,
			BitsSent:  o.BitsSent,
			AirtimeS:  o.AirtimeS,
		}, nil
	})
	return out, err
}

// LocalizeContext runs the AP-side §5 localization pipeline for the session
// through the airtime scheduler.
func (n *Network) LocalizeContext(ctx context.Context, s *Session) (core.LocalizationOutcome, error) {
	var out core.LocalizationOutcome
	err := n.engine().Run(ctx, s.id, func(context.Context) (JobReport, error) {
		o, err := s.sys.Localize(s.node, s.nextSeed())
		if err != nil {
			return JobReport{}, err
		}
		out = o
		return JobReport{Localization: true}, nil
	})
	return out, err
}

// SenseOrientationContext runs the node-side §5.2b orientation estimation
// through the airtime scheduler.
func (n *Network) SenseOrientationContext(ctx context.Context, s *Session) (node.OrientationResult, error) {
	var out node.OrientationResult
	err := n.engine().Run(ctx, s.id, func(context.Context) (JobReport, error) {
		o, err := s.sys.SenseOrientationAtNode(s.node, s.nextSeed())
		if err != nil {
			return JobReport{}, err
		}
		out = o
		return JobReport{Localization: true}, nil
	})
	return out, err
}

// MoveContext repositions the session's node through the airtime scheduler,
// so a teleport never races a capture in flight. The move lands in the
// scene's dirty log as node dirt (the clutter cache ignores it — node pose
// does not change clutter geometry).
func (n *Network) MoveContext(ctx context.Context, s *Session, pos rfsim.Point, orientationDeg float64) error {
	return n.engine().Run(ctx, s.id, func(context.Context) (JobReport, error) {
		s.node.Position = pos
		s.node.OrientationDeg = orientationDeg
		n.sys.AP.Scene().TouchNode(s.nodeLabel())
		return JobReport{}, nil
	})
}

// nodeLabel is the session's identity in the scene dirty log.
func (s *Session) nodeLabel() string { return fmt.Sprintf("session-%d", s.id) }

// SetTrajectoryContext binds a trajectory to the session's node starting
// at motion time t0 (a nil path unbinds), scheduled on the node's airtime
// queue so the binding never races a capture. The node's pose snaps to
// the trajectory immediately.
func (n *Network) SetTrajectoryContext(ctx context.Context, s *Session, p *motion.Path, t0 float64) error {
	return n.engine().Run(ctx, s.id, func(context.Context) (JobReport, error) {
		return JobReport{}, n.sys.SetTrajectoryAt(s.node, s.nodeLabel(), p, t0)
	})
}

// AdvanceTrajectoryContext moves the session's node dt seconds along its
// bound trajectory and returns the new pose. Motion time belongs to the
// node — it advances only through this scheduled job, never by sampling a
// shared clock — so a node's pose sequence depends only on its own
// operation order and stays deterministic under cluster concurrency.
func (n *Network) AdvanceTrajectoryContext(ctx context.Context, s *Session, dt float64) (motion.Pose, error) {
	var pose motion.Pose
	err := n.engine().Run(ctx, s.id, func(context.Context) (JobReport, error) {
		p, err := n.sys.AdvanceTrajectory(s.node, dt)
		if err != nil {
			return JobReport{}, err
		}
		pose = p
		return JobReport{}, nil
	})
	return pose, err
}

// MeasureVelocityContext runs a Doppler burst of nChirps against the
// session's node through the airtime scheduler, with the synthesized
// ground-truth range rate taken from the node's trajectory sample (zero
// for unbound nodes). Returns the estimated radial velocity in m/s,
// positive receding.
func (n *Network) MeasureVelocityContext(ctx context.Context, s *Session, nChirps int) (float64, error) {
	var v float64
	err := n.engine().Run(ctx, s.id, func(context.Context) (JobReport, error) {
		got, err := s.sys.MeasureTrajectoryVelocity(s.node, nChirps, s.nextSeed())
		if err != nil {
			return JobReport{}, err
		}
		v = got
		return JobReport{Localization: true}, nil
	})
	return v, err
}

// DiscoverContext runs a discovery sweep through the airtime scheduler as a
// network-scope job, drawing its seed from the network's own stream.
func (n *Network) DiscoverContext(ctx context.Context, cfg core.ScanConfig) ([]core.NodeDetection, error) {
	var dets []core.NodeDetection
	err := n.engine().Run(ctx, networkJobKey, func(context.Context) (JobReport, error) {
		n.mu.Lock()
		seed := n.netRNG.Next()
		n.mu.Unlock()
		var err error
		dets, err = n.sys.Discover(cfg, seed)
		return JobReport{Localization: true}, err
	})
	return dets, err
}

// RunSessionJobContext grants fn exclusive use of the simulated channel on
// the session's queue — the hook multi-packet operations (ARQ transfers,
// FEC packets, rate probes) use to stay serialized with everything else.
// fn receives the job's effective context (ctx plus any network job
// timeout) and should check it between packets; fn's report feeds the
// scheduler stats.
func (n *Network) RunSessionJobContext(ctx context.Context, s *Session, fn func(ctx context.Context) (JobReport, error)) error {
	return n.engine().Run(ctx, s.id, fn)
}

// RunNetworkJobContext is RunSessionJobContext on the network-scope queue
// (scene mutations, cell-wide maintenance).
func (n *Network) RunNetworkJobContext(ctx context.Context, fn func(ctx context.Context) (JobReport, error)) error {
	return n.engine().Run(ctx, networkJobKey, fn)
}
