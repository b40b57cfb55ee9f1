package milback

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// NodeID is a cluster-wide node handle. IDs are allocated in join order
// starting at 1 and are never reused; they stay stable across handoffs, so a
// NodeID identifies the same physical node whichever AP currently serves it.
type NodeID uint64

// APPlacement positions one access point of a cluster in the shared
// cluster frame (meters).
type APPlacement struct {
	// X, Y is the AP's position in the cluster frame. Every AP faces +x,
	// like the default AP at the origin.
	X, Y float64
}

// WithAPs deploys n access points in the default layout: AP i at
// (0, i·12 m), side by side along the y axis. Mutually exclusive with
// WithAPLayout.
func WithAPs(n int) Option {
	return func(o *options) { o.aps = n }
}

// WithAPLayout places the cluster's access points explicitly; the layout
// index of each AP is its position in the argument list. Overrides WithAPs
// (it is an error to set both to conflicting counts).
func WithAPLayout(aps ...APPlacement) Option {
	return func(o *options) { o.layout = append([]APPlacement(nil), aps...) }
}

// WithInterferenceRadius sets the co-channel coordination distance in
// meters: two APs closer than this may not be on the air simultaneously
// (their grants serialize through the cluster admission check). Zero means
// the APs are isolated (never coordinate); negative is rejected. The
// default derives from the rfsim link budget — the distance at which one
// AP's mainbeam leakage falls below a neighbour's noise floor — which for
// the paper's 27 dBm / 20 dBi horns is effectively "every room-scale
// deployment coordinates". Pass an explicit radius to model sectorized or
// shielded deployments.
func WithInterferenceRadius(m float64) Option {
	return func(o *options) { o.interfRadius, o.interfRadiusSet = m, true }
}

// defaultAPSpacingM is the WithAPs layout pitch: past the paper's ~10 m
// evaluation range, so default cells abut without overlapping coverage.
const defaultAPSpacingM = 12.0

// defaultInterferenceRadius computes the distance at which one AP's
// transmit leakage, received through a neighbour's mainbeam, drops 6 dB
// below that receiver's thermal noise floor: Ptx·Gt·Gr·(λ/4πd)² = Pn/4.
// Inside this radius concurrent grants would raise the victim AP's noise
// floor, so the cluster serializes them.
func defaultInterferenceRadius(cfg core.Config) float64 {
	apCfg := cfg.AP
	fc := (apCfg.LocalizationChirp.FreqLow + apCfg.LocalizationChirp.FreqHigh) / 2
	if fc <= 0 || apCfg.BeatSampleRateHz <= 0 {
		return math.Inf(1)
	}
	noiseW := rfsim.DBmToWatts(rfsim.ThermalNoiseDBm(apCfg.BeatSampleRateHz) + apCfg.NoiseFigureDB)
	gains := math.Pow(10, (apCfg.TxGainDBi+apCfg.RxGainDBi)/10)
	lambda := rfsim.Wavelength(fc)
	return lambda / (4 * math.Pi) * math.Sqrt(4*apCfg.TxPowerW*gains/noiseW)
}

// apCell is one AP's full vertical slice: its own system (scene, capture
// plane, kernels, obs registry) and airtime scheduler, plus the cluster's
// per-AP roaming instruments.
type apCell struct {
	index int
	place APPlacement
	sys   *core.System
	eng   *proto.Engine
	// discovery is the cell's sweep seed stream. It is drawn only inside
	// sweep jobs, which hold the engine's slot, so it needs no lock.
	discovery proto.SeedStream

	handoffsIn  *obs.Counter
	handoffsOut *obs.Counter
	rebalances  *obs.Counter
	nodes       *obs.Gauge

	// leaving is set (under Cluster.mu) when RemoveAP starts draining the
	// cell: from then on no node is homed here, though nodes not yet
	// drained are still served. removed is set once the drain has finished
	// and the scheduler is closed. The aps slice itself is immutable after
	// construction, so ops may index it without the cluster lock.
	leaving, removed bool
}

// cellJobKey is the engine job key (the trace span's Arg) of work not tied
// to one node (discovery sweeps, scene edits); a node's jobs run under its
// NodeID, and NodeIDs start at 1.
const cellJobKey = 0

// local translates a cluster-frame point into the cell's AP-local frame
// (the AP sits at the origin of its own system).
func (c *apCell) local(x, y float64) rfsim.Point {
	return rfsim.Point{X: x - c.place.X, Y: y - c.place.Y}
}

// clusterNode is the cluster's bookkeeping for one node. mu serializes all
// operations on the node and is held across an entire handoff, so an op
// never observes a node between APs.
type clusterNode struct {
	id NodeID

	mu        sync.Mutex
	ap        int // serving AP (index into Cluster.aps)
	gen       int // handoff generation (0 = original join)
	sess      *proto.Session
	x, y      float64
	orientDeg float64
	// path is the node's bound trajectory in the cluster frame (nil when
	// static) and motionT its motion time along it. The serving AP holds
	// the same path translated into its local frame; both advance only
	// through AdvanceTrajectory, under mu.
	path    *motion.Path
	motionT float64
}

// Cluster is a multi-AP MilBack deployment: N access points share one
// scene, one seed root and one node namespace. A node is homed at the live
// AP nearest its true position (a tie goes to the lower layout index), and
// moving it nearer another AP triggers a handoff — the old AP detaches the
// node at a grant boundary, the new AP re-admits it under a fresh
// seed generation and re-discovers it with a localization fix. Co-channel
// APs within the interference radius never transmit simultaneously: their
// airtime grants serialize through a cluster-wide admission check.
//
// Determinism: each AP derives its seed root from the cluster seed and its
// layout index, and each node's session stream derives from (AP seed,
// NodeID, handoff generation) — never from scheduling order. The same
// cluster seed and the same operation sequence therefore produce
// bit-identical results regardless of goroutine interleaving.
//
// All methods are safe for concurrent use.
type Cluster struct {
	seed   int64
	radius float64
	aps    []*apCell
	adm    *admission
	debug  *obs.DebugServer

	mu     sync.Mutex
	nodes  map[NodeID]*clusterNode
	order  []NodeID
	nextID NodeID
}

// NewCluster creates a MilBack deployment with the paper's prototype
// configuration in the default indoor scene, seed 1. With no layout
// options it is the paper's single-AP testbed, the AP at the origin facing
// +x. It returns ErrInvalidConfig for a nil scene, an unusable system
// configuration, a conflicting WithAPs/WithAPLayout combination,
// non-finite AP coordinates or a negative interference radius.
func NewCluster(opts ...Option) (*Cluster, error) {
	o := options{cfg: core.DefaultConfig(), scene: rfsim.DefaultIndoorScene(), seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.scene == nil {
		return nil, fmt.Errorf("%w: nil scene", ErrInvalidConfig)
	}
	layout := o.layout
	if layout == nil {
		n := o.aps
		if n == 0 {
			n = 1
		}
		if n < 1 {
			return nil, fmt.Errorf("%w: WithAPs(%d)", ErrInvalidConfig, o.aps)
		}
		for i := 0; i < n; i++ {
			layout = append(layout, APPlacement{Y: float64(i) * defaultAPSpacingM})
		}
	} else if o.aps != 0 && o.aps != len(layout) {
		return nil, fmt.Errorf("%w: WithAPs(%d) conflicts with a %d-AP layout",
			ErrInvalidConfig, o.aps, len(layout))
	}
	if len(layout) == 0 {
		return nil, fmt.Errorf("%w: empty AP layout", ErrInvalidConfig)
	}
	for i, pl := range layout {
		if !finite(pl.X, pl.Y) {
			return nil, fmt.Errorf("%w: AP %d at non-finite (%g, %g)", ErrInvalidConfig, i, pl.X, pl.Y)
		}
	}
	radius := o.interfRadius
	if !o.interfRadiusSet {
		radius = defaultInterferenceRadius(o.cfg)
	}
	if radius < 0 || math.IsNaN(radius) {
		return nil, fmt.Errorf("%w: interference radius %g", ErrInvalidConfig, radius)
	}

	c := &Cluster{
		seed:   o.seed,
		radius: radius,
		nodes:  make(map[NodeID]*clusterNode),
	}
	c.adm = newAdmission(layout, radius)
	for i, pl := range layout {
		sys, err := core.NewSystem(o.cfg, sceneForAP(o.scene, pl, i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("%w: AP %d: %w", ErrInvalidConfig, i, err)
		}
		if i > 0 {
			// One timeline per deployment: every cell's airtime folds into
			// AP 0's clock, so a node's simulation time survives handoffs
			// unchanged.
			sys.SetClock(c.aps[0].sys.Clock())
		}
		c.aps = append(c.aps, c.newCell(i, pl, sys, o.jobTimeout))
	}
	if o.debugAddr != "" {
		reg := c.aps[0].sys.Obs()
		if reg == nil {
			c.Close()
			return nil, fmt.Errorf("%w: debug server requires observability (DisableObservability is set)", ErrInvalidConfig)
		}
		debug, err := obs.StartDebugServer(o.debugAddr, reg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
		c.debug = debug
	}
	return c, nil
}

// newCell builds AP i's cell around its system and its airtime scheduler.
// Each grant brackets the job with a capture-plane job lease, so capture
// buffers a job leaks are reclaimed when its grant ends; each job's airtime
// advances the shared clock, and with co-channel neighbours every grant
// passes the cluster admission check.
func (c *Cluster) newCell(i int, pl APPlacement, sys *core.System, jobTimeout time.Duration) *apCell {
	cfg := proto.EngineConfig{
		JobTimeout: jobTimeout,
		Obs:        sys.Obs(),
		Tracer:     sys.Tracer(),
		OnGrant:    func() func() { return sys.Capture().BeginJob().End },
		OnAirtime:  func(seconds float64) { sys.Clock().Advance(seconds) },
	}
	if c.adm != nil {
		cfg.Admit = func() (release func()) { return c.adm.admit(i) }
	}
	reg := sys.Obs()
	return &apCell{
		index:       i,
		place:       pl,
		sys:         sys,
		eng:         proto.NewEngine(cfg),
		discovery:   proto.NewSeedStream(proto.DeriveSessionSeed(c.apSeed(i), cellJobKey)),
		handoffsIn:  reg.Counter(obs.MetricHandoffsIn),
		handoffsOut: reg.Counter(obs.MetricHandoffsOut),
		rebalances:  reg.Counter(obs.MetricRebalances),
		nodes:       reg.Gauge(obs.MetricNodes),
	}
}

// apSeed derives AP i's seed root. AP 0 keeps the cluster seed itself, so
// a 1-AP cluster draws exactly the streams the single-AP testbed drew at
// the same seed, and the others split off dedicated streams at negative
// indices, which NodeIDs (positive) and the discovery stream (0) never
// collide with.
func (c *Cluster) apSeed(i int) int64 {
	if i == 0 {
		return c.seed
	}
	return proto.DeriveSessionSeed(c.seed, -i)
}

// sessionSeed roots a node's per-session stream at a given AP and handoff
// generation. Generation 0 is DeriveSessionSeed(apSeed, NodeID), the
// join-order derivation of the single-AP testbed; each handoff re-derives,
// so a node's post-handoff noise depends only on where it landed and how
// many times it moved homes — not on when.
func sessionSeed(apSeed int64, id NodeID, gen int) int64 {
	s := proto.DeriveSessionSeed(apSeed, int(id))
	if gen > 0 {
		s = proto.DeriveSessionSeed(s, gen)
	}
	return s
}

// sceneForAP returns the scene as seen from AP i's local frame (the rfsim
// scene is always AP-centric). AP 0 at the cluster origin shares the
// caller's scene pointer — single-AP clusters keep mutate-through-scene
// semantics — while every other AP gets a deep copy with all geometry
// translated into its frame.
func sceneForAP(s *rfsim.Scene, pl APPlacement, index int) *rfsim.Scene {
	if index == 0 && pl.X == 0 && pl.Y == 0 {
		return s
	}
	t := &rfsim.Scene{
		Reflectors:   make([]rfsim.Reflector, len(s.Reflectors)),
		Obstructions: make([]rfsim.Obstruction, len(s.Obstructions)),
	}
	for i, r := range s.Reflectors {
		r.Position.X -= pl.X
		r.Position.Y -= pl.Y
		t.Reflectors[i] = r
	}
	for i, ob := range s.Obstructions {
		ob.A.X -= pl.X
		ob.A.Y -= pl.Y
		ob.B.X -= pl.X
		ob.B.Y -= pl.Y
		t.Obstructions[i] = ob
	}
	return t
}

// Close shuts down every AP's airtime scheduler and the debug server.
// Operations on the air complete first; operations waiting for airtime
// fail with ErrClosed, as does any later call. Idempotent.
func (c *Cluster) Close() {
	for _, cell := range c.aps {
		cell.eng.Close()
	}
	_ = c.debug.Close()
}

// DebugAddr returns the bound address of the debug server started by
// WithDebugServer (serving AP 0's registry), or "" when none is running.
func (c *Cluster) DebugAddr() string {
	return c.debug.Addr()
}

// APCount returns the number of APs that new and moving nodes can be
// homed at: every AP that RemoveAP has not started to drain.
func (c *Cluster) APCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.homingCountLocked()
}

// homingCountLocked counts the APs not leaving; callers hold c.mu.
func (c *Cluster) homingCountLocked() int {
	n := 0
	for _, cell := range c.aps {
		if !cell.leaving {
			n++
		}
	}
	return n
}

// InterferenceRadiusM returns the co-channel coordination distance in
// effect (see WithInterferenceRadius).
func (c *Cluster) InterferenceRadiusM() float64 { return c.radius }

// ownerLocked maps a cluster-frame position to its serving AP: the AP
// nearest (x, y) among those not leaving, a tie going to the lower layout
// index. RemoveAP never lets the last AP leave, so there is always one,
// and the first one stands even when every squared distance overflows to
// +Inf (a finite coordinate past about 1e154). Callers hold c.mu.
func (c *Cluster) ownerLocked(x, y float64) int {
	owner, best := -1, math.Inf(1)
	for _, cell := range c.aps {
		if cell.leaving {
			continue
		}
		dx, dy := x-cell.place.X, y-cell.place.Y
		if d := dx*dx + dy*dy; owner < 0 || d < best {
			owner, best = cell.index, d
		}
	}
	return owner
}

// lockNode resolves a NodeID (or reports ErrUnknownNode) and locks the
// node; the caller unlocks cn.mu.
func (c *Cluster) lockNode(id NodeID) (*clusterNode, error) {
	c.mu.Lock()
	cn, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownNode, id)
	}
	cn.mu.Lock()
	return cn, nil
}

// Join adds a node at cluster-frame position (x, y) with the given
// orientation (degrees, 0 = FSA boresight facing +x like its AP) and homes
// it at the nearest live AP. It returns ErrInvalidCoordinate for
// non-finite arguments and ErrClosed after Close.
func (c *Cluster) Join(ctx context.Context, x, y, orientationDeg float64) (NodeID, error) {
	if !finite(x, y, orientationDeg) {
		return 0, fmt.Errorf("%w: join at (%g, %g) facing %g", ErrInvalidCoordinate, x, y, orientationDeg)
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("milback: %w: %w", ErrCancelled, err)
	}
	c.mu.Lock()
	c.nextID++
	cn := &clusterNode{
		id: c.nextID,
		ap: c.ownerLocked(x, y),
		x:  x, y: y,
		orientDeg: orientationDeg,
	}
	// Publish under the cluster lock with the node lock already held:
	// RemoveAP sees every in-flight join, and nobody operates on the node
	// until its session exists.
	cn.mu.Lock()
	defer cn.mu.Unlock()
	c.nodes[cn.id] = cn
	c.order = append(c.order, cn.id)
	c.mu.Unlock()

	cell := c.aps[cn.ap]
	sess, err := cell.join(x, y, orientationDeg, sessionSeed(c.apSeed(cn.ap), cn.id, 0))
	if err != nil {
		c.mu.Lock()
		delete(c.nodes, cn.id)
		for i, id := range c.order {
			if id == cn.id {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return 0, fmt.Errorf("milback: %w", err)
	}
	cn.sess = sess
	cell.nodes.Add(1)
	return cn.id, nil
}

// join adds a node at cluster-frame (x, y) to the cell's system and opens
// its session with the given seed-stream root.
func (c *apCell) join(x, y, orientationDeg float64, seed int64) (*proto.Session, error) {
	nd, err := c.sys.AddNode(c.local(x, y), orientationDeg)
	if err != nil {
		return nil, err
	}
	return proto.NewSession(c.sys, nd, seed)
}

// snapshot returns the live nodes in join (NodeID) order.
func (c *Cluster) snapshot() []*clusterNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]*clusterNode, len(c.order))
	for i, id := range c.order {
		nodes[i] = c.nodes[id]
	}
	return nodes
}

// Nodes returns the live node handles in join order.
func (c *Cluster) Nodes() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]NodeID(nil), c.order...)
}

// OwnerAP reports which AP currently serves the node.
func (c *Cluster) OwnerAP(id NodeID) (int, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, err
	}
	defer cn.mu.Unlock()
	return cn.ap, nil
}

// TruePosition returns the node's ground-truth cluster-frame placement (for
// evaluating estimates in simulations).
func (c *Cluster) TruePosition(id NodeID) (x, y, orientationDeg float64, err error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cn.mu.Unlock()
	return cn.x, cn.y, cn.orientDeg, nil
}

// position translates an AP-local localization outcome into the cluster
// frame: X, Y gain the serving AP's offset while RangeM and AzimuthDeg stay
// relative to that AP (the measurement is the AP's).
func (c *apCell) position(out core.LocalizationOutcome) Position {
	p := positionFromOutcome(out)
	p.X += c.place.X
	p.Y += c.place.Y
	return p
}

// Localize runs the §5 localization pipeline at the node's serving AP and
// returns the fix with X, Y in the cluster frame (RangeM and AzimuthDeg
// stay relative to the serving AP — see OwnerAP). It can return
// ErrUnknownNode, ErrNoDetection, ErrCancelled and ErrClosed.
func (c *Cluster) Localize(ctx context.Context, id NodeID) (Position, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return Position{}, err
	}
	defer cn.mu.Unlock()
	cell := c.aps[cn.ap]
	out, err := cell.localize(ctx, cn)
	if err != nil {
		return Position{}, fmt.Errorf("milback: %w", err)
	}
	return cell.position(out), nil
}

// localize runs one §5 localization fix of cn as a job on this AP's
// engine.
func (c *apCell) localize(ctx context.Context, cn *clusterNode) (core.LocalizationOutcome, error) {
	var out core.LocalizationOutcome
	err := c.eng.Run(ctx, int(cn.id), func(context.Context) (proto.JobReport, error) {
		var err error
		out, err = cn.sess.Localize()
		return proto.JobReport{Localization: true}, err
	})
	return out, err
}

// Orientation runs the node-side §5.2b estimation through the node's
// serving AP and returns the node's own orientation estimate in degrees.
func (c *Cluster) Orientation(ctx context.Context, id NodeID) (float64, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, err
	}
	defer cn.mu.Unlock()
	var deg float64
	err = c.aps[cn.ap].eng.Run(ctx, int(cn.id), func(context.Context) (proto.JobReport, error) {
		res, err := cn.sess.SenseOrientation()
		deg = res.EstimateDeg
		return proto.JobReport{Localization: true}, err
	})
	if err != nil {
		return 0, fmt.Errorf("milback: %w", err)
	}
	return deg, nil
}

// Send transmits data from the node to its serving AP (uplink backscatter)
// at the given bit rate: one full protocol packet, or with WithARQ up to
// that many CRC-checked packets, FEC-coded with WithFEC. The whole
// transfer, retransmissions included, occupies one scheduler slot at the
// node's serving AP. The Exchange's Position is in the cluster frame; on
// failure it still reports Attempts and Corrections. It can return
// ErrInvalidConfig (a bit rate that is not finite and positive, or
// WithARQ below one attempt), ErrUnknownNode, ErrNoDetection,
// ErrOutOfBand, ErrCancelled and ErrClosed.
func (c *Cluster) Send(ctx context.Context, id NodeID, data []byte, bitRate float64, opts ...ExchangeOption) (Exchange, error) {
	return c.exchange(ctx, id, waveform.Uplink, data, bitRate, opts...)
}

// Deliver transmits data from the node's serving AP to the node (downlink)
// with the same options, scheduling and errors as Send.
func (c *Cluster) Deliver(ctx context.Context, id NodeID, data []byte, bitRate float64, opts ...ExchangeOption) (Exchange, error) {
	return c.exchange(ctx, id, waveform.Downlink, data, bitRate, opts...)
}

func (c *Cluster) exchange(ctx context.Context, id NodeID, dir waveform.Direction, data []byte, bitRate float64, opts ...ExchangeOption) (Exchange, error) {
	if err := checkRate(bitRate); err != nil {
		return Exchange{}, err
	}
	coding, err := exchangeCoding(opts)
	if err != nil {
		return Exchange{}, err
	}
	cn, err := c.lockNode(id)
	if err != nil {
		return Exchange{}, err
	}
	defer cn.mu.Unlock()
	cell := c.aps[cn.ap]
	var out proto.TransferOutcome
	err = cell.eng.Run(ctx, int(cn.id), func(jctx context.Context) (proto.JobReport, error) {
		var err error
		out, err = cn.sess.Transfer(jctx, dir, data, bitRate, coding)
		return proto.JobReport{
			Exchange:  true,
			BitErrors: out.BitErrors,
			BitsSent:  out.BitsSent,
			AirtimeS:  out.AirtimeS,
		}, err
	})
	if err != nil {
		return Exchange{Attempts: out.Attempts, Corrections: out.Corrections}, fmt.Errorf("milback: %w", err)
	}
	return cell.exchange(out), nil
}

// Move repositions the node (teleport; the next packet re-localizes it).
// If the new position is nearer a different AP, the move is a roaming
// handoff: the old AP detaches the node at a grant boundary, the new AP
// admits it under the next seed generation, and a localization fix
// re-discovers it there (a node invisible to its new AP still completes the
// handoff). Cancellation before the drain completes
// leaves the node untouched at its old AP. It returns ErrUnknownNode,
// ErrInvalidCoordinate, ErrCancelled and ErrClosed.
func (c *Cluster) Move(ctx context.Context, id NodeID, x, y, orientationDeg float64) error {
	if !finite(x, y, orientationDeg) {
		return fmt.Errorf("%w: move to (%g, %g) facing %g", ErrInvalidCoordinate, x, y, orientationDeg)
	}
	cn, err := c.lockNode(id)
	if err != nil {
		return err
	}
	defer cn.mu.Unlock()
	// A teleport overrides motion: unbind any trajectory first, or the next
	// advance would snap the node right back onto it.
	if err := c.clearTrajectoryLocked(ctx, cn); err != nil {
		return err
	}
	c.mu.Lock()
	target := c.ownerLocked(x, y)
	c.mu.Unlock()
	if target == cn.ap {
		cell := c.aps[cn.ap]
		err := cell.eng.Run(ctx, int(cn.id), func(context.Context) (proto.JobReport, error) {
			nd := cn.sess.Node()
			nd.Position, nd.OrientationDeg = cell.local(x, y), orientationDeg
			return proto.JobReport{}, nil
		})
		if err != nil {
			return fmt.Errorf("milback: %w", err)
		}
		cn.x, cn.y, cn.orientDeg = x, y, orientationDeg
		return nil
	}
	return c.handoffLocked(ctx, cn, target, x, y, orientationDeg, false)
}

// handoffLocked re-homes cn (whose mu the caller holds) at AP target,
// placing it at (x, y, orient) there. rebalance marks handoffs forced by
// RemoveAP rather than node movement.
func (c *Cluster) handoffLocked(ctx context.Context, cn *clusterNode, target int, x, y, orientationDeg float64, rebalance bool) error {
	oldCell, newCell := c.aps[cn.ap], c.aps[target]
	// Drain: the detach runs as a job on the old AP's engine, so an
	// in-flight grant completes first and the OnGrant job lease reclaims
	// any capture buffers at that boundary. A lease is never torn
	// mid-capture.
	err := oldCell.eng.Run(ctx, int(cn.id), func(context.Context) (proto.JobReport, error) {
		oldCell.sys.RemoveNode(cn.sess.Node())
		return proto.JobReport{}, nil
	})
	if err != nil && !errors.Is(err, ErrClosed) {
		// Cancelled before the drain: the node is untouched at its old AP.
		return fmt.Errorf("milback: handoff drain: %w", err)
	}
	gen := cn.gen + 1
	sess, err := newCell.join(x, y, orientationDeg, sessionSeed(c.apSeed(target), cn.id, gen))
	if err != nil {
		return fmt.Errorf("milback: handoff join: %w", err)
	}
	cn.sess = sess
	cn.gen = gen
	cn.ap = target
	cn.x, cn.y, cn.orientDeg = x, y, orientationDeg
	oldCell.handoffsOut.Inc()
	oldCell.nodes.Add(-1)
	newCell.handoffsIn.Inc()
	newCell.nodes.Add(1)
	if rebalance {
		newCell.rebalances.Inc()
	}
	// Re-discover: one localization fix re-acquires the node at its new
	// serving AP (and advances the new session's seed stream by exactly one
	// operation, keeping the handoff sequence deterministic). A node the
	// new AP cannot see yet is still handed off — the fix is best-effort.
	if _, err := newCell.localize(ctx, cn); err != nil && !errors.Is(err, ErrNoDetection) {
		return fmt.Errorf("milback: handoff re-discover: %w", err)
	}
	return nil
}

// RemoveAP drains AP apIndex out of the cluster: the AP stops taking nodes,
// every node it serves is handed off to the nearest remaining AP (counted as
// a rebalance at the receiving AP), and the AP's scheduler shuts down. No
// other node changes AP: its nearest AP is still there. Removing the last AP
// or an already-removed index returns ErrInvalidConfig. Nodes that cannot
// be drained (ctx cancelled) abort the removal with the AP already out of
// homing and out of APCount — re-invoke to finish draining.
func (c *Cluster) RemoveAP(ctx context.Context, apIndex int) error {
	c.mu.Lock()
	if apIndex < 0 || apIndex >= len(c.aps) || c.aps[apIndex].removed {
		c.mu.Unlock()
		return fmt.Errorf("%w: no live AP %d", ErrInvalidConfig, apIndex)
	}
	// A re-invocation finishes a drain that already passed this check.
	if !c.aps[apIndex].leaving && c.homingCountLocked() <= 1 {
		c.mu.Unlock()
		return fmt.Errorf("%w: cannot remove the last AP", ErrInvalidConfig)
	}
	c.aps[apIndex].leaving = true
	c.mu.Unlock()

	for _, cn := range c.snapshot() {
		cn.mu.Lock()
		if cn.ap == apIndex {
			c.mu.Lock()
			target := c.ownerLocked(cn.x, cn.y)
			c.mu.Unlock()
			if err := c.handoffLocked(ctx, cn, target, cn.x, cn.y, cn.orientDeg, true); err != nil {
				cn.mu.Unlock()
				return err
			}
		}
		cn.mu.Unlock()
	}

	cell := c.aps[apIndex]
	cell.eng.Close()
	c.mu.Lock()
	cell.removed = true
	c.mu.Unlock()
	return nil
}

// ClusterDetection is one node found by a cluster-wide discovery sweep.
type ClusterDetection struct {
	// AP is the layout index of the AP that made the detection. RangeM and
	// AzimuthDeg inside Detection are relative to that AP; X, Y are in the
	// cluster frame.
	AP int
	Detection
}

// Discover sweeps every live AP's beam in layout order and returns all
// detections with positions in the cluster frame. A node in two APs'
// coverage can appear twice (once per AP — that is what the interference
// radius is about). It returns ErrNoDetection when no AP saw anything.
func (c *Cluster) Discover(ctx context.Context) ([]ClusterDetection, error) {
	var out []ClusterDetection
	for _, cell := range c.aps {
		c.mu.Lock()
		removed := cell.removed
		c.mu.Unlock()
		if removed {
			continue
		}
		var dets []core.NodeDetection
		err := cell.eng.Run(ctx, cellJobKey, func(jctx context.Context) (proto.JobReport, error) {
			var err error
			dets, err = cell.sys.Discover(jctx, core.DefaultScanConfig(), cell.discovery.Next())
			if cerr := jctx.Err(); cerr != nil && errors.Is(err, cerr) {
				err = fmt.Errorf("%w: %w", ErrCancelled, err)
			}
			return proto.JobReport{Localization: true}, err
		})
		if err != nil {
			if errors.Is(err, ErrNoDetection) {
				continue
			}
			return nil, fmt.Errorf("milback: AP %d discover: %w", cell.index, err)
		}
		for _, d := range dets {
			out = append(out, ClusterDetection{
				AP: cell.index,
				Detection: Detection{
					RangeM:     d.RangeM,
					AzimuthDeg: rfsim.RadToDeg(d.AzimuthRad),
					X:          d.RangeM*math.Cos(d.AzimuthRad) + cell.place.X,
					Y:          d.RangeM*math.Sin(d.AzimuthRad) + cell.place.Y,
					SNRdB:      d.SNRdB,
				},
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("milback: cluster sweep: %w", ErrNoDetection)
	}
	return out, nil
}

// AddBlocker inserts a blocking segment (a person, a cabinet; cluster-frame
// coordinates) into every live AP's scene; lossDB is the one-way
// penetration loss (human torso ≈ 30 dB at 28 GHz). The edit
// runs as a job on each AP's engine so it cannot race an exchange in
// flight. On error (cancellation mid-rollout) APs already past their edit
// keep it — re-invoke or RemoveBlocker to converge.
func (c *Cluster) AddBlocker(ctx context.Context, name string, x1, y1, x2, y2, lossDB float64) error {
	if lossDB <= 0 {
		return fmt.Errorf("milback: blocker loss must be positive, got %g", lossDB)
	}
	if !finite(x1, y1, x2, y2) {
		return fmt.Errorf("%w: blocker (%g, %g)-(%g, %g)", ErrInvalidCoordinate, x1, y1, x2, y2)
	}
	return c.eachLiveCell(func(cell *apCell) error {
		return cell.eng.Run(ctx, cellJobKey, func(context.Context) (proto.JobReport, error) {
			cell.sys.AP.Scene().AddObstruction(rfsim.Obstruction{
				Name:   name,
				A:      cell.local(x1, y1),
				B:      cell.local(x2, y2),
				LossDB: lossDB,
			})
			return proto.JobReport{}, nil
		})
	})
}

// RemoveBlocker removes a named blocker from every live AP's scene,
// reporting whether any AP had it. A non-nil error means the rollout did
// not complete and the bool is meaningless.
func (c *Cluster) RemoveBlocker(ctx context.Context, name string) (bool, error) {
	existed := false
	err := c.eachLiveCell(func(cell *apCell) error {
		return cell.eng.Run(ctx, cellJobKey, func(context.Context) (proto.JobReport, error) {
			if cell.sys.AP.Scene().RemoveObstruction(name) {
				existed = true
			}
			return proto.JobReport{}, nil
		})
	})
	if err != nil {
		return false, err
	}
	return existed, nil
}

// eachLiveCell runs fn over the live APs in layout order, stopping at the
// first error (wrapped for the facade).
func (c *Cluster) eachLiveCell(fn func(*apCell) error) error {
	for _, cell := range c.aps {
		c.mu.Lock()
		removed := cell.removed
		c.mu.Unlock()
		if removed {
			continue
		}
		if err := fn(cell); err != nil {
			return fmt.Errorf("milback: AP %d: %w", cell.index, err)
		}
	}
	return nil
}

// Stats sums the scheduler accounting of every AP (including APs already
// removed — their history still happened).
func (c *Cluster) Stats() Stats {
	var total Stats
	for _, cell := range c.aps {
		s := cell.eng.Stats()
		total.Exchanges += s.Exchanges
		total.Localizations += s.Localizations
		total.BitErrors += s.BitErrors
		total.BitsSent += s.BitsSent
		total.AirtimeS += s.AirtimeS
		total.Completed += s.Completed
		total.Failed += s.Failed
		total.Cancelled += s.Cancelled
	}
	return total
}

// admission is the cluster-wide co-channel coordinator: an AP whose
// interference disc overlaps another's may not be on the air while that
// other is. Engines call admit before every grant and hold the slot for
// the grant's duration; conflicting admits park on the condition variable.
// Admission affects only timing — seed streams never depend on it — so it
// cannot perturb determinism, only serialize airtime.
type admission struct {
	mu       sync.Mutex
	cond     *sync.Cond
	active   []int // per-AP count of grants on the air (0 or 1 per engine)
	conflict [][]bool
}

// newAdmission builds the coordinator from pairwise AP distances; it
// returns nil when no pair conflicts (admission checks would be pure
// overhead).
func newAdmission(layout []APPlacement, radius float64) *admission {
	n := len(layout)
	if n < 2 {
		return nil
	}
	conflict := make([][]bool, n)
	for i := range conflict {
		conflict[i] = make([]bool, n)
	}
	any := false
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := layout[i].X-layout[j].X, layout[i].Y-layout[j].Y
			if math.Hypot(dx, dy) <= radius {
				conflict[i][j], conflict[j][i] = true, true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	a := &admission{active: make([]int, n), conflict: conflict}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// admit blocks until no conflicting AP is on the air, claims AP i's slot,
// and returns the release that frees it.
func (a *admission) admit(i int) (release func()) {
	a.mu.Lock()
	for a.blockedLocked(i) {
		a.cond.Wait()
	}
	a.active[i]++
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		a.active[i]--
		a.mu.Unlock()
		a.cond.Broadcast()
	}
}

func (a *admission) blockedLocked(i int) bool {
	for j, n := range a.active {
		if n > 0 && a.conflict[i][j] {
			return true
		}
	}
	return false
}
