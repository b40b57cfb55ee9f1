package milback

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rfsim"
	"repro/internal/ring"
	"repro/internal/waveform"
)

// NodeID is a cluster-wide node handle. IDs are allocated in join order
// starting at 1 and are never reused; they stay stable across handoffs, so a
// NodeID identifies the same physical node whichever AP currently serves it.
type NodeID uint64

// APPlacement positions one access point of a cluster in the shared
// cluster frame (meters) and sets its ring weight — the share of the
// coverage area the consistent-hash ring assigns to it (weight 2 owns about
// twice the cells of weight 1; values below 1 are treated as 1).
type APPlacement struct {
	// X, Y is the AP's position in the cluster frame. Every AP faces +x,
	// like the default AP at the origin.
	X, Y float64
	// Weight is the AP's relative ring share (0 means 1).
	Weight int
}

// WithAPs deploys n access points in the default layout: AP i at
// (0, i·12 m), weight 1 — adjacent cells side by side along the y axis.
// Mutually exclusive with WithAPLayout.
func WithAPs(n int) Option {
	return func(o *options) { o.aps = n }
}

// WithAPLayout places the cluster's access points explicitly; the ring index
// of each AP is its position in the argument list. Overrides WithAPs (it is
// an error to set both to conflicting counts).
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

// shardCellM is the ring's spatial quantum: node positions are quantized to
// 1 m grid cells and each cell is owned by one AP. Coarse enough that a
// stationary node never flaps between APs from estimation noise (the ring
// hashes the true position, not the estimate), fine enough that ownership
// tracks room-scale movement.
const shardCellM = 1.0

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
// plane, kernels, obs registry) and scheduler, plus the cluster's per-AP
// roaming instruments.
type apCell struct {
	index int
	place APPlacement
	sys   *core.System
	net   *proto.Network

	handoffsIn  *obs.Counter
	handoffsOut *obs.Counter
	rebalances  *obs.Counter
	ringNodes   *obs.Gauge

	// removed is set (under Cluster.mu) once RemoveAP has drained the cell
	// and closed its scheduler. The aps slice itself is immutable after
	// construction, so ops may index it without the cluster lock.
	removed bool
}

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
// scene, one seed root and one node namespace. A consistent-hash ring over
// 1 m grid cells assigns every position to a serving AP; joining a node
// homes it at the owner of its cell, and moving it across a cell-ownership
// boundary triggers a handoff — the old AP drains the node's queue at a
// grant boundary, the new AP re-admits it under a fresh seed generation and
// re-discovers it with a localization fix. Co-channel APs within the
// interference radius never transmit simultaneously: their airtime grants
// serialize through a cluster-wide admission check.
//
// Determinism: each AP derives its seed root from the cluster seed and its
// ring index, and each node's session stream derives from (AP seed, NodeID,
// handoff generation) — never from scheduling order. The same cluster seed
// and the same operation sequence therefore produce bit-identical results
// regardless of goroutine interleaving.
//
// All methods are safe for concurrent use.
type Cluster struct {
	seed   int64
	cellM  float64
	radius float64
	aps    []*apCell
	adm    *admission
	debug  *obs.DebugServer

	mu     sync.Mutex
	ring   *ring.Ring
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
			layout = append(layout, APPlacement{Y: float64(i) * defaultAPSpacingM, Weight: 1})
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
		cellM:  shardCellM,
		radius: radius,
		ring:   ring.New(0),
		nodes:  make(map[NodeID]*clusterNode),
	}
	for i, pl := range layout {
		c.ring.SetMember(i, pl.Weight)
	}
	c.adm = newAdmission(layout, radius)
	for i, pl := range layout {
		sys, err := core.NewSystem(o.cfg, sceneForAP(o.scene, pl, i))
		if err != nil {
			return nil, fmt.Errorf("%w: AP %d: %w", ErrInvalidConfig, i, err)
		}
		cell := &apCell{index: i, place: pl, sys: sys}
		netOpts := proto.NetworkOptions{BaseSeed: c.apSeed(i), JobTimeout: o.jobTimeout}
		if c.adm != nil {
			ap := i
			netOpts.Admit = func() (release func()) { return c.adm.admit(ap) }
		}
		cell.net = proto.NewNetwork(sys, netOpts)
		reg := sys.Obs()
		cell.handoffsIn = reg.Counter(obs.MetricHandoffsIn)
		cell.handoffsOut = reg.Counter(obs.MetricHandoffsOut)
		cell.rebalances = reg.Counter(obs.MetricRebalances)
		cell.ringNodes = reg.Gauge(obs.MetricRingNodes)
		c.aps = append(c.aps, cell)
	}
	// One timeline per deployment: every cell's airtime folds into AP 0's
	// clock, so a node's simulation time survives handoffs unchanged.
	for _, cell := range c.aps[1:] {
		cell.sys.SetClock(c.aps[0].sys.Clock())
	}
	if o.debugAddr != "" {
		reg := c.aps[0].sys.Obs()
		if reg == nil {
			return nil, fmt.Errorf("%w: debug server requires observability (DisableObservability is set)", ErrInvalidConfig)
		}
		debug, err := obs.StartDebugServer(o.debugAddr, reg)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
		c.debug = debug
	}
	return c, nil
}

// apSeed derives AP i's network seed root. AP 0 keeps the cluster seed
// itself — a 1-AP cluster therefore draws exactly the streams of a bare
// proto.Network with the same seed — and the others split off dedicated
// streams at negative indices, which real session ids (positive) never
// collide with.
func (c *Cluster) apSeed(i int) int64 {
	if i == 0 {
		return c.seed
	}
	return proto.DeriveSessionSeed(c.seed, -i)
}

// sessionSeed roots a node's per-session stream at a given AP and handoff
// generation. Generation 0 matches proto.Network.Join's derivation exactly;
// each handoff re-derives, so a node's post-handoff noise depends only on
// where it landed and how many times it moved homes — not on when.
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
// Operations in flight or queued fail with ErrClosed, as does any later
// call. Idempotent.
func (c *Cluster) Close() {
	for _, cell := range c.aps {
		cell.net.Close()
	}
	_ = c.debug.Close()
}

// DebugAddr returns the bound address of the debug server started by
// WithDebugServer (serving AP 0's registry), or "" when none is running.
func (c *Cluster) DebugAddr() string {
	return c.debug.Addr()
}

// APCount returns the number of APs still in the ring.
func (c *Cluster) APCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cell := range c.aps {
		if !cell.removed {
			n++
		}
	}
	return n
}

// InterferenceRadiusM returns the co-channel coordination distance in
// effect (see WithInterferenceRadius).
func (c *Cluster) InterferenceRadiusM() float64 { return c.radius }

// ownerLocked maps a cluster-frame position to its serving AP via the
// consistent-hash ring; callers hold c.mu.
func (c *Cluster) ownerLocked(x, y float64) int {
	owner, ok := c.ring.Owner(ring.CellKey(x, y, c.cellM))
	if !ok {
		// Unreachable: RemoveAP refuses to drop the last member.
		panic("milback: cluster ring has no members")
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
// it at the AP that owns its grid cell. It returns ErrInvalidCoordinate for
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
	sess, err := cell.net.JoinSeeded(cell.local(x, y), orientationDeg, int(cn.id), sessionSeed(c.apSeed(cn.ap), cn.id, 0))
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
	cell.ringNodes.Add(1)
	return cn.id, nil
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
	out, err := cell.net.LocalizeContext(ctx, cn.sess)
	if err != nil {
		return Position{}, fmt.Errorf("milback: %w", err)
	}
	return cell.position(out), nil
}

// Orientation runs the node-side §5.2b estimation through the node's
// serving AP and returns the node's own orientation estimate in degrees.
func (c *Cluster) Orientation(ctx context.Context, id NodeID) (float64, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, err
	}
	defer cn.mu.Unlock()
	res, err := c.aps[cn.ap].net.SenseOrientationContext(ctx, cn.sess)
	if err != nil {
		return 0, fmt.Errorf("milback: %w", err)
	}
	return res.EstimateDeg, nil
}

// Send transmits data from the node to its serving AP (uplink backscatter)
// as one full protocol packet at the given bit rate. The Exchange's
// Position is in the cluster frame. It can return ErrUnknownNode,
// ErrNoDetection, ErrOutOfBand, ErrCancelled and ErrClosed.
func (c *Cluster) Send(ctx context.Context, id NodeID, data []byte, bitRate float64) (Exchange, error) {
	return c.exchange(ctx, id, waveform.Uplink, data, bitRate)
}

// Deliver transmits data from the node's serving AP to the node (downlink)
// as one full protocol packet at the given bit rate.
func (c *Cluster) Deliver(ctx context.Context, id NodeID, data []byte, bitRate float64) (Exchange, error) {
	return c.exchange(ctx, id, waveform.Downlink, data, bitRate)
}

func (c *Cluster) exchange(ctx context.Context, id NodeID, dir waveform.Direction, data []byte, bitRate float64) (Exchange, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return Exchange{}, err
	}
	defer cn.mu.Unlock()
	cell := c.aps[cn.ap]
	out, err := cell.net.ExchangeContext(ctx, cn.sess, dir, data, bitRate)
	if err != nil {
		return Exchange{}, fmt.Errorf("milback: %w", err)
	}
	return cell.exchange(out), nil
}

// Move repositions the node (teleport; the next packet re-localizes it).
// If the new position's grid cell is owned by a different AP, the move is a
// roaming handoff: the old AP drains the node's queue at a grant boundary
// and detaches it, the new AP admits it under the next seed generation, and
// a localization fix re-discovers it there (a node invisible to its new AP
// still completes the handoff). Cancellation before the drain completes
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
	// grant's pose sync would snap the node right back onto it.
	if err := c.clearTrajectoryLocked(ctx, cn); err != nil {
		return err
	}
	c.mu.Lock()
	target := c.ownerLocked(x, y)
	c.mu.Unlock()
	if target == cn.ap {
		if err := c.aps[cn.ap].net.MoveContext(ctx, cn.sess, c.aps[cn.ap].local(x, y), orientationDeg); err != nil {
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
	// Drain: the detach runs as a job on the node's own queue at the old
	// AP, so an in-flight grant for this node completes first and the
	// OnGrant job lease reclaims any capture buffers at that boundary. A
	// lease is never torn mid-capture.
	err := oldCell.net.RunSessionJobContext(ctx, cn.sess, func(context.Context) (proto.JobReport, error) {
		oldCell.net.Detach(cn.sess)
		return proto.JobReport{}, nil
	})
	if err != nil && !errors.Is(err, ErrClosed) {
		// Cancelled before the drain: the node is untouched at its old AP.
		return fmt.Errorf("milback: handoff drain: %w", err)
	}
	gen := cn.gen + 1
	sess, err := newCell.net.JoinSeeded(newCell.local(x, y), orientationDeg, int(cn.id),
		sessionSeed(c.apSeed(target), cn.id, gen))
	if err != nil {
		return fmt.Errorf("milback: handoff join: %w", err)
	}
	cn.sess = sess
	cn.gen = gen
	cn.ap = target
	cn.x, cn.y, cn.orientDeg = x, y, orientationDeg
	oldCell.handoffsOut.Inc()
	oldCell.ringNodes.Add(-1)
	newCell.handoffsIn.Inc()
	newCell.ringNodes.Add(1)
	if rebalance {
		newCell.rebalances.Inc()
	}
	// Re-discover: one localization fix re-acquires the node at its new
	// serving AP (and advances the new session's seed stream by exactly one
	// operation, keeping the handoff sequence deterministic). A node the
	// new AP cannot see yet is still handed off — the fix is best-effort.
	if _, err := newCell.net.LocalizeContext(ctx, sess); err != nil && !errors.Is(err, ErrNoDetection) {
		return fmt.Errorf("milback: handoff re-discover: %w", err)
	}
	return nil
}

// RemoveAP drains AP apIndex out of the cluster: the ring drops the member
// (only cells it owned change hands), every node it serves is handed off to
// that cell's new owner (counted as a rebalance at the receiving AP), and
// the AP's scheduler shuts down. Removing the last AP or an already-removed
// index returns ErrInvalidConfig. Nodes that cannot be drained (ctx
// cancelled) abort the removal with the ring already updated — re-invoke to
// finish draining.
func (c *Cluster) RemoveAP(ctx context.Context, apIndex int) error {
	c.mu.Lock()
	if apIndex < 0 || apIndex >= len(c.aps) || c.aps[apIndex].removed {
		c.mu.Unlock()
		return fmt.Errorf("%w: no live AP %d", ErrInvalidConfig, apIndex)
	}
	live := 0
	for _, cell := range c.aps {
		if !cell.removed {
			live++
		}
	}
	if live <= 1 {
		c.mu.Unlock()
		return fmt.Errorf("%w: cannot remove the last AP", ErrInvalidConfig)
	}
	c.ring.Remove(apIndex)
	victims := make([]*clusterNode, 0, len(c.order))
	for _, id := range c.order {
		victims = append(victims, c.nodes[id])
	}
	c.mu.Unlock()

	for _, cn := range victims {
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
	cell.net.Close()
	c.mu.Lock()
	cell.removed = true
	c.mu.Unlock()
	return nil
}

// ClusterDetection is one node found by a cluster-wide discovery sweep.
type ClusterDetection struct {
	// AP is the ring index of the AP that made the detection. RangeM and
	// AzimuthDeg inside Detection are relative to that AP; X, Y are in the
	// cluster frame.
	AP int
	Detection
}

// Discover sweeps every live AP's beam in ring order and returns all
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
		dets, err := cell.net.DiscoverContext(ctx, core.DefaultScanConfig())
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
// is scheduled on each AP's airtime queue so it cannot race an exchange in
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
		return cell.net.RunNetworkJobContext(ctx, func(context.Context) (proto.JobReport, error) {
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
		return cell.net.RunNetworkJobContext(ctx, func(context.Context) (proto.JobReport, error) {
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

// eachLiveCell runs fn over the live APs in ring order, stopping at the
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
		s := cell.net.Stats()
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
