package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/ap"
	"repro/internal/capture"
	"repro/internal/fsa"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rfsim"
)

// Config assembles a System.
type Config struct {
	AP   ap.Config
	Node node.Config
	// LocalizationChirps is the number of Field-2 chirps (paper: 5).
	LocalizationChirps int
	// OrientationMaskHalfWidthHz is the beat-frequency half-width of the
	// mask that isolates the node's beat component for AP-side orientation
	// sensing. It is a width in Hz, so it keeps its meaning at any
	// AP.FFTSize.
	OrientationMaskHalfWidthHz float64
	// MirrorReflection enables the FSA ground-plane specular artifact that
	// degrades AP-side orientation around −6°…−2° (Fig 13b). See
	// DESIGN.md §4.4.
	MirrorReflection bool
	// MirrorCenterDeg / MirrorWidthDeg locate the specular collision window.
	MirrorCenterDeg, MirrorWidthDeg float64
	// MirrorGainDBi is the mirror path's equivalent reflection gain at the
	// specular centre.
	MirrorGainDBi float64
	// MirrorModulationDepth is the fraction of the mirror amplitude that
	// varies with the node's switching (the part background subtraction
	// cannot remove).
	MirrorModulationDepth float64
	// MirrorOffsetM displaces the mirror image radially behind the node
	// (the ground-plane image plane), so its beat tone interferes with the
	// node's and ripples the orientation profile.
	MirrorOffsetM float64
	// NodeClockSkewStd is the fractional error of the node MCU's cheap
	// clock per capture. The node converts its measured peak separation Δt
	// to a frequency assuming the nominal chirp slope; clock skew (and the
	// AP's own sweep nonlinearity) distort that mapping — the dominant
	// node-side orientation error on real hardware (Fig 13a).
	NodeClockSkewStd float64
	// DisableObservability turns off the stage-timing histograms, capture
	// counters and span tracer. Instrumentation never touches the noise
	// streams, so results are bit-identical either way; the switch exists for
	// the differential tests that prove exactly that, and for callers that
	// want zero clock reads on the hot path.
	DisableObservability bool
}

// DefaultConfig returns the §8 prototype configuration.
func DefaultConfig() Config {
	return Config{
		AP:                         ap.DefaultConfig(),
		Node:                       node.DefaultConfig(),
		LocalizationChirps:         5,
		OrientationMaskHalfWidthHz: 488281.25, // the node beat spread DetectTargets guards
		MirrorReflection:           true,
		MirrorCenterDeg:            -4,
		MirrorWidthDeg:             2,
		MirrorGainDBi:              20,
		MirrorModulationDepth:      0.35,
		MirrorOffsetM:              0.12,
		NodeClockSkewStd:           0.04,
	}
}

// System is one MilBack deployment: an AP in a scene plus registered nodes.
type System struct {
	AP      *ap.AP
	cfg     Config
	capture *capture.Plane
	reg     *obs.Registry
	tracer  *obs.Tracer

	// nodesMu guards nodes: AddNode runs on the caller's goroutine, while
	// RemoveNode and discovery sweeps run as airtime-scheduler jobs.
	nodesMu sync.Mutex
	nodes   []*node.Node

	// clock is the deployment's simulation time; movers binds nodes to
	// trajectories (see motion.go). Both are mutated only on the airtime
	// scheduler, like the nodes themselves.
	clock  *Clock
	movers map[*node.Node]*mover

	// beams is the grid table every capture request carries: the fsa beam
	// table, which depends only on the FSA's band and scan range, so one
	// fill per capture serves every node (all are built from
	// cfg.Node.FSA). Every node target's gain fill reads it.
	beams ap.GridTable
}

// NewSystem builds a system operating in the given scene (nil = no clutter).
func NewSystem(cfg Config, scene *rfsim.Scene) (*System, error) {
	if cfg.LocalizationChirps < 2 {
		return nil, fmt.Errorf("core: need >= 2 localization chirps for background subtraction, got %d",
			cfg.LocalizationChirps)
	}
	if !(cfg.OrientationMaskHalfWidthHz > 0) || math.IsInf(cfg.OrientationMaskHalfWidthHz, 0) {
		return nil, fmt.Errorf("core: orientation mask half-width must be finite and > 0 Hz, got %g",
			cfg.OrientationMaskHalfWidthHz)
	}
	if cfg.MirrorWidthDeg <= 0 {
		return nil, fmt.Errorf("core: mirror width must be positive, got %g", cfg.MirrorWidthDeg)
	}
	if cfg.MirrorModulationDepth < 0 || cfg.MirrorModulationDepth > 1 {
		return nil, fmt.Errorf("core: mirror modulation depth %g outside [0,1]", cfg.MirrorModulationDepth)
	}
	if cfg.NodeClockSkewStd < 0 || cfg.NodeClockSkewStd > 0.2 {
		return nil, fmt.Errorf("core: node clock skew std %g outside [0, 0.2]", cfg.NodeClockSkewStd)
	}
	f, err := fsa.New(cfg.Node.FSA)
	if err != nil {
		return nil, fmt.Errorf("core: node FSA: %w", err)
	}
	a, err := ap.New(cfg.AP, scene)
	if err != nil {
		return nil, err
	}
	s := &System{AP: a, cfg: cfg, clock: NewClock(),
		beams: ap.GridTable{Width: fsa.BeamTableWidth, Fill: f.BeamTable}}
	var opts []capture.Option
	if !cfg.DisableObservability {
		s.reg = obs.NewRegistry()
		s.tracer = obs.NewTracer(obs.DefaultTraceCapacity)
		opts = append(opts, capture.WithObserver(s.reg, s.tracer))
		a.SetObserver(s.reg, s.tracer)
	}
	s.capture = capture.NewPlane(a, opts...)
	return s, nil
}

// MustNewSystem is NewSystem for known-good configs.
func MustNewSystem(cfg Config, scene *rfsim.Scene) *System {
	s, err := NewSystem(cfg, scene)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Capture returns the system's capture plane — the single entry point every
// over-the-air pipeline (localization, orientation, velocity, comm) flows
// through. The scheduler engine brackets each airtime grant with its
// BeginJob/End so leaked capture buffers are reclaimed per job.
func (s *System) Capture() *capture.Plane { return s.capture }

// Obs returns the system's metric registry, or nil when observability is
// disabled. The scheduler engine shares this registry so queue-wait and
// job-outcome metrics land next to the capture and pipeline metrics.
func (s *System) Obs() *obs.Registry { return s.reg }

// Tracer returns the system's span tracer (a bounded ring of recent
// pipeline-stage, lease and job spans), or nil when observability is
// disabled.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// AddNode places a new node at the given position (meters, AP at origin)
// and orientation (degrees) and registers it with the system.
func (s *System) AddNode(pos rfsim.Point, orientationDeg float64) (*node.Node, error) {
	n, err := node.New(s.cfg.Node, pos, orientationDeg)
	if err != nil {
		return nil, err
	}
	s.nodesMu.Lock()
	s.nodes = append(s.nodes, n)
	s.nodesMu.Unlock()
	return n, nil
}

// Nodes returns a snapshot of the registered nodes.
func (s *System) Nodes() []*node.Node {
	s.nodesMu.Lock()
	defer s.nodesMu.Unlock()
	return slices.Clone(s.nodes)
}

// RemoveNode unregisters a node (pointer identity), reporting whether it
// was present. The node object stays valid — captures already holding it
// finish normally — but it no longer appears in Nodes or discovery sweeps.
// AddNode and RemoveNode may run concurrently with each other and with a
// sweep, but RemoveNode also unbinds the node's trajectory, so callers
// serialize it against captures (the cluster runs it as an airtime job).
func (s *System) RemoveNode(n *node.Node) bool {
	s.nodesMu.Lock()
	defer s.nodesMu.Unlock()
	for i, have := range s.nodes {
		if have == n {
			s.nodes = append(s.nodes[:i], s.nodes[i+1:]...)
			delete(s.movers, n)
			return true
		}
	}
	return false
}

// localizationTarget builds the dechirp-domain view of a node that toggles
// BOTH ports together, alternating per chirp — the §5.1 switching pattern.
func localizationTarget(n *node.Node) *ap.BackscatterTarget {
	return newNodeTarget(n, false)
}

// orientationTarget builds the §5.2a view: port A held absorptive, port B
// toggling per chirp.
func orientationTarget(n *node.Node) *ap.BackscatterTarget {
	return newNodeTarget(n, true)
}

// nodeTarget is a node as one capture's target under a toggle-parity
// switching pattern: state 0 (even chirps) holds both ports absorptive,
// state 1 (odd chirps) makes port B reflective and — unless holdA — port A
// too. Its gain fill goes through the FSA's pure bulk forms, so
// SynthesizeChirps may call it from any goroutine without racing on the
// node's actual switch state.
type nodeTarget struct {
	ap.BackscatterTarget
	n     *node.Node
	holdA bool
}

// newNodeTarget builds the target view of n: one allocation, since the
// state function captures nothing and the Gain interface holds the target
// itself.
func newNodeTarget(n *node.Node, holdA bool) *ap.BackscatterTarget {
	t := &nodeTarget{n: n, holdA: holdA}
	t.Pos = n.Position
	// The gain depends on k only through the toggle parity, so the
	// synthesis kernels fill the two gain curves once each (DESIGN.md §12).
	t.GainStates = 2
	t.GainStateOf = func(k int) int { return k & 1 }
	t.Gain = t
	return &t.BackscatterTarget
}

// FillEnvs implements ap.GainEnvelopes over the capture's fsa.BeamTable
// (the System's beams, which every core capture carries): the two ports'
// mode-independent envelopes, combined per state with the absorptive
// scalar exactly as ReflectionAmplitudeWithModes combines them, so each
// sample is bit-identical to it.
func (t *nodeTarget) FillEnvs(freq, table []float64, _ int, env []float64) {
	ns := len(freq)
	pa, pb := env[:ns], env[ns:2*ns]
	t.n.FSA.ReflectionEnvelopes(table, t.n.OrientationDeg, pa, pb)
	abs := t.n.FSA.AbsorptiveFactor()
	for i := range pa {
		a, b := pa[i], pb[i]
		pa[i] = a*abs + b*abs
		if t.holdA {
			pb[i] = a*abs + b
		} else {
			pb[i] = a + b
		}
	}
}

// mirrorPaths returns the ground-plane specular path for the node, if the
// artifact is enabled and the node's orientation falls inside the specular
// window. Its amplitude varies with the node's switching (modulation depth),
// so background subtraction removes it only partially (§9.3).
func (s *System) mirrorPaths(n *node.Node) []ap.ModulatedPath {
	if !s.cfg.MirrorReflection {
		return nil
	}
	off := (n.OrientationDeg - s.cfg.MirrorCenterDeg) / s.cfg.MirrorWidthDeg
	strength := math.Exp(-off * off)
	if strength < 1e-3 {
		return nil
	}
	d := n.Distance()
	fc := n.FSA.CenterFrequency()
	gm := s.cfg.MirrorGainDBi + 10*math.Log10(strength)
	base := rfsim.BackscatterAmplitude(s.AP.Config().TxGainDBi, s.AP.Config().RxGainDBi, gm, d, fc)
	depth := s.cfg.MirrorModulationDepth
	// The image sits slightly behind the node (behind the FSA ground
	// plane); the displaced beat tone interferes with the node's tone and
	// ripples the orientation profile — the collision §9.3 describes.
	az := n.AzimuthRad()
	imagePos := rfsim.PolarPoint(d+s.cfg.MirrorOffsetM, az)
	return []ap.ModulatedPath{{
		Pos: imagePos,
		Amplitude: func(k int) float64 {
			if k%2 == 1 {
				return base
			}
			return base * (1 - depth)
		},
	}}
}

// EffectiveTxPowerW returns the AP transmit power as seen at the node's
// bearing after any obstruction loss (one-way). Downlink reception and the
// node-side orientation sensing both see the AP's signal through whatever
// blockers sit on the line of sight.
func (s *System) EffectiveTxPowerW(n *node.Node) float64 {
	loss := s.AP.Scene().ObstructionLossDB(rfsim.Point{}, n.Position)
	return s.cfg.AP.TxPowerW * math.Pow(10, -loss/10)
}

// LocalizationOutcome is the result of one §5 preamble-Field-2 run.
type LocalizationOutcome struct {
	// RangeM and AzimuthRad locate the node relative to the AP.
	RangeM     float64
	AzimuthRad float64
	// OrientationDeg is the AP-side estimate of the node's orientation.
	OrientationDeg float64
	// PeakSNRdB is the node-reflection detection SNR.
	PeakSNRdB float64
}

// Localize runs the full §5 AP-side pipeline for one node: steer at the
// node, transmit the Field-2 sawtooth chirps while the node toggles, range
// + angle from background-subtracted FFTs, then re-run with the §5.2a
// switching pattern to estimate orientation from the reflected-power
// profile. Deterministic for a given seed.
func (s *System) Localize(n *node.Node, seed int64) (LocalizationOutcome, error) {
	c := s.cfg.AP.LocalizationChirp
	lease := s.capture.Acquire(n.AzimuthRad(), seed)
	defer lease.Close()
	// The mirror artifact depends only on node geometry, not on the phase:
	// build it once and share it across both capture requests.
	mirror := s.mirrorPaths(n)
	// Trajectory-bound nodes carry their sampled analytic range rate into
	// the synthesized frames, so Doppler is consistent with the true
	// motion; static nodes contribute exactly zero, leaving the historical
	// output bit-identical.
	radialV := s.RadialVelocityOf(n)

	// Phase 1: ranging + angle (§5.1, both ports toggling).
	tgt1 := localizationTarget(n)
	tgt1.RadialVelocityMS = radialV
	cap1, err := lease.Chirps(capture.Request{
		Chirp:   c,
		NChirps: s.cfg.LocalizationChirps,
		Targets: []*ap.BackscatterTarget{tgt1},
		Table:   s.beams,
		Extra:   mirror,
	})
	if err != nil {
		return LocalizationOutcome{}, fmt.Errorf("core: localization: %w", err)
	}
	loc, err := s.AP.ProcessLocalization(c, cap1.Frames)
	if err != nil {
		return LocalizationOutcome{}, fmt.Errorf("core: localization: %w", err)
	}
	cap1.Release()

	// Phase 2: orientation (§5.2a, port B toggling only), continuing the
	// lease's noise stream.
	tgt2 := orientationTarget(n)
	tgt2.RadialVelocityMS = radialV
	cap2, err := lease.Chirps(capture.Request{
		Chirp:   c,
		NChirps: s.cfg.LocalizationChirps,
		Targets: []*ap.BackscatterTarget{tgt2},
		Table:   s.beams,
		Extra:   mirror,
	})
	if err != nil {
		return LocalizationOutcome{}, fmt.Errorf("core: orientation: %w", err)
	}
	prof, err := s.AP.EstimateOrientationProfile(c, cap2.Frames, loc.PeakIndex(), s.cfg.OrientationMaskHalfWidthHz)
	if err != nil {
		return LocalizationOutcome{}, fmt.Errorf("core: orientation: %w", err)
	}
	orientation := n.FSA.BeamAngleDeg(fsa.PortB, prof.PeakFreqHz)

	return LocalizationOutcome{
		RangeM:         loc.RangeM,
		AzimuthRad:     loc.AzimuthRad,
		OrientationDeg: orientation,
		PeakSNRdB:      loc.PeakSNRdB,
	}, nil
}

// MeasureRadialVelocity runs a Doppler burst against the node while it
// moves radially at radialVelocityMS (ground truth, since simulated nodes
// hold a static position between calls): nChirps localization chirps are
// captured with the node toggling, the node's beat bin is found, and the
// chirp-to-chirp carrier-phase progression yields the range-rate estimate.
// This is the ISAC extension of the §5 pipeline — the same capture that
// localizes the node also measures how fast it approaches or recedes.
func (s *System) MeasureRadialVelocity(n *node.Node, radialVelocityMS float64,
	nChirps int, seed int64) (float64, error) {
	if nChirps < 3 {
		return 0, fmt.Errorf("core: velocity needs >= 3 chirps, got %d", nChirps)
	}
	c := s.cfg.AP.LocalizationChirp
	lease := s.capture.Acquire(n.AzimuthRad(), seed)
	defer lease.Close()
	tgt := localizationTarget(n)
	tgt.RadialVelocityMS = radialVelocityMS
	capt, err := lease.Chirps(capture.Request{
		Chirp:   c,
		NChirps: nChirps,
		Targets: []*ap.BackscatterTarget{tgt},
		Table:   s.beams,
		Extra:   s.mirrorPaths(n),
	})
	if err != nil {
		return 0, fmt.Errorf("core: velocity capture: %w", err)
	}
	// Ranging and Doppler read the same frames; the lease releases them.
	loc, err := s.AP.ProcessLocalization(c, capt.Frames)
	if err != nil {
		return 0, fmt.Errorf("core: velocity localization: %w", err)
	}
	return s.AP.EstimateRadialVelocity(c, capt.Frames, loc.PeakBin)
}

// SenseOrientationAtNode runs the §5.2b node-side pipeline: the AP sends one
// Field-1 triangular chirp; the node samples its detectors and estimates its
// own orientation. The transmitted chirp carries the AP's per-capture sweep
// nonlinearity and the node's clock skew distorts its time axis; the node
// inverts the *nominal* chirp, so both flow into the estimate exactly as on
// the bench.
func (s *System) SenseOrientationAtNode(n *node.Node, seed int64) (node.OrientationResult, error) {
	lease := s.capture.Acquire(n.AzimuthRad(), seed)
	defer lease.Close()
	ns := lease.Noise
	nominal := s.cfg.AP.OrientationChirp
	actual := nominal
	eta := ns.Gaussian(s.cfg.AP.SweepNonlinearityStd)
	skew := ns.Gaussian(s.cfg.NodeClockSkewStd)
	// Combined fractional slope error as seen in the node's sample clock.
	actual.FreqHigh = nominal.FreqLow + (nominal.FreqHigh-nominal.FreqLow)*(1+eta)*(1+skew)
	va, vb := n.SampleField1Chirp(actual, s.EffectiveTxPowerW(n), s.cfg.AP.TxGainDBi, ns)
	return n.EstimateOrientation(nominal, va, vb)
}
