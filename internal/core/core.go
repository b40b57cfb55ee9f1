package core

import (
	"fmt"
	"math"

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
	// OrientationMaskBins is the FFT mask half-width used when isolating the
	// node's beat component for AP-side orientation sensing.
	OrientationMaskBins int
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
		AP:                    ap.DefaultConfig(),
		Node:                  node.DefaultConfig(),
		LocalizationChirps:    5,
		OrientationMaskBins:   40,
		MirrorReflection:      true,
		MirrorCenterDeg:       -4,
		MirrorWidthDeg:        2,
		MirrorGainDBi:         20,
		MirrorModulationDepth: 0.35,
		MirrorOffsetM:         0.12,
		NodeClockSkewStd:      0.04,
	}
}

// System is one MilBack deployment: an AP in a scene plus registered nodes.
type System struct {
	AP      *ap.AP
	cfg     Config
	nodes   []*node.Node
	capture *capture.Plane
	reg     *obs.Registry
	tracer  *obs.Tracer

	// clock is the deployment's simulation time; movers binds nodes to
	// trajectories (see motion.go). Both are mutated only on the airtime
	// scheduler, like the nodes themselves.
	clock  *Clock
	movers map[*node.Node]*mover
}

// NewSystem builds a system operating in the given scene (nil = no clutter).
func NewSystem(cfg Config, scene *rfsim.Scene) (*System, error) {
	if cfg.LocalizationChirps < 2 {
		return nil, fmt.Errorf("core: need >= 2 localization chirps for background subtraction, got %d",
			cfg.LocalizationChirps)
	}
	if cfg.OrientationMaskBins < 1 {
		return nil, fmt.Errorf("core: orientation mask bins must be >= 1, got %d", cfg.OrientationMaskBins)
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
	a, err := ap.New(cfg.AP, scene)
	if err != nil {
		return nil, err
	}
	s := &System{AP: a, cfg: cfg, clock: NewClock()}
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
	s.nodes = append(s.nodes, n)
	return n, nil
}

// Nodes returns the registered nodes.
func (s *System) Nodes() []*node.Node { return s.nodes }

// RemoveNode unregisters a node (pointer identity), reporting whether it
// was present. The node object stays valid — captures already holding it
// finish normally — but it no longer appears in Nodes or discovery sweeps.
// Callers must serialize RemoveNode against captures the same way AddNode
// is serialized (the cluster schedules it on the airtime queue).
func (s *System) RemoveNode(n *node.Node) bool {
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
// The closure evaluates hypothetical switch states through the FSA's pure
// with-modes query, so SynthesizeChirpsMulti may call it from any chirp's
// goroutine without racing on the node's actual switch state.
func localizationTarget(n *node.Node) *ap.BackscatterTarget {
	return &ap.BackscatterTarget{
		Pos: n.Position,
		GainDBi: func(k int, fHz float64) float64 {
			mode := fsa.Absorptive
			if k%2 == 1 {
				mode = fsa.Reflective
			}
			return 20 * math.Log10(n.FSA.ReflectionAmplitudeWithModes(mode, mode, fHz, n.OrientationDeg)) / 2
		},
		// Bulk linear fill for the two toggle states. GainDBi above is
		// 10·log10(ReflectionAmplitudeWithModes), so the linear envelope is
		// the FSA amplitude itself: per-port mode-independent envelopes
		// (computed once, using the two state rows as scratch) combined with
		// the absorptive scalar per state — bit-identical to evaluating
		// ReflectionAmplitudeWithModes per sample at half the array-factor
		// sweeps.
		GainEnvs: func(freq []float64, nStates int, env []float64) {
			ns := len(freq)
			pa, pb := env[:ns], env[ns:2*ns]
			n.FSA.PortReflectionEnvelope(fsa.PortA, freq, n.OrientationDeg, pa)
			n.FSA.PortReflectionEnvelope(fsa.PortB, freq, n.OrientationDeg, pb)
			abs := n.FSA.AbsorptiveFactor()
			for i := 0; i < ns; i++ {
				a, b := pa[i], pb[i]
				// State 0: both ports absorptive; state 1: both reflective.
				pa[i] = a*abs + b*abs
				pb[i] = a + b
			}
		},
		// The gain depends on k only through the toggle parity, so the fast
		// synthesis kernels memoize the two gain curves (DESIGN.md §12).
		GainStates:  2,
		GainStateOf: func(k int) int { return k & 1 },
	}
}

// orientationTarget builds the §5.2a view: port A held absorptive, port B
// toggling per chirp. Like localizationTarget it is concurrency-safe.
func orientationTarget(n *node.Node) *ap.BackscatterTarget {
	return &ap.BackscatterTarget{
		Pos: n.Position,
		GainDBi: func(k int, fHz float64) float64 {
			modeB := fsa.Absorptive
			if k%2 == 1 {
				modeB = fsa.Reflective
			}
			return 20 * math.Log10(n.FSA.ReflectionAmplitudeWithModes(fsa.Absorptive, modeB, fHz, n.OrientationDeg)) / 2
		},
		// Bulk linear fill, as in localizationTarget; here port A stays
		// absorptive and only port B's scalar differs between states.
		GainEnvs: func(freq []float64, nStates int, env []float64) {
			ns := len(freq)
			pa, pb := env[:ns], env[ns:2*ns]
			n.FSA.PortReflectionEnvelope(fsa.PortA, freq, n.OrientationDeg, pa)
			n.FSA.PortReflectionEnvelope(fsa.PortB, freq, n.OrientationDeg, pb)
			abs := n.FSA.AbsorptiveFactor()
			for i := 0; i < ns; i++ {
				a, b := pa[i], pb[i]
				// State 0: (A abs, B abs); state 1: (A abs, B reflective).
				pa[i] = a*abs + b*abs
				pb[i] = a*abs + b
			}
		},
		// Toggle-parity switching again: two distinct gain curves per burst.
		GainStates:  2,
		GainStateOf: func(k int) int { return k & 1 },
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
		Extra:   mirror,
	})
	if err != nil {
		return LocalizationOutcome{}, fmt.Errorf("core: orientation: %w", err)
	}
	prof, err := s.AP.EstimateOrientationProfile(c, cap2.Frames, int(math.Round(loc.PeakBin)), s.cfg.OrientationMaskBins)
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
	return s.AP.EstimateRadialVelocity(c, capt.Frames, loc.PeakIndex())
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
