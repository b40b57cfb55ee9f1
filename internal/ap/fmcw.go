package ap

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"time"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// ErrNoDetection reports a capture with no usable backscatter reflection:
// no beat peak, a peak buried in the clutter floor, or a discovery sweep
// that found nothing. Errors from the detection pipelines wrap it, so
// callers can errors.Is their way through the chain (the milback facade
// re-exports it as milback.ErrNoDetection).
var ErrNoDetection = errors.New("no backscatter detection")

// ErrInvalidConfig reports a capture request the hardware could not run:
// an invalid chirp program, a non-positive chirp count, or a capture whose
// frames differ in length. Synthesis and subtraction errors wrap it so
// callers (core, the milback facade) can errors.Is their way through the
// chain instead of recovering panics.
var ErrInvalidConfig = errors.New("invalid configuration")

// BackscatterTarget describes the node as the FMCW processor sees it: a
// point reflector at a position whose effective reflection gain depends on
// the chirp's switch state (§5.1: the node toggles its ports between
// chirps) and the instantaneous chirp frequency (FSA beam sweep).
//
// Every field is required but RadialVelocityMS. Synthesis renders each
// state's gain envelope once per capture (DESIGN.md §12) and calls
// GainStateOf and Gain from any goroutine, so both must be safe for
// concurrent use and pure: synthesis calls GainStateOf more than once per
// chirp (to validate, to group chirps and to render).
type BackscatterTarget struct {
	Pos rfsim.Point
	// RadialVelocityMS is the target's range rate in m/s (positive =
	// receding). Across a chirp burst it advances the round-trip delay by
	// 2·v·k·CRI/c per chirp, whose carrier-phase progression is the Doppler
	// observable EstimateRadialVelocity reads.
	RadialVelocityMS float64
	// GainStates is the number of distinct switch states (the FSA node
	// toggling its ports gives two), at least 1. Chirps in the same state
	// see the identical gain-vs-frequency curve.
	GainStates int
	// GainStateOf maps a chirp index to its switch state in
	// [0, GainStates).
	GainStateOf func(chirpIdx int) int
	// Gain fills the state envelopes once per capture.
	Gain GainEnvelopes
}

// GridTable is a request-wide precompute over a capture's frequency grid:
// the part of every target's gain envelope that depends only on the chirp
// frequency, not on the target. A capture whose request carries one (Fill
// non-nil) fills it once, in pooled scratch, before the per-target envelope
// fills fan out, and hands the same read-only table to every target's
// Gain. The frequency grid differs per capture (each draws its own
// sweep-slope error), so the table never outlives the capture. The AP does
// not interpret the table; its layout is a contract between the GridTable
// and the targets' Gain, which the caller builds together. The zero value
// carries no table.
//
// It is a struct of a function rather than an interface so that a request
// passing through the capture plane leaks nothing to the heap: an interface
// method call would make escape analysis move the request's target slice to
// the heap, one allocation per capture.
type GridTable struct {
	// Width is the number of float64s the table holds per grid sample.
	Width int
	// Fill writes the table for the grid freq into dst, which has
	// Width·len(freq) elements. It must be safe for concurrent use.
	Fill func(freq, dst []float64)
}

// GainEnvelopes is a target's gain-envelope fill. FillEnvs receives the
// capture's frequency grid (the instantaneous chirp frequency at each of
// its n samples) and the request's filled GridTable (Width values per
// sample; nil when the request carries none), and fills
// env[s·n : (s+1)·n] with state s's linear gain — the factor 10^(g/10) of
// the equivalent node gain g dBi that rfsim.BackscatterAmplitude takes,
// 0 for no reflection — for every s < nStates, including states no chirp
// of the burst uses. env is exactly the target's rows (cap == len) and may
// be used as scratch; the table is shared by every target of the capture
// and must not be written.
type GainEnvelopes interface {
	FillEnvs(freq, table []float64, nStates int, env []float64)
}

// constantGains is a frequency-flat GainEnvelopes: state s reflects with
// the equivalent node gain constantGains[s] dBi at every frequency.
type constantGains []float64

// FillEnvs implements GainEnvelopes: each state's row holds its constant
// linear gain.
func (g constantGains) FillEnvs(freq, _ []float64, nStates int, env []float64) {
	n := len(freq)
	for s := 0; s < nStates; s++ {
		// math.Pow(10, -Inf) = 0: a "no reflection" state drops out.
		v := math.Pow(10, g[s]/10)
		row := env[s*n : (s+1)*n]
		for i := range row {
			row[i] = v
		}
	}
}

// ConstantGainTarget returns a frequency-flat target at pos that cycles
// through one switch state per gain: chirp k sits in state
// k mod len(gainsDBi), which reflects with the equivalent node gain
// gainsDBi[state] dBi (−Inf for no reflection). ConstantGainTarget(pos,
// 5, 25) toggles like a §5.1 node; ConstantGainTarget(pos, 25) is a static
// reflector that background subtraction removes.
func ConstantGainTarget(pos rfsim.Point, gainsDBi ...float64) *BackscatterTarget {
	n := len(gainsDBi)
	return &BackscatterTarget{
		Pos:         pos,
		GainStates:  n,
		GainStateOf: func(k int) int { return k % n },
		Gain:        constantGains(gainsDBi),
	}
}

// ModulatedPath injects an extra, possibly chirp-varying path — used to
// model the FSA ground-plane mirror reflection whose imperfect subtraction
// degrades AP-side orientation sensing around −6°…−2° (§9.3, Fig 13b).
type ModulatedPath struct {
	Pos rfsim.Point
	// Amplitude returns the linear voltage gain of the path for chirp k
	// (relative to the transmitted waveform, antenna gains included by the
	// caller or folded in here). Like BackscatterTarget.GainStateOf it is
	// called concurrently across chirp indices and must be safe for that,
	// and it must be pure: synthesis calls it more than once per chirp (to find
	// chirps with identical frames, then to render them).
	Amplitude func(chirpIdx int) float64
}

// ChirpFrame is the dechirped receive data of one chirp: one complex
// baseband beat signal per receive antenna.
type ChirpFrame struct {
	Rx [2][]complex128
}

// SynthesizeChirps produces nChirps dechirped frames, with the horns
// pointed at steerRad (radians), for the configured scene plus any number
// of simultaneous backscatter targets (several nodes respond in the same
// discovery epoch) and extra paths. Each propagation
// path with round-trip delay τ appears as the beat tone
// A·exp(j(2π·S·τ·t − 2π·f0·τ)), with the inter-antenna phase offset of its
// arrival angle. This is the standard dechirp-domain FMCW model
// (DESIGN.md §4.3). table is the request's shared GridTable (the zero
// value for none), handed to every target's Gain.
// An invalid chirp, chirp count, table or target returns an error wrapping
// ErrInvalidConfig. When a buffer pool is installed (SetBufferPool) the
// frame buffers are pooled: the caller owns them until it hands them back
// (the capture plane's Capture.Release does this).
func (a *AP) SynthesizeChirps(steerRad float64, c waveform.Chirp, nChirps int, tgts []*BackscatterTarget,
	table GridTable, extra []ModulatedPath, ns *rfsim.NoiseSource) ([]ChirpFrame, error) {
	if err := validateSynth(c, nChirps, tgts, table); err != nil {
		return nil, err
	}
	o := a.obs
	var start time.Time
	if o != nil {
		start = time.Now()
		defer func() {
			o.synthesize.Observe(time.Since(start).Seconds())
			o.tracer.Record(obs.SpanSynthesize, start, int64(nChirps))
		}()
	}
	// synthState travels by value: the kernels only read its fields, and a
	// pointer would escape into the fan-out closures, costing a heap
	// allocation per capture.
	st := a.newSynthState(steerRad, c, nChirps, tgts, extra, ns)
	if o != nil {
		o.synthDraw.Observe(time.Since(start).Seconds())
		o.tracer.Record(obs.SpanSynthDraw, start, int64(nChirps))
	}
	a.synthesizeFast(st, table)
	a.putClutter(st.clutter)
	return st.frames, nil
}

// validateSynth rejects a capture request the hardware could not run: an
// invalid chirp, a non-positive chirp count, a grid table without a
// positive width, or a target without switch states, a state function or
// a gain fill, or whose state function leaves [0, GainStates).
func validateSynth(c waveform.Chirp, nChirps int, tgts []*BackscatterTarget, table GridTable) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("ap: %w: %v", ErrInvalidConfig, err)
	}
	if nChirps < 1 {
		return fmt.Errorf("ap: %w: need at least one chirp, got %d", ErrInvalidConfig, nChirps)
	}
	if table.Fill != nil && table.Width < 1 {
		return fmt.Errorf("ap: %w: grid table width must be >= 1, got %d", ErrInvalidConfig, table.Width)
	}
	for i, tgt := range tgts {
		if tgt == nil {
			continue
		}
		switch {
		case tgt.GainStates < 1:
			return fmt.Errorf("ap: %w: target %d declares %d gain states, need >= 1",
				ErrInvalidConfig, i, tgt.GainStates)
		case tgt.GainStateOf == nil:
			return fmt.Errorf("ap: %w: target %d has no GainStateOf", ErrInvalidConfig, i)
		case tgt.Gain == nil:
			return fmt.Errorf("ap: %w: target %d has no Gain", ErrInvalidConfig, i)
		}
		for k := 0; k < nChirps; k++ {
			if s := tgt.GainStateOf(k); s < 0 || s >= tgt.GainStates {
				return fmt.Errorf("ap: %w: target %d: GainStateOf(%d) = %d outside [0, %d)",
					ErrInvalidConfig, i, k, s, tgt.GainStates)
			}
		}
	}
	return nil
}

// newSynthState draws the capture's hardware imperfections and noise key
// from ns and hoists every chirp-invariant input of a validated request,
// with the horns pointed at steerRad. It is the one place the capture
// consumes ns, so the synthesis kernels and the per-sample-Sincos test
// oracle render identical draws. The state's clutter slice is the
// capture's own; the caller hands it back with putClutter.
func (a *AP) newSynthState(steerRad float64, c waveform.Chirp, nChirps int, tgts []*BackscatterTarget,
	extra []ModulatedPath, ns *rfsim.NoiseSource) synthState {
	fs := a.cfg.BeatSampleRateHz
	nSamp := c.SampleCount(fs)
	fc := (c.FreqLow + c.FreqHigh) / 2

	// Per-capture hardware imperfections (see Config): sweep-slope error,
	// trigger jitter, and receive-chain phase mismatch. The processor always
	// assumes the nominal chirp, so these flow into the estimates exactly as
	// they do on the bench. Then one key for the capture's AWGN: chirp k's
	// antenna m draws from the keyed stream (key, 2k+m) when it is rendered,
	// so no noise is drawn here and no stream depends on the schedule.
	var eta, jitter, psi float64
	var noise keyedNoise
	if ns != nil {
		eta = ns.Gaussian(a.cfg.SweepNonlinearityStd)
		jitter = ns.Gaussian(a.cfg.SyncJitterStd)
		psi = ns.Gaussian(a.cfg.RxPhaseMismatchStd)
		noise = keyedNoise{on: true, key: ns.Uint64(), power: a.noisePowerW(fs)}
	}
	cEff := c
	cEff.FreqHigh = c.FreqLow + (c.FreqHigh-c.FreqLow)*(1+eta)

	clutter := a.clutterPaths(steerRad, fc)
	tx, rx := a.horns(steerRad)

	// Per-target constants, hoisted out of the chirp loop: geometry and the
	// obstruction loss do not depend on the chirp index.
	targets := make([]targetState, 0, len(tgts))
	for _, tgt := range tgts {
		if tgt == nil {
			continue
		}
		az := tgt.Pos.AngleFrom(rfsim.Point{})
		targets = append(targets, targetState{
			tgt: tgt,
			d:   tgt.Pos.Distance(rfsim.Point{}),
			az:  az,
			// A blocker between AP and node attenuates the round trip:
			// one-way loss L dB ⇒ amplitude factor 10^(−L/10).
			blk: math.Pow(10, -a.scene.ObstructionLossDB(rfsim.Point{}, tgt.Pos)/10),
			txG: tx.GainDBi(az),
			rxG: rx.GainDBi(az),
		})
	}
	extras := make([]extraState, len(extra))
	for i, ep := range extra {
		extras[i] = extraState{
			path: ep,
			az:   ep.Pos.AngleFrom(rfsim.Point{}),
			tau:  2*rfsim.PropagationDelay(ep.Pos.Distance(rfsim.Point{})) + jitter,
		}
	}

	return synthState{
		cEff:    cEff,
		nChirps: nChirps,
		nSamp:   nSamp,
		fs:      fs,
		fc:      fc,
		lambda:  rfsim.Wavelength(fc),
		txAmp:   math.Sqrt(a.cfg.TxPowerW),
		radar:   a.implementationLoss(),
		jitter:  jitter,
		psi:     psi,
		clutter: clutter,
		targets: targets,
		extras:  extras,
		noise:   noise,
		frames:  make([]ChirpFrame, nChirps),
	}
}

// diffMode selects what subtractedDiffs materializes for one antenna of the
// background-subtraction product — the lazy-evaluation contract that lets
// each consumer skip work it will never read.
type diffMode uint8

const (
	// diffSkip materializes nothing: the consumer never reads the antenna
	// (the orientation and velocity estimators are antenna-0-only).
	diffSkip diffMode = iota
	// diffTime materializes only the windowed time-domain difference
	// (frame-length samples): enough to evaluate individual spectrum bins on
	// demand through dsp.EvalBin, for consumers that read a handful of bins —
	// the angle estimators read one bin per detected peak — without paying
	// for a transform.
	diffTime
	// diffSpec materializes the full FFT-size spectrum of the windowed
	// difference, the historical product.
	diffSpec
)

// diffSet is the background-subtraction product of one capture under the
// lazy per-antenna contract.
type diffSet struct {
	// d[k][m] holds pair k, antenna m: an nfft-bin spectrum (diffSpec), a
	// frame-length windowed time difference (diffTime), or nil (diffSkip).
	d [][2][]complex128
	// mode records what each antenna column holds — exactly what the
	// consumer asked for.
	mode [2]diffMode
	// nfft is the spectrum length.
	nfft int
}

// binAt returns spectrum bin `bin` of pair k, antenna m — read directly from
// a materialized spectrum, or evaluated on demand from the time-domain
// difference.
func (ds *diffSet) binAt(k, m, bin int) complex128 {
	if ds.mode[m] == diffSpec {
		return ds.d[k][m][bin]
	}
	return dsp.EvalBin(ds.d[k][m], ds.nfft, float64(bin))
}

// releaseDiffSet hands every materialized buffer of a diffSet back to the
// pool. Every consumer of subtractedDiffs defers it; the set must not be
// read afterwards.
func (a *AP) releaseDiffSet(ds diffSet) {
	for k := range ds.d {
		for m := range ds.d[k] {
			if ds.d[k][m] != nil {
				a.putComplex(ds.d[k][m])
				ds.d[k][m] = nil
			}
		}
	}
}

// subtractedDiffs is the §5.1 background subtraction under the lazy
// per-antenna contract: want[m] declares how antenna m will be consumed, and
// exactly that is materialized. By linearity
// FFT(w·(x_{k+1}−x_k)) = FFT(w·x_{k+1}) − FFT(w·x_k), so each pair runs one
// fused multiply-subtract pass, and the requested spectra of the whole chirp
// dimension go through one dsp.BatchPlan call — shared twiddles, packed
// leading stages (the frames fill ≤ n0 of nfft bins), one scratch arena —
// fanned across the intra-capture workers when the budget allows. The
// window-every-chirp-then-difference formulation survives as the refSpectra
// test oracle.
//
// Every frame must have the same length, so one analysis window serves the
// whole capture; a mixed-length capture is an invalid configuration.
func (a *AP) subtractedDiffs(frames []ChirpFrame, want [2]diffMode) (diffSet, error) {
	if len(frames) < 2 {
		return diffSet{}, fmt.Errorf("ap: background subtraction needs >= 2 chirps, got %d", len(frames))
	}
	if o := a.obs; o != nil {
		start := time.Now()
		defer func() {
			o.fft.Observe(time.Since(start).Seconds())
			o.tracer.Record(obs.SpanFFT, start, int64(len(frames)))
		}()
	}
	nfft := a.cfg.FFTSize
	// Validate every frame up front so the fan-out below is infallible. A
	// frame longer than the FFT would previously be truncated silently,
	// discarding late-chirp samples (and with them orientation information);
	// refuse it instead.
	n0 := len(frames[0].Rx[0])
	for k := range frames {
		for m := 0; m < 2; m++ {
			n := len(frames[k].Rx[m])
			if n == 0 {
				return diffSet{}, fmt.Errorf("ap: empty chirp frame %d", k)
			}
			if n > nfft {
				return diffSet{}, fmt.Errorf("ap: chirp frame %d has %d samples but FFT size is %d; raise Config.FFTSize to at least %d",
					k, n, nfft, dsp.NextPowerOfTwo(n))
			}
			if n != n0 {
				return diffSet{}, fmt.Errorf("ap: %w: chirp frame %d antenna %d has %d samples but frame 0 has %d; a capture needs one frame length",
					ErrInvalidConfig, k, m, n, n0)
			}
		}
	}
	return diffSet{d: a.batchedDiffs(frames, want, n0, nfft), mode: want, nfft: nfft}, nil
}

// batchedDiffs is the background subtraction kernel: materialize exactly
// what each antenna's mode asks for, then run every requested spectrum of
// the capture through one shared batch plan. The packed forward skips the
// leading butterfly stages (the windowed difference fills only n0 of nfft
// bins — pooled buffers arrive zeroed beyond it), and bins beyond a diffTime
// antenna's on-demand reads are never computed at all.
//
// With a worker budget above one, pairs fan out across the pooled workers;
// each participant batch-transforms its own pair's spectra. The per-pair
// arithmetic is identical either way, so the results are bit-identical to
// the serial batched path at any worker count.
func (a *AP) batchedDiffs(frames []ChirpFrame, want [2]diffMode, n0, nfft int) [][2][]complex128 {
	var start time.Time
	o := a.obs
	if o != nil {
		start = time.Now()
	}
	w := dsp.HannCached(n0)
	bp := dsp.PlanBatch(nfft)
	nd := len(frames) - 1
	diffs := make([][2][]complex128, nd)
	nSpec := 0
	for m := 0; m < 2; m++ {
		if want[m] == diffSpec {
			nSpec++
		}
	}
	workers := a.captureWorkers()
	if workers > nd {
		workers = nd
	}
	if workers <= 1 {
		// Serial: the whole chirp dimension is one batched call. The spec
		// header list is pool-recycled so the steady state allocates only
		// the returned diffs slice.
		sp := specHeaderPool.Get().(*[][]complex128)
		specs := (*sp)[:0]
		for k := 0; k < nd; k++ {
			specs = a.materializePair(diffs, frames, want, w, k, n0, nfft, specs)
		}
		bp.ForwardPacked(specs, n0)
		if o != nil {
			o.fftBatch.Observe(time.Since(start).Seconds())
			o.tracer.Record(obs.SpanFFTBatch, start, int64(len(specs)))
		}
		for i := range specs {
			specs[i] = nil
		}
		*sp = specs[:0]
		specHeaderPool.Put(sp)
		return diffs
	}
	busy := newBusyClock(o, workers)
	got := a.fanOut(nd, workers, func(_, k int) {
		t0 := busy.start()
		var subArr [2][]complex128
		sub := a.materializePair(diffs, frames, want, w, k, n0, nfft, subArr[:0])
		bp.ForwardPacked(sub, n0)
		busy.stop(t0)
	})
	if o != nil {
		o.fftBatch.Observe(time.Since(start).Seconds())
		o.tracer.Record(obs.SpanFFTBatch, start, int64(nSpec*nd))
		busy.recordBusy(o.tracer, obs.SpanFFTBatch, start, got)
	}
	return diffs
}

// materializePair fills pair k's buffers per the per-antenna want modes and
// returns its to-be-transformed spectra appended to specs.
func (a *AP) materializePair(diffs [][2][]complex128, frames []ChirpFrame, want [2]diffMode,
	w []float64, k, n0, nfft int, specs [][]complex128) [][]complex128 {
	for m := 0; m < 2; m++ {
		switch want[m] {
		case diffSkip:
		case diffTime:
			buf := a.getComplex(n0)
			windowedDiff(buf, frames[k].Rx[m], frames[k+1].Rx[m], w)
			diffs[k][m] = buf
		case diffSpec:
			buf := a.getComplex(nfft)
			windowedDiff(buf[:n0], frames[k].Rx[m], frames[k+1].Rx[m], w)
			diffs[k][m] = buf
			specs = append(specs, buf)
		}
	}
	return specs
}

// stageStart reads the clock for a stage timing, or returns the zero time
// when observability is off, so an uninstrumented AP makes no clock reads.
func (a *AP) stageStart() time.Time {
	if a.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

// detectDone records one detect stage, everything a consumer does after its
// spectra: the ap.detect histogram sample and span. Consumers defer it
// right after subtractedDiffs, as defer a.detectDone(a.stageStart(), n).
func (a *AP) detectDone(start time.Time, nFrames int) {
	if o := a.obs; o != nil {
		o.detect.Observe(time.Since(start).Seconds())
		o.tracer.Record(obs.SpanDetect, start, int64(nFrames))
	}
}

// binsFor converts a beat-frequency width in Hz to the nearest whole number
// of range-FFT bins at the configured transform size, so every width the
// detectors use means the same band at any Config.FFTSize.
func (a *AP) binsFor(hz float64) int {
	return int(math.Round(hz * float64(a.cfg.FFTSize) / a.cfg.BeatSampleRateHz))
}

// specHeaderPool recycles the slice-header lists the serial batched path
// collects its spectra into (the buffers themselves live in the AP's complex
// pool). Headers are nilled before Put so the list never retains capture
// buffers.
var specHeaderPool = sync.Pool{New: func() any { return new([][]complex128) }}

// windowedDiff writes the Hann-windowed consecutive difference
// (x1−x0)·w into dst; all slices share dst's length.
func windowedDiff(dst []complex128, x0, x1 []complex128, w []float64) {
	for i := range dst {
		dst[i] = (x1[i] - x0[i]) * complex(w[i], 0)
	}
}

// accumulatePowerProfile adds |D|² of antenna 0 over every subtraction pair
// into profile (typically a pooled, zeroed nfft/2 buffer). The DC bin is
// skipped — it carries the window's own spectral leakage, not target energy.
//
// The reduction is fixed-order: with one worker it accumulates serially in
// pair order; with more, workers square each pair into a pooled partial
// buffer (exactly the per-pair terms of the serial loop) and the partials
// are then added serially in the same pair order. Floating-point addition is
// order-sensitive, but both shapes perform the identical sequence of
// additions per bin, so the profile is bit-identical at any worker count.
func (a *AP) accumulatePowerProfile(ds diffSet, profile []float64) {
	diffs := ds.d
	workers := a.captureWorkers()
	if workers > len(diffs) {
		workers = len(diffs)
	}
	if workers <= 1 {
		for _, d := range diffs {
			d0 := d[0]
			for i := 1; i < len(profile); i++ {
				re, im := real(d0[i]), imag(d0[i])
				profile[i] += re*re + im*im
			}
		}
		return
	}
	partials := make([][]float64, len(diffs))
	a.fanOut(len(diffs), workers, func(_, k int) {
		part := a.getFloat64(len(profile))
		d0 := diffs[k][0]
		for i := 1; i < len(part); i++ {
			re, im := real(d0[i]), imag(d0[i])
			part[i] = re*re + im*im
		}
		partials[k] = part
	})
	for _, part := range partials {
		for i := 1; i < len(profile); i++ {
			profile[i] += part[i]
		}
		a.putFloat64(part)
	}
}

// LocalizationResult is the output of ProcessLocalization (§5.1, §9.2).
type LocalizationResult struct {
	// RangeM is the estimated AP→node distance in meters.
	RangeM float64
	// AzimuthRad is the estimated direction of the node from the two-antenna
	// phase difference.
	AzimuthRad float64
	// BeatHz is the detected beat frequency.
	BeatHz float64
	// PeakBin is the interpolated FFT bin of the node's reflection.
	PeakBin float64
	// PeakSNRdB is the detection SNR of the node peak over the residual
	// floor, useful for diagnostics.
	PeakSNRdB float64
}

// PeakIndex returns the integer FFT bin of the node's reflection, the form
// the orientation mask consumes.
func (r LocalizationResult) PeakIndex() int {
	return int(math.Round(r.PeakBin))
}

// ProcessLocalization runs the §5.1 pipeline over a set of chirps captured
// while the node toggles its ports: range FFT per chirp, consecutive-pair
// background subtraction, peak search with sub-bin interpolation, range from
// the beat frequency, and angle from the inter-antenna phase at the peak.
func (a *AP) ProcessLocalization(c waveform.Chirp, frames []ChirpFrame) (LocalizationResult, error) {
	// Antenna 0 feeds the power profile (full spectra); antenna 1 is read at
	// exactly one bin — the detected peak — so the time-domain difference
	// plus a single-bin evaluation replaces its FFTs entirely.
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffSpec, diffTime})
	if err != nil {
		return LocalizationResult{}, err
	}
	defer a.releaseDiffSet(ds)
	// The detect stage is everything after the spectra: peak search,
	// interpolation, range/angle recovery.
	defer a.detectDone(a.stageStart(), len(frames))
	nfft := a.cfg.FFTSize
	fs := a.cfg.BeatSampleRateHz
	// Accumulate |D|² over subtraction pairs on antenna 0; positive beat
	// frequencies only (bins up to Nyquist).
	half := nfft / 2
	profile := a.getFloat64(half)
	defer a.putFloat64(profile)
	a.accumulatePowerProfile(ds, profile)
	peak := dsp.MaxPeak(profile)
	if peak.Index <= 0 {
		return LocalizationResult{}, fmt.Errorf("ap: %w: no backscatter peak found", ErrNoDetection)
	}
	med := dsp.Median(profile)
	if med > 0 && peak.Value < 10*med {
		return LocalizationResult{}, fmt.Errorf("ap: %w: peak %.3g not significant over floor %.3g",
			ErrNoDetection, peak.Value, med)
	}
	fBeat := peak.Position * fs / float64(nfft)
	tau := c.DelayForBeat(fBeat)
	rng := tau * rfsim.SpeedOfLight / 2

	// Angle: phase difference between antennas at the peak bin, averaged
	// coherently over subtraction pairs.
	var acc complex128
	for k := range ds.d {
		acc += ds.binAt(k, 1, peak.Index) * cmplx.Conj(ds.binAt(k, 0, peak.Index))
	}
	dPhi := cmplx.Phase(acc)
	fc := (c.FreqLow + c.FreqHigh) / 2
	arr := rfsim.RxArray{Spacing: a.cfg.RxSpacingM}
	az := arr.AngleFromPhase(dPhi, fc)

	snr := math.Inf(1)
	if med > 0 {
		snr = 10 * math.Log10(peak.Value/med)
	}
	return LocalizationResult{
		RangeM:     rng,
		AzimuthRad: az,
		BeatHz:     fBeat,
		PeakBin:    peak.Position,
		PeakSNRdB:  snr,
	}, nil
}

// OrientationProfile is the AP-side orientation observable (§5.2a): the
// node's reflected power as a function of the chirp's instantaneous
// frequency, recovered by masking the node's beat component and IFFT-ing
// back to the time (= frequency-sweep) axis.
type OrientationProfile struct {
	// FreqHz[i] is the instantaneous chirp frequency of sample i.
	FreqHz []float64
	// Power[i] is the recovered modulated-reflection envelope at sample i.
	Power []float64
	// PeakFreqHz is the interpolated frequency of maximum reflection.
	PeakFreqHz float64
}

// EstimateOrientationProfile implements §5.2a: background-subtract, isolate
// the node's beat component (the bins within ±maskHalfWidthHz of peakBin, at
// least one on each side), IFFT, and measure envelope vs time. The caller
// maps PeakFreqHz to an angle through the FSA beam map of the port that was
// toggling.
func (a *AP) EstimateOrientationProfile(c waveform.Chirp, frames []ChirpFrame,
	peakBin int, maskHalfWidthHz float64) (OrientationProfile, error) {
	if !(maskHalfWidthHz > 0) || math.IsInf(maskHalfWidthHz, 0) {
		return OrientationProfile{}, fmt.Errorf("ap: mask half-width must be finite and > 0 Hz, got %g", maskHalfWidthHz)
	}
	// Orientation reads only antenna 0: ask for its spectra and skip
	// antenna 1's transforms outright.
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffSpec, diffSkip})
	if err != nil {
		return OrientationProfile{}, err
	}
	defer a.releaseDiffSet(ds)
	defer a.detectDone(a.stageStart(), len(frames))
	nfft := a.cfg.FFTSize
	if peakBin <= 0 || peakBin >= nfft/2 {
		return OrientationProfile{}, fmt.Errorf("ap: peak bin %d outside (0, %d)", peakBin, nfft/2)
	}
	// The envelope has one sample per frame sample, so the frames, not the
	// chirp argument, size it; a chirp of another length would map those
	// samples onto the wrong frequencies.
	fs := a.cfg.BeatSampleRateHz
	n0 := len(frames[0].Rx[0])
	if ns := c.SampleCount(fs); ns != n0 {
		return OrientationProfile{}, fmt.Errorf("ap: %w: chirp spans %d samples but the frames hold %d",
			ErrInvalidConfig, ns, n0)
	}
	env := make([]float64, n0)
	maskBins := max(a.binsFor(maskHalfWidthHz), 1)
	lo, hi := peakBin-maskBins, peakBin+maskBins
	if lo < 1 {
		lo = 1
	}
	if hi >= nfft/2 {
		hi = nfft/2 - 1
	}
	// The masked spectrum is a short band around the peak bin, and the
	// envelope only needs magnitudes — which are invariant under the band's
	// absolute position — so the packed band-envelope kernel replaces a clear
	// + scatter + full IFFT per pair.
	bp := dsp.PlanBatch(nfft)
	for k := range ds.d {
		bp.AddBandEnvelope(env, ds.d[k][0][lo:hi+1])
	}
	// The Hann analysis window tapers the ends of the chirp; undo it so the
	// envelope reflects the FSA gain profile, avoiding the near-zero edges.
	w := dsp.HannCached(n0)
	for i := range env {
		if w[i] > 0.05 {
			env[i] /= w[i]
		} else {
			env[i] = 0
		}
	}
	peak := dsp.MaxPeak(env)
	freqs := c.InstantaneousFrequencies(fs, n0)
	// Interpolate the peak position onto the frequency axis.
	pf := c.FrequencyAt(peak.Position / fs)
	return OrientationProfile{FreqHz: freqs, Power: env, PeakFreqHz: pf}, nil
}

// RangeFromBeat converts a beat frequency to range for the given chirp —
// exposed for tests and diagnostics.
func RangeFromBeat(c waveform.Chirp, beatHz float64) float64 {
	return c.DelayForBeat(beatHz) * rfsim.SpeedOfLight / 2
}

// EstimateRadialVelocity measures a node's range rate (m/s, positive =
// receding) from the carrier-phase progression of its modulated beat
// component across a chirp burst — classic FMCW Doppler processing adapted
// to the switching backscatter: consecutive subtraction pairs D_k flip sign
// (the node toggles every chirp, a π step) and additionally rotate by the
// Doppler phase 2π·f0·2v·CRI/c per chirp. The estimate averages the
// pairwise rotations coherently, so longer bursts refine it. Unambiguous
// range: ±c/(4·f_eff·CRI) ≈ ±60 m/s with the default 50 µs interval.
//
// peakBin is the refined peak position (LocalizationResult.PeakBin), read
// at its fractional value: the phase progression is taken at the node's
// beat frequency itself rather than at the nearest bin, so the estimate
// does not depend on how finely FFTSize samples the spectrum.
//
// It runs two passes over the time-domain differences:
//   - The first reads every pair at peakBin. The beat tone of a moving node
//     migrates by S·2v·CRI/c per chirp (S the chirp slope) and slips
//     through the fixed read point, which adds the half-band with the
//     opposite sign to each rotation (range-Doppler coupling under this
//     receiver's FFT convention), so the first pass divides by the
//     effective carrier f_eff = f0 − B/2.
//   - The second moves each pair's read along the migration the first
//     estimate implies. The read then follows the tone, only the
//     start-phase term f0 is left, and the window's phase response no
//     longer enters. Its rotation is unwrapped around the first estimate's,
//     so the aliasing limit stays the first pass's.
func (a *AP) EstimateRadialVelocity(c waveform.Chirp, frames []ChirpFrame, peakBin float64) (float64, error) {
	// Doppler reads one point of antenna 0's spectrum per pair and pass:
	// the time-domain differences plus on-demand evaluations replace every
	// FFT of the burst (a 32-chirp burst historically ran 62 transforms
	// here).
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffTime, diffSkip})
	if err != nil {
		return 0, err
	}
	defer a.releaseDiffSet(ds)
	defer a.detectDone(a.stageStart(), len(frames))
	if len(ds.d) < 2 {
		return 0, fmt.Errorf("ap: velocity needs >= 3 chirps, got %d", len(frames))
	}
	if !(peakBin > 0 && peakBin < float64(a.cfg.FFTSize/2)) {
		return 0, fmt.Errorf("ap: peak bin %g outside (0, %d)", peakBin, a.cfg.FFTSize/2)
	}
	// Each pair's expected rotation is π − Δ with Δ = 2π·f_eff·2v·CRI/c.
	perRad := rfsim.SpeedOfLight / (4 * math.Pi * a.cfg.ChirpIntervalS) // v = Δ·perRad/f_eff
	z := ds.pairRotation(peakBin, 0)
	if z == 0 {
		return 0, fmt.Errorf("ap: no coherent Doppler signal at bin %g", peakBin)
	}
	v := rfsim.WrapAngle(math.Pi-cmplx.Phase(z)) * perRad / a.dopplerCarrier(c)
	drift := c.Slope() * 2 * v * a.cfg.ChirpIntervalS / rfsim.SpeedOfLight *
		float64(ds.nfft) / a.cfg.BeatSampleRateHz
	pred := v * c.FreqLow / perRad
	delta := pred + rfsim.WrapAngle(math.Pi-cmplx.Phase(ds.pairRotation(peakBin, drift))-pred)
	return delta * perRad / c.FreqLow, nil
}

// pairRotation returns Σ_k D_{k+1}·conj(D_k) over antenna 0's consecutive
// subtraction pairs, each D_k evaluated at bin + drift·(k − mid), where mid
// is the middle pair: drift bins per pair of tone migration, centred on
// bin.
func (ds *diffSet) pairRotation(bin, drift float64) complex128 {
	mid := float64(len(ds.d)-1) / 2
	var z complex128
	prev := dsp.EvalBin(ds.d[0][0], ds.nfft, bin-drift*mid)
	for k := 1; k < len(ds.d); k++ {
		cur := dsp.EvalBin(ds.d[k][0], ds.nfft, bin+drift*(float64(k)-mid))
		z += cur * cmplx.Conj(prev)
		prev = cur
	}
	return z
}

// dopplerCarrier returns the effective carrier of the per-chirp Doppler
// phase progression (see EstimateRadialVelocity).
func (a *AP) dopplerCarrier(c waveform.Chirp) float64 {
	return c.FreqLow - c.Bandwidth()/2
}

// MaxUnambiguousVelocity returns the Doppler aliasing limit of the current
// chirp interval for the given chirp.
func (a *AP) MaxUnambiguousVelocity(c waveform.Chirp) float64 {
	return rfsim.SpeedOfLight / (4 * a.dopplerCarrier(c) * a.cfg.ChirpIntervalS)
}

// A node's beat component is spread over about ±0.49 MHz (±0.44 m of range
// with the default profile) by its amplitude modulation (the FSA gain
// sweeping across the chirp), so DetectTargets' CFAR guard band must clear
// that spread. Its training window reaches cfarTrainHz (0.70 m) past the
// guard band on each side, so a neighbour 0.44–1.14 m away falls into the
// window and inflates the noise estimate: of three nodes spaced s apart in
// range, one is found at s = 0.9 and 1.1 m (30 of 90 over 30 noise seeds),
// and 89 of 90 at s = 1.3 m. Detections closer than 1.5·targetSpreadHz
// merge into their strongest.
const (
	targetSpreadHz = 488281.25
	cfarTrainHz    = 781250
)

// DetectTargets finds every modulated reflector in a capture using
// cell-averaging CFAR over the background-subtracted profile — the
// multi-node generalization of ProcessLocalization, used during discovery
// scans when several nodes respond in the same epoch. Detections are
// returned strongest-first, at most maxTargets of them.
func (a *AP) DetectTargets(c waveform.Chirp, frames []ChirpFrame, maxTargets int) ([]LocalizationResult, error) {
	if maxTargets < 1 {
		return nil, fmt.Errorf("ap: maxTargets must be >= 1, got %d", maxTargets)
	}
	// Like ProcessLocalization: antenna 0 eager for the profile, antenna 1
	// evaluated only at each detected peak.
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffSpec, diffTime})
	if err != nil {
		return nil, err
	}
	defer a.releaseDiffSet(ds)
	defer a.detectDone(a.stageStart(), len(frames))
	nfft := a.cfg.FFTSize
	fs := a.cfg.BeatSampleRateHz
	half := nfft / 2
	profile := a.getFloat64(half)
	defer a.putFloat64(profile)
	a.accumulatePowerProfile(ds, profile)
	spread := max(a.binsFor(targetSpreadHz), 1)
	cfar := dsp.CFAR{Guard: spread, Train: max(a.binsFor(cfarTrainHz), 1), ThresholdFactor: 20}
	peaks, err := cfar.Detect(profile, a.binsFor(1.5*targetSpreadHz))
	if err != nil {
		return nil, err
	}
	if len(peaks) == 0 {
		return nil, fmt.Errorf("ap: %w: no modulated targets detected", ErrNoDetection)
	}
	if len(peaks) > maxTargets {
		peaks = peaks[:maxTargets]
	}
	fc := (c.FreqLow + c.FreqHigh) / 2
	arr := rfsim.RxArray{Spacing: a.cfg.RxSpacingM}
	med := dsp.Median(profile)
	out := make([]LocalizationResult, 0, len(peaks))
	for _, p := range peaks {
		fBeat := p.Position * fs / float64(nfft)
		var acc complex128
		for k := range ds.d {
			acc += ds.binAt(k, 1, p.Index) * cmplx.Conj(ds.binAt(k, 0, p.Index))
		}
		snr := math.Inf(1)
		if med > 0 {
			snr = 10 * math.Log10(p.Value/med)
		}
		out = append(out, LocalizationResult{
			RangeM:     RangeFromBeat(c, fBeat),
			AzimuthRad: arr.AngleFromPhase(cmplx.Phase(acc), fc),
			BeatHz:     fBeat,
			PeakBin:    p.Position,
			PeakSNRdB:  snr,
		})
	}
	return out, nil
}
