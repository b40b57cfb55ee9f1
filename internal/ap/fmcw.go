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
// the chirp index (switch state) and the instantaneous chirp frequency
// (FSA beam sweep). GainDBi returns the equivalent node gain consumed by
// rfsim.BackscatterAmplitude; return -Inf for "no reflection".
//
// SynthesizeChirpsMulti evaluates GainDBi concurrently across chirp indices,
// and fills different targets' gain envelopes concurrently, so the function
// must be safe for simultaneous calls — derive everything from
// (chirpIdx, fHz) and read-only state, as fsa's with-modes queries do. It
// must also be pure: synthesis may evaluate it more than once for the same
// chirp, and expects the same value each time.
type BackscatterTarget struct {
	Pos     rfsim.Point
	GainDBi func(chirpIdx int, fHz float64) float64
	// GainEnvs, when non-nil on a target that declares GainStates, bulk-fills
	// the linear gain envelopes of every switch state over a frequency grid:
	// env[s·n : (s+1)·n] receives 10^(GainDBi/10) of state s at each of the
	// n = len(freq) grid points, for all nStates states (including states no
	// chirp of the burst uses). One call per capture replaces one GainDBi
	// evaluation per (state, sample), letting sources share work across
	// states — the FSA's per-port array factors are mode-independent, so its
	// two toggle states cost one port sweep each instead of two. The whole
	// env arena may be used as scratch. Must describe the same target as
	// GainDBi (the reference oracle always uses GainDBi; the differential pins
	// hold the two within 1e-9 relative). Same concurrency contract as
	// GainDBi.
	GainEnvs func(freq []float64, nStates int, env []float64)
	// TableEnvs, when non-nil, is the same bulk fill fed from the capture
	// request's GridTable instead of the raw frequency grid: a request that
	// carries a table has it filled once per capture, and every target with
	// a TableEnvs reads it in place of GainEnvs. Same output and concurrency
	// contract as GainEnvs; a request without a table uses GainEnvs.
	TableEnvs TableEnvelopes
	// RadialVelocityMS is the target's range rate in m/s (positive =
	// receding). Across a chirp burst it advances the round-trip delay by
	// 2·v·k·CRI/c per chirp, whose carrier-phase progression is the Doppler
	// observable EstimateRadialVelocity reads.
	RadialVelocityMS float64
	// GainStates, when positive, declares that GainDBi depends on the chirp
	// index only through GainStateOf(chirpIdx): there are GainStates
	// distinct switch states (the FSA node toggling its ports gives two),
	// and chirps in the same state see the identical gain-vs-frequency
	// curve. The fast synthesis kernels then evaluate the curve once per
	// state instead of once per chirp (DESIGN.md §12), and render chirps
	// that share every input once (§12.5). GainStateOf must be safe for
	// concurrent calls, pure (synthesis calls it more than once per chirp:
	// to validate, to group chirps and to render) and return values in
	// [0, GainStates); a declared GainStates without GainStateOf is an
	// invalid configuration.
	// Leave GainStates zero for targets whose gain varies freely per chirp.
	GainStates  int
	GainStateOf func(chirpIdx int) int
}

// GridTable is a request-wide precompute over a capture's frequency grid:
// the part of every target's gain envelope that depends only on the chirp
// frequency, not on the target. A capture whose request carries one (Fill
// non-nil) fills it once, in pooled scratch, before the per-target envelope
// fills fan out, and hands the same read-only table to every target's
// TableEnvs. The frequency grid differs per capture (each draws its own
// sweep-slope error), so the table never outlives the capture. The AP does
// not interpret the table; its layout is a contract between the GridTable
// and the targets' TableEnvs, which the caller builds together. The zero
// value carries no table.
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

// TableEnvelopes is a target's bulk gain-envelope fill from the capture's
// GridTable (see BackscatterTarget.TableEnvs). FillEnvs receives the filled
// table — Width values per sample of an n-sample grid — and fills
// env[s·n : (s+1)·n] with state s's linear envelope, exactly as GainEnvs
// would over the same grid. It must not write to the table, which every
// target of the capture shares.
type TableEnvelopes interface {
	FillEnvs(table []float64, nStates int, env []float64)
}

// ModulatedPath injects an extra, possibly chirp-varying path — used to
// model the FSA ground-plane mirror reflection whose imperfect subtraction
// degrades AP-side orientation sensing around −6°…−2° (§9.3, Fig 13b).
type ModulatedPath struct {
	Pos rfsim.Point
	// Amplitude returns the linear voltage gain of the path for chirp k
	// (relative to the transmitted waveform, antenna gains included by the
	// caller or folded in here). Like BackscatterTarget.GainDBi it is called
	// concurrently across chirp indices and must be safe for that, and it
	// must be pure: synthesis calls it more than once per chirp (to find
	// chirps with identical frames, then to render them).
	Amplitude func(chirpIdx int) float64
}

// ChirpFrame is the dechirped receive data of one chirp: one complex
// baseband beat signal per receive antenna.
type ChirpFrame struct {
	Rx [2][]complex128
}

// SynthesizeChirps produces nChirps dechirped frames for the configured
// scene plus the given target and extra paths. Each propagation path with
// round-trip delay τ appears as the beat tone A·exp(j(2π·S·τ·t − 2π·f0·τ)),
// with the inter-antenna phase offset of its arrival angle. This is the
// standard dechirp-domain FMCW model (DESIGN.md §4.3).
// An invalid chirp or chirp count returns an error wrapping
// ErrInvalidConfig. When a buffer pool is installed (SetBufferPool) the
// frame buffers are pooled: the caller owns them until it hands them back
// (the capture plane's Capture.Release does this).
func (a *AP) SynthesizeChirps(c waveform.Chirp, nChirps int, tgt *BackscatterTarget,
	extra []ModulatedPath, ns *rfsim.NoiseSource) ([]ChirpFrame, error) {
	var tgts []*BackscatterTarget
	if tgt != nil {
		tgts = []*BackscatterTarget{tgt}
	}
	return a.SynthesizeChirpsMulti(c, nChirps, tgts, GridTable{}, extra, ns)
}

// SynthesizeChirpsMulti is SynthesizeChirps for any number of simultaneous
// backscatter targets — the capture model when several nodes respond in the
// same discovery epoch. table is the request's shared GridTable (the zero
// value for none), read by every target that has a TableEnvs.
func (a *AP) SynthesizeChirpsMulti(c waveform.Chirp, nChirps int, tgts []*BackscatterTarget,
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
	st := a.newSynthState(c, nChirps, tgts, extra, ns)
	if o != nil {
		o.synthDraw.Observe(time.Since(start).Seconds())
		o.tracer.Record(obs.SpanSynthDraw, start, int64(nChirps))
	}
	a.synthesizeFast(st, table)
	return st.frames, nil
}

// validateSynth rejects a capture request the hardware could not run: an
// invalid chirp, a non-positive chirp count, a grid table without a
// positive width, or a target whose declared switch states are
// inconsistent.
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
	for _, tgt := range tgts {
		if tgt == nil || tgt.GainStates <= 0 {
			continue
		}
		if tgt.GainStateOf == nil {
			return fmt.Errorf("ap: %w: target declares %d gain states but no GainStateOf",
				ErrInvalidConfig, tgt.GainStates)
		}
		for k := 0; k < nChirps; k++ {
			if s := tgt.GainStateOf(k); s < 0 || s >= tgt.GainStates {
				return fmt.Errorf("ap: %w: GainStateOf(%d) = %d outside [0, %d)",
					ErrInvalidConfig, k, s, tgt.GainStates)
			}
		}
	}
	return nil
}

// newSynthState draws the capture's hardware imperfections and AWGN from ns
// and hoists every chirp-invariant input of a validated request. It is the
// one place the capture's RNG stream is consumed, so the synthesis kernels
// and the per-sample-Sincos test oracle render identical draws.
func (a *AP) newSynthState(c waveform.Chirp, nChirps int, tgts []*BackscatterTarget,
	extra []ModulatedPath, ns *rfsim.NoiseSource) synthState {
	fs := a.cfg.BeatSampleRateHz
	nSamp := c.SampleCount(fs)
	fc := (c.FreqLow + c.FreqHigh) / 2

	// Per-capture hardware imperfections (see Config): sweep-slope error,
	// trigger jitter, and receive-chain phase mismatch. The processor always
	// assumes the nominal chirp, so these flow into the estimates exactly as
	// they do on the bench.
	var eta, jitter, psi float64
	if ns != nil {
		eta = ns.Gaussian(a.cfg.SweepNonlinearityStd)
		jitter = ns.Gaussian(a.cfg.SyncJitterStd)
		psi = ns.Gaussian(a.cfg.RxPhaseMismatchStd)
	}
	cEff := c
	cEff.FreqHigh = c.FreqLow + (c.FreqHigh-c.FreqLow)*(1+eta)

	clutter := a.clutterPaths(fc)
	noisePower := a.noisePowerW(fs)

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
			txG: a.tx.GainDBi(az),
			rxG: a.rx[0].GainDBi(az),
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

	// Noise is drawn serially up front, one buffer per chirp in chirp order,
	// so the RNG consumes exactly the stream the historical serial loop did —
	// the parallel fan-out then stays bit-identical to a serial run.
	var noise [][2][]complex128
	if ns != nil {
		noise = make([][2][]complex128, nChirps)
		for k := range noise {
			for m := 0; m < 2; m++ {
				buf := a.getComplex(nSamp)
				ns.AddComplexAWGN(buf, noisePower)
				noise[k][m] = buf
			}
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
	return dsp.EvalBin(ds.d[k][m], ds.nfft, bin)
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
// the masking and Doppler estimators consume.
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
	if o := a.obs; o != nil {
		start := time.Now()
		defer func() {
			o.detect.Observe(time.Since(start).Seconds())
			o.tracer.Record(obs.SpanDetect, start, int64(len(frames)))
		}()
	}
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
// the node's beat bin (±maskBins), IFFT, and measure envelope vs time. The
// caller maps PeakFreqHz to an angle through the FSA beam map of the port
// that was toggling.
func (a *AP) EstimateOrientationProfile(c waveform.Chirp, frames []ChirpFrame,
	peakBin int, maskBins int) (OrientationProfile, error) {
	if maskBins < 1 {
		return OrientationProfile{}, fmt.Errorf("ap: maskBins must be >= 1, got %d", maskBins)
	}
	// Orientation reads only antenna 0: ask for its spectra and skip
	// antenna 1's transforms outright.
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffSpec, diffSkip})
	if err != nil {
		return OrientationProfile{}, err
	}
	defer a.releaseDiffSet(ds)
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
func (a *AP) EstimateRadialVelocity(c waveform.Chirp, frames []ChirpFrame, peakBin int) (float64, error) {
	// Doppler reads one bin of antenna 0 per pair: the time-domain
	// differences plus one on-demand bin evaluation each replace every FFT
	// of the burst (a 32-chirp burst historically ran 62 transforms here).
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffTime, diffSkip})
	if err != nil {
		return 0, err
	}
	defer a.releaseDiffSet(ds)
	if len(ds.d) < 2 {
		return 0, fmt.Errorf("ap: velocity needs >= 3 chirps, got %d", len(frames))
	}
	if peakBin <= 0 || peakBin >= a.cfg.FFTSize/2 {
		return 0, fmt.Errorf("ap: peak bin %d outside (0, %d)", peakBin, a.cfg.FFTSize/2)
	}
	// Evaluate the peak bin once per pair, then form the pairwise rotations.
	var z complex128
	prev := ds.binAt(0, 0, peakBin)
	for k := 0; k+1 < len(ds.d); k++ {
		cur := ds.binAt(k+1, 0, peakBin)
		z += cur * cmplx.Conj(prev)
		prev = cur
	}
	if z == 0 {
		return 0, fmt.Errorf("ap: no coherent Doppler signal at bin %d", peakBin)
	}
	// Each pair's expected rotation is π − Δ with Δ = 2π·f_eff·2v·CRI/c.
	// The effective Doppler carrier is f0 − B/2: the start-phase term
	// references the sweep start f0, while the beat tone's per-chirp
	// slippage through the analysis window contributes the half-band with
	// the opposite sign (range-Doppler coupling under this receiver's FFT
	// convention).
	delta := rfsim.WrapAngle(math.Pi - cmplx.Phase(z))
	v := delta * rfsim.SpeedOfLight / (4 * math.Pi * a.dopplerCarrier(c) * a.cfg.ChirpIntervalS)
	return v, nil
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
	nfft := a.cfg.FFTSize
	fs := a.cfg.BeatSampleRateHz
	half := nfft / 2
	profile := a.getFloat64(half)
	defer a.putFloat64(profile)
	a.accumulatePowerProfile(ds, profile)
	// A node's beat component is spread over tens of bins by its amplitude
	// modulation (the FSA gain sweeping across the chirp), so the CFAR
	// guard band must clear that spread, and two nodes need comparable
	// range separation to resolve (~0.7 m with the default profile).
	spread := 40 * nfft / 2048
	if spread < 8 {
		spread = 8
	}
	cfar := dsp.CFAR{Guard: spread, Train: spread + 24, ThresholdFactor: 20}
	peaks, err := cfar.Detect(profile, 3*spread/2)
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
