package ap

import (
	"math"
	"time"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// This file is the synthesis kernel path (DESIGN.md §12). SynthesizeChirpsMulti
// builds a synthState (newSynthState) — everything the kernels need,
// including the exact RNG draw order — and renders it here. The
// per-sample-Sincos reference it replaced, synthesizeRef, survives as a test
// oracle consuming the same synthState. Three rewrites carry the speedup:
//
//  1. Phasor recurrence: every beat tone advances by one complex multiply per
//     sample (dsp.AddTonePair / AddToneEnvPair), re-anchored with an exact
//     Sincos every dsp.ToneAnchorBlock samples, and the two-antenna offset is
//     one constant rotation per path instead of a per-sample Sincos.
//  2. Clutter templates: the static clutter tones are identical across all
//     nChirps frames, so they are synthesized once into a pooled two-antenna
//     template and copied into each frame.
//  3. Gain-envelope memoization: a target that declares its switch states
//     (BackscatterTarget.GainStates) has its frequency-dependent gain curve
//     evaluated once per distinct state, not once per chirp, into rows of one
//     pooled arena shared by the capture's targets.
//  4. Distinct chirps: chirps whose pre-noise frames are bit-identical (a
//     static scene seen in the same switch states) are rendered once and
//     copied (chirpClasses).

// maxGainStates bounds the gain-envelope memo. The FSA node toggles between
// two port states, so real targets need 2; 8 leaves room for multi-port
// experiments while keeping the per-target done-flags on the stack. A target
// declaring more states than this still synthesizes correctly — it just
// re-evaluates its gain curve per chirp.
const maxGainStates = 8

// targetState is one backscatter target with everything that does not depend
// on the chirp index hoisted out of the per-chirp loop: geometry, obstruction
// loss, horn gains toward the target, and (kernel path only) the inter-antenna
// rotation and memoized gain envelopes.
type targetState struct {
	tgt      *BackscatterTarget
	d, az    float64
	blk      float64
	txG, rxG float64

	// Fast-kernel state, filled by synthesizeFast. env holds GainStates
	// envelopes of nSamp samples each, stride-indexed (state s occupies
	// env[s·nSamp : (s+1)·nSamp]); it is the target's rows of the capture's
	// pooled envelope arena, sliced with cap == len, and is released with
	// the arena before the synthesis returns. memo is false when the target
	// declares no states (or more than maxGainStates), in which case the
	// envelope is refilled per chirp into worker-local scratch.
	rot  complex128
	env  []float64
	memo bool
}

// extraState is one injected path with its chirp-invariant parts hoisted:
// the delay (and therefore the beat tone's phase program) is fixed, only the
// per-chirp amplitude varies.
type extraState struct {
	path ModulatedPath
	az   float64
	tau  float64

	// Fast-kernel state: inter-antenna rotation and the tone's phase program
	// (start phase and per-sample increment).
	rot  complex128
	phi0 float64
	step float64
}

// synthState carries one capture's synthesis inputs, shared by the kernels
// and the reference test oracle: the effective (slope-perturbed) chirp, the
// per-capture imperfection draws, hoisted target and extra-path state, and
// the pre-drawn noise buffers (chirp-ordered, so the RNG stream is identical
// however the fan-out schedules).
type synthState struct {
	cEff    waveform.Chirp
	nChirps int
	nSamp   int
	fs      float64
	fc      float64
	lambda  float64
	txAmp   float64
	radar   float64
	jitter  float64
	psi     float64

	clutter []rfsim.Path
	targets []targetState
	extras  []extraState
	noise   [][2][]complex128
	frames  []ChirpFrame
}

// fillGainEnv evaluates a target's linear gain envelope for chirp k over the
// shared frequency grid through the scalar GainDBi seam — the fallback for
// targets without a bulk GainEnvs fill.
func fillGainEnv(dst []float64, tgt *BackscatterTarget, k int, freq []float64) {
	for i, f := range freq {
		// math.Pow(10, -Inf) = 0: a "no reflection" gain drops the
		// sample exactly as the reference oracle's IsInf guard does.
		dst[i] = math.Pow(10, tgt.GainDBi(k, f)/10)
	}
}

// fillGainMemo fills a memoizing target's pooled envelope rows over the
// shared frequency grid: one bulk TableEnvs call when the capture filled a
// grid table and the target reads it, else one bulk GainEnvs call when the
// target has one, else one fillGainEnv per distinct state. The
// representative chirp for a state is the first chirp that uses it —
// GainStates' contract is that GainDBi depends on the chirp index only
// through the state, so any representative gives the same curve. It writes
// only ts.env, so targets may be filled concurrently.
func fillGainMemo(ts *targetState, freq, table []float64, nChirps int) {
	if !ts.memo {
		return
	}
	nStates, nSamp := ts.tgt.GainStates, len(freq)
	if table != nil && ts.tgt.TableEnvs != nil {
		ts.tgt.TableEnvs.FillEnvs(table, nStates, ts.env)
		return
	}
	if ts.tgt.GainEnvs != nil {
		// Bulk fill: every state in one call, sharing the mode-independent
		// work across states (it may fill states the burst never uses; that
		// costs a scalar combine, not an array-factor sweep).
		ts.tgt.GainEnvs(freq, nStates, ts.env)
		return
	}
	var done [maxGainStates]bool
	filled := 0
	for k := 0; k < nChirps && filled < nStates; k++ {
		s := ts.tgt.GainStateOf(k)
		if done[s] {
			continue
		}
		done[s] = true
		filled++
		fillGainEnv(ts.env[s*nSamp:(s+1)*nSamp], ts.tgt, k, freq)
	}
}

// chirpRange returns the target's Doppler-advanced distance at chirp k — the
// one input of its per-chirp tone besides the switch state.
func (a *AP) chirpRange(ts *targetState, k int) float64 {
	return ts.d + ts.tgt.RadialVelocityMS*float64(k)*a.cfg.ChirpIntervalS
}

// chirpClasses appends to rep, for each chirp k of the burst, the first
// chirp whose pre-noise frame is bit-identical to chirp k's (k itself when
// no earlier chirp's is), and returns the extended slice and the number of
// distinct frames. Two chirps share a frame when every input of the
// per-chirp render is the same bit for bit: each target is memoized and sits
// in the same switch state at the same Doppler-advanced distance, and each
// extra path has the same amplitude. A target without memoized states may
// vary its gain freely per chirp, so it makes every chirp distinct, and so
// does a moving target. Each chirp is compared only against the
// representatives before it, so a burst of n chirps with c distinct frames
// makes at most n·c comparisons.
func (a *AP) chirpClasses(rep []int, targets []targetState, extras []extraState, nChirps int) ([]int, int) {
	distinct := 0
	for k := 0; k < nChirps; k++ {
		r := k
		for j := 0; j < k; j++ {
			if rep[j] == j && a.sameFrame(targets, extras, j, k) {
				r = j
				break
			}
		}
		if r == k {
			distinct++
		}
		rep = append(rep, r)
	}
	return rep, distinct
}

// sameFrame reports whether chirps j and k render bit-identical pre-noise
// frames (see chirpClasses).
func (a *AP) sameFrame(targets []targetState, extras []extraState, j, k int) bool {
	for ti := range targets {
		ts := &targets[ti]
		if !ts.memo ||
			math.Float64bits(a.chirpRange(ts, j)) != math.Float64bits(a.chirpRange(ts, k)) ||
			ts.tgt.GainStateOf(j) != ts.tgt.GainStateOf(k) {
			return false
		}
	}
	for ei := range extras {
		amp := extras[ei].path.Amplitude
		if math.Float64bits(amp(j)) != math.Float64bits(amp(k)) {
			return false
		}
	}
	return true
}

// interAntennaRot returns the constant phase rotation between the two receive
// antennas for a path arriving from aoaRad — the factor addBeatTone applies
// per call, hoisted here to one complex constant per path.
func (a *AP) interAntennaRot(aoaRad, lambda, psi float64) complex128 {
	s, c := math.Sincos(2*math.Pi*a.cfg.RxSpacingM*math.Sin(aoaRad)/lambda + psi)
	return complex(c, s)
}

// synthesizeFast renders the capture with the phasor-recurrence kernels. It
// is value-equivalent to the synthesizeRef test oracle within the §12 drift
// bound: the
// per-sample accumulation order (clutter, targets, extras, noise) is
// preserved exactly, so the only differences are the recurrence rounding and
// the amplitude factorization, both far inside 1e-9 relative.
//
// The three phases are timed separately when the AP is observed (per-capture
// set-up including the gain-envelope fill, target/extra tones, noise
// fold-in), giving `milback-report -trace` a per-stage split of where
// synthesis time goes. The serial state build and AWGN draw in
// newSynthState precede phase 1 and are timed by the caller as
// ap.synthesize.draw.
func (a *AP) synthesizeFast(st synthState, gridTable GridTable) {
	o := a.obs

	// Phase 1 (ap.synthesize.clutter): per-capture set-up — the clutter
	// template, the frequency grid, and the gain-envelope memos, whose fill
	// fans out across targets. The static clutter tones are the same in
	// every frame, so render them once into a pooled two-antenna template
	// and memcpy below. Built from a zeroed buffer in path order — the same
	// accumulation a per-chirp loop would perform.
	var clutterStart time.Time
	if o != nil {
		clutterStart = time.Now()
	}
	var tmpl [2][]complex128
	if len(st.clutter) > 0 {
		tmpl[0] = a.getComplex(st.nSamp)
		tmpl[1] = a.getComplex(st.nSamp)
		for _, p := range st.clutter {
			tau := p.Delay + st.jitter
			fBeat := st.cEff.BeatFrequency(tau)
			dsp.AddTonePair(tmpl[0], tmpl[1],
				a.interAntennaRot(p.AoARad, st.lambda, st.psi),
				p.Amplitude*st.txAmp*st.radar,
				-2*math.Pi*st.cEff.FreqLow*tau,
				2*math.Pi*fBeat/st.fs)
		}
	}

	// Shared frequency grid: the instantaneous chirp frequency at each
	// sample, read-only across workers. Both the memo fill and the per-chirp
	// envelope fills consume it.
	freq := a.getFloat64(st.nSamp)
	for i := range freq {
		freq[i] = st.cEff.FrequencyAt(float64(i) / st.fs)
	}

	// Hoist per-target fast state and check the gain-envelope memos out of
	// the pool serially, so buffer recycling never depends on scheduling:
	// one arena holds every memoizing target's rows, one pool checkout per
	// capture however many targets it carries. Each target's rows are
	// sliced with cap == len, so a fill that uses its rows as scratch
	// cannot reach a neighbour's.
	needScratch := false
	arenaLen := 0
	for ti := range st.targets {
		ts := &st.targets[ti]
		ts.rot = a.interAntennaRot(ts.az, st.lambda, st.psi)
		nStates := ts.tgt.GainStates
		if nStates < 1 || nStates > maxGainStates {
			needScratch = true
			continue
		}
		ts.memo = true
		arenaLen += nStates * st.nSamp
	}
	var arena []float64
	if arenaLen > 0 {
		arena = a.getFloat64(arenaLen)
		off := 0
		for ti := range st.targets {
			if ts := &st.targets[ti]; ts.memo {
				end := off + ts.tgt.GainStates*st.nSamp
				ts.env = arena[off:end:end]
				off = end
			}
		}
	}
	// The request's grid table: the target-independent part of every
	// envelope, filled once per capture into pooled scratch before the
	// fan-out and read by every target's fill.
	var table []float64
	if gridTable.Fill != nil {
		table = a.getFloat64(gridTable.Width * st.nSamp)
		gridTable.Fill(freq, table)
	}
	// Fill the memos, one fan-out item per target. Each item writes only its
	// own env rows, so the result is bit-identical at any worker count
	// (DESIGN.md §17.2). A single-target capture — every localization,
	// exchange and Doppler burst — fills inline and builds no closure.
	targets, nChirps := st.targets, st.nChirps
	if len(targets) <= 1 {
		for ti := range targets {
			fillGainMemo(&targets[ti], freq, table, nChirps)
		}
	} else {
		a.fanOut(len(targets), a.captureWorkers(), func(_, ti int) {
			fillGainMemo(&targets[ti], freq, table, nChirps)
		})
	}
	if table != nil {
		a.putFloat64(table)
	}
	for ei := range st.extras {
		es := &st.extras[ei]
		es.rot = a.interAntennaRot(es.az, st.lambda, st.psi)
		es.phi0 = -2 * math.Pi * st.cEff.FreqLow * es.tau
		es.step = 2 * math.Pi * st.cEff.BeatFrequency(es.tau) / st.fs
	}
	if o != nil {
		o.synthClutter.Observe(time.Since(clutterStart).Seconds())
		o.tracer.Record(obs.SpanSynthClutter, clutterStart, int64(len(st.clutter)))
	}

	// Phase 2 (parallel): per-chirp frames — copy the template, add each
	// target's modulated tone and the injected paths. Every input is
	// read-only here; each worker owns exactly its own frame.
	var targetsStart time.Time
	if o != nil {
		targetsStart = time.Now()
	}
	// Unpack into locals so the fan-out closure captures read-only scalars
	// and slice headers by value instead of boxing the whole synthState on
	// the heap — one allocation per capture for nothing.
	cEff, nSamp, fs, fc := st.cEff, st.nSamp, st.fs, st.fc
	txAmp, radarLoss, jitter := st.txAmp, st.radar, st.jitter
	extras, frames := st.extras, st.frames
	// Render each distinct chirp once: rep[k] names the chirp whose frame
	// chirp k copies. rep stays out of the closure (which escapes to the
	// fan-out's job record), so a burst of up to len(repBuf) chirps keeps
	// it on the stack. A copy chirp's frame is checked out here, before the
	// fan-out, which then renders exactly the chirps whose frames are
	// still unclaimed: the representatives.
	var repBuf [16]int
	rep := repBuf[:0]
	if nChirps > len(repBuf) {
		rep = make([]int, 0, nChirps)
	}
	rep, distinct := a.chirpClasses(rep, targets, extras, nChirps)
	for k, r := range rep {
		if r != k {
			frames[k] = ChirpFrame{Rx: [2][]complex128{a.getComplex(nSamp), a.getComplex(nSamp)}}
		}
	}
	workers := a.captureWorkers()
	if workers > distinct {
		workers = distinct
	}
	// Per-worker refill scratch, stride-indexed like the memo: worker w owns
	// scratchBuf[w·nSamp : (w+1)·nSamp]. Safe to reuse across chirps because
	// every fill overwrites the whole envelope.
	var scratchBuf []float64
	if needScratch {
		scratchBuf = a.getFloat64(workers * nSamp)
	}
	busy := newBusyClock(o, workers)
	got := a.fanOut(nChirps, workers, func(worker, k int) {
		if frames[k].Rx[0] != nil {
			return // a copy of an earlier chirp's frame, filled below
		}
		t0 := busy.start()
		var frame ChirpFrame
		for m := 0; m < 2; m++ {
			frame.Rx[m] = a.getComplex(nSamp)
			if tmpl[m] != nil {
				copy(frame.Rx[m], tmpl[m])
			}
		}
		var scratch []float64
		if scratchBuf != nil {
			scratch = scratchBuf[worker*nSamp : (worker+1)*nSamp]
		}
		for ti := range targets {
			ts := &targets[ti]
			dk := a.chirpRange(ts, k)
			if dk <= 0 {
				continue
			}
			tau := 2*rfsim.PropagationDelay(dk) + jitter
			env := scratch
			if ts.memo {
				s := ts.tgt.GainStateOf(k)
				env = ts.env[s*nSamp : (s+1)*nSamp]
			} else {
				fillGainEnv(env, ts.tgt, k, freq)
			}
			// The path loss follows the Doppler-advanced distance dk, not
			// the initial d: a long burst against a fast target must not
			// overstate (or understate) late-chirp SNR. The gain-dependent
			// factor 10^(g/10) lives in the envelope, so the scale is the
			// unit-gain amplitude.
			scale := rfsim.BackscatterAmplitude(ts.txG, ts.rxG, 0, dk, fc) *
				txAmp * radarLoss * ts.blk
			fBeat := cEff.BeatFrequency(tau)
			dsp.AddToneEnvPair(frame.Rx[0], frame.Rx[1], ts.rot, env, scale,
				-2*math.Pi*cEff.FreqLow*tau, 2*math.Pi*fBeat/fs)
		}
		for ei := range extras {
			es := &extras[ei]
			dsp.AddTonePair(frame.Rx[0], frame.Rx[1], es.rot,
				es.path.Amplitude(k)*txAmp*radarLoss, es.phi0, es.step)
		}
		frames[k] = frame
		busy.stop(t0)
	})
	if scratchBuf != nil {
		a.putFloat64(scratchBuf)
	}
	// Fill the copy chirps before any noise lands on their representatives.
	for k, r := range rep {
		if r != k {
			copy(frames[k].Rx[0], frames[r].Rx[0])
			copy(frames[k].Rx[1], frames[r].Rx[1])
		}
	}
	if o != nil {
		o.synthTargets.Observe(time.Since(targetsStart).Seconds())
		o.tracer.Record(obs.SpanSynthTargets, targetsStart, int64(st.nChirps))
		busy.recordBusy(o.tracer, obs.SpanSynthTargets, targetsStart, got)
	}

	// Phase 3 (serial): fold the pre-drawn noise into each frame and recycle
	// the buffers. Last in the per-sample accumulation order, as in the
	// reference oracle.
	var noiseStart time.Time
	if o != nil {
		noiseStart = time.Now()
	}
	if st.noise != nil {
		for k := range st.frames {
			for m := 0; m < 2; m++ {
				nb := st.noise[k][m]
				dst := st.frames[k].Rx[m]
				for i := range dst {
					dst[i] += nb[i]
				}
				st.noise[k][m] = nil
				a.putComplex(nb)
			}
		}
	}
	if o != nil {
		o.synthNoise.Observe(time.Since(noiseStart).Seconds())
		o.tracer.Record(obs.SpanSynthNoise, noiseStart, int64(st.nChirps))
	}

	a.putFloat64(arena)
	a.putFloat64(freq)
	a.putComplex(tmpl[0])
	a.putComplex(tmpl[1])
}
