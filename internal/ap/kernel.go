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
//     evaluated once per distinct state into a pooled envelope, not once per
//     chirp.

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
	// env[s·nSamp : (s+1)·nSamp]); it is pooled and released before the
	// synthesis returns. memo is false when the target declares no states
	// (or more than maxGainStates), in which case the envelope is refilled
	// per chirp into worker-local scratch.
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
// The three phases are timed separately when the AP is observed (clutter
// template, target/extra tones, noise fold-in), giving `milback-report
// -trace` a per-stage split of where synthesis time goes.
func (a *AP) synthesizeFast(st synthState) {
	o := a.obs

	// Phase 1 (serial): clutter template. The static clutter tones are the
	// same in every frame, so render them once into a pooled two-antenna
	// template and memcpy below. Built from a zeroed buffer in path order —
	// the same accumulation a per-chirp loop would perform.
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

	// Hoist per-target fast state; fill gain-envelope memos serially. The
	// representative chirp for a state is the first chirp that uses it —
	// GainStates' contract is that GainDBi depends on the chirp index only
	// through the state, so any representative gives the same curve.
	needScratch := false
	for ti := range st.targets {
		ts := &st.targets[ti]
		ts.rot = a.interAntennaRot(ts.az, st.lambda, st.psi)
		nStates := ts.tgt.GainStates
		if nStates < 1 || nStates > maxGainStates {
			needScratch = true
			continue
		}
		ts.memo = true
		ts.env = a.getFloat64(nStates * st.nSamp)
		if ts.tgt.GainEnvs != nil {
			// Bulk fill: every state in one call, sharing the
			// mode-independent work across states (it may fill states the
			// burst never uses; that costs a scalar combine, not an
			// array-factor sweep).
			ts.tgt.GainEnvs(freq, nStates, ts.env)
			continue
		}
		var done [maxGainStates]bool
		filled := 0
		for k := 0; k < st.nChirps && filled < nStates; k++ {
			s := ts.tgt.GainStateOf(k)
			if done[s] {
				continue
			}
			done[s] = true
			filled++
			fillGainEnv(ts.env[s*st.nSamp:(s+1)*st.nSamp], ts.tgt, k, freq)
		}
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
	targets, extras, frames := st.targets, st.extras, st.frames
	workers := a.captureWorkers()
	if workers > st.nChirps {
		workers = st.nChirps
	}
	// Per-worker refill scratch, stride-indexed like the memo: worker w owns
	// scratchBuf[w·nSamp : (w+1)·nSamp]. Safe to reuse across chirps because
	// every fill overwrites the whole envelope.
	var scratchBuf []float64
	if needScratch {
		scratchBuf = a.getFloat64(workers * nSamp)
	}
	busy := newBusyClock(o, workers)
	got := a.fanOut(st.nChirps, workers, func(worker, k int) {
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
			dk := ts.d + ts.tgt.RadialVelocityMS*float64(k)*a.cfg.ChirpIntervalS
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

	for ti := range st.targets {
		if ts := &st.targets[ti]; ts.env != nil {
			a.putFloat64(ts.env)
			ts.env = nil
		}
	}
	a.putFloat64(freq)
	a.putComplex(tmpl[0])
	a.putComplex(tmpl[1])
}
