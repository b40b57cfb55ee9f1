package ap

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/parallel"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// This file holds the reference implementations the production capture
// path replaced, kept as test oracles: the per-sample-Sincos synthesis
// (synthesizeRef, addBeatTone) and the window-every-chirp-then-difference
// background subtraction (refSpectra). The synthesis oracle consumes the
// same synthState as synthesizeFast — newSynthState is shared, so both
// render identical imperfection draws and keyed noise streams — and the
// differential tests compare the production kernels against these at fixed
// seeds and tolerances.

// synthesizeChirpsRef is SynthesizeChirps rendered by the reference
// synthesis oracle.
func (a *AP) synthesizeChirpsRef(c waveform.Chirp, nChirps int, tgts []*BackscatterTarget,
	extra []ModulatedPath, ns *rfsim.NoiseSource) ([]ChirpFrame, error) {
	if err := validateSynth(c, nChirps, tgts, GridTable{}); err != nil {
		return nil, err
	}
	st := a.newSynthState(c, nChirps, tgts, extra, ns)
	a.synthesizeRef(st)
	return st.frames, nil
}

// synthesizeRef renders the capture with the per-sample-Sincos reference
// kernels — the historical implementation, kept bit-identical as the exact
// baseline the kernel differentials compare synthesizeFast against.
func (a *AP) synthesizeRef(st synthState) {
	// Unpack into locals so the fan-out closure captures read-only scalars
	// and slice headers by value; capturing the whole parameter would box it
	// on the heap — one allocation per capture for nothing.
	cEff, nSamp, fc := st.cEff, st.nSamp, st.fc
	lambda, txAmp, radarLoss := st.lambda, st.txAmp, st.radar
	jitter, psi := st.jitter, st.psi
	clutter, targets, extras := st.clutter, st.targets, st.extras
	noise, frames := st.noise, st.frames
	parallel.ForEach(st.nChirps, func(k int) {
		var frame ChirpFrame
		for m := 0; m < 2; m++ {
			frame.Rx[m] = a.getComplex(nSamp)
		}
		// Static clutter: constant per chirp.
		for _, p := range clutter {
			a.addBeatTone(&frame, cEff, p.Delay+jitter, p.Amplitude*txAmp*radarLoss, p.AoARad, lambda, psi, nil)
		}
		// The nodes' modulated reflections.
		for _, ts := range targets {
			// Range rate advances the delay chirp by chirp (Doppler).
			dk := ts.d + ts.tgt.RadialVelocityMS*float64(k)*a.cfg.ChirpIntervalS
			if dk <= 0 {
				continue
			}
			tau := 2*rfsim.PropagationDelay(dk) + jitter
			gainAt := refGainDBi(ts.tgt)
			state := ts.tgt.GainStateOf(k)
			ampAt := func(t float64) float64 {
				g := gainAt(state, cEff.FrequencyAt(t))
				if math.IsInf(g, -1) {
					return 0
				}
				// The path loss follows the Doppler-advanced distance dk, not
				// the initial d: a long burst against a fast target must not
				// overstate (or understate) late-chirp SNR.
				return rfsim.BackscatterAmplitude(ts.txG, ts.rxG, g, dk, fc) *
					txAmp * radarLoss * ts.blk
			}
			a.addBeatTone(&frame, cEff, tau, 0, ts.az, lambda, psi, ampAt)
		}
		// Extra injected paths (e.g. the mirror reflection).
		for _, es := range extras {
			a.addBeatTone(&frame, cEff, es.tau, es.path.Amplitude(k)*txAmp*radarLoss, es.az, lambda, psi, nil)
		}
		noise.add(frame, k)
		frames[k] = frame
	})
}

// scalarGain is the per-sample dB form of a target's gain, the reference
// the oracle reads in place of the production envelope fill: state s's
// equivalent node gain at fHz, −Inf for no reflection. Every Gain a test
// hands the oracle implements it.
type scalarGain interface {
	gainDBi(state int, fHz float64) float64
}

func (g constantGains) gainDBi(s int, _ float64) float64 { return g[s] }

// refGainDBi returns a target's scalar gain; it panics on a Gain with no
// scalar form, which the oracle cannot render.
func refGainDBi(tgt *BackscatterTarget) func(state int, fHz float64) float64 {
	sg, ok := tgt.Gain.(scalarGain)
	if !ok {
		panic(fmt.Sprintf("ap: oracle: target gain %T has no scalar form", tgt.Gain))
	}
	return sg.gainDBi
}

// gainFunc is a test gain given in its scalar dB form. Its envelope fill is
// 10^(g/10) per state and sample, the per-sample form the kernels once
// evaluated for every chirp.
type gainFunc func(state int, fHz float64) float64

func (g gainFunc) FillEnvs(freq, _ []float64, nStates int, env []float64) {
	n := len(freq)
	for s := 0; s < nStates; s++ {
		for i, f := range freq {
			// math.Pow(10, -Inf) = 0, as the oracle's IsInf guard.
			env[s*n+i] = math.Pow(10, g(s, f)/10)
		}
	}
}

func (g gainFunc) gainDBi(s int, fHz float64) float64 { return g(s, fHz) }

// parity is the §5.1 toggle: even chirps in state 0, odd chirps in state 1.
func parity(k int) int { return k & 1 }

// funcTarget is a two-state toggling target at pos whose gain is g.
func funcTarget(pos rfsim.Point, g gainFunc) *BackscatterTarget {
	return &BackscatterTarget{Pos: pos, GainStates: 2, GainStateOf: parity, Gain: g}
}

// addBeatTone adds one path's beat contribution to both antennas. If ampAt
// is non-nil it supplies a time-varying amplitude; otherwise amp is used.
// psi is the receive-chain phase mismatch applied to antenna 1.
func (a *AP) addBeatTone(frame *ChirpFrame, c waveform.Chirp, tau, amp, aoaRad, lambda, psi float64,
	ampAt func(t float64) float64) {
	fs := a.cfg.BeatSampleRateHz
	fBeat := c.BeatFrequency(tau)
	phi0 := -2 * math.Pi * c.FreqLow * tau
	dPhi := 2*math.Pi*a.cfg.RxSpacingM*math.Sin(aoaRad)/lambda + psi
	// The inter-antenna rotation depends only on the arrival angle, not on
	// the sample index.
	s2, c2 := math.Sincos(dPhi)
	rot := complex(c2, s2)
	n := len(frame.Rx[0])
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		av := amp
		if ampAt != nil {
			av = ampAt(t)
		}
		if av == 0 {
			continue
		}
		ph := 2*math.Pi*fBeat*t + phi0
		s, cth := math.Sincos(ph)
		base := complex(av*cth, av*s)
		frame.Rx[0][i] += base
		frame.Rx[1][i] += base * rot
	}
}

// subtractedSpectra forms the spectra of the consecutive differences
// X_{k+1} − X_k of the windowed chirps on both antennas — the §5.1
// background subtraction that removes static clutter while keeping the
// node's modulated reflection. It is the both-antennas-eager production
// product, the form the differentials compare against the refSpectra oracle.
func (a *AP) subtractedSpectra(frames []ChirpFrame) ([][2][]complex128, error) {
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffSpec, diffSpec})
	if err != nil {
		return nil, err
	}
	return ds.d, nil
}

// refSpectra is the reference background subtraction: window and transform
// every chirp, then difference the spectra. The analysis window depends only
// on the frame length: share the process-wide cached window (read-only)
// instead of recomputing it 2·len(frames) times per capture.
func (a *AP) refSpectra(frames []ChirpFrame, uniform bool, n0, nfft int) [][2][]complex128 {
	plan := dsp.PlanBatch(nfft)
	var shared []float64
	if uniform {
		shared = dsp.HannCached(n0)
	}
	spectra := make([][2][]complex128, len(frames))
	parallel.ForEach(len(frames), func(k int) {
		for m := 0; m < 2; m++ {
			x := frames[k].Rx[m]
			w := shared
			if w == nil {
				w = dsp.HannCached(len(x))
			}
			buf := a.getComplex(nfft)
			for i := range x {
				buf[i] = x[i] * complex(w[i], 0)
			}
			plan.ForwardPacked([][]complex128{buf}, len(x))
			spectra[k][m] = buf
		}
	})
	// Form the consecutive differences in place, reusing spectrum k's buffer
	// for diff k (spectrum k+1 is still intact when diff k is computed, and
	// is only overwritten afterwards by its own diff). Value-identical to the
	// historical allocate-then-subtract, and the caller releases the diffs
	// back to the pool when done.
	diffs := make([][2][]complex128, len(frames)-1)
	for k := 0; k+1 < len(spectra); k++ {
		for m := 0; m < 2; m++ {
			d := spectra[k][m]
			next := spectra[k+1][m]
			for i := range d {
				d[i] = next[i] - d[i]
			}
			diffs[k][m] = d
		}
	}
	// The last chirp's spectra are pure inputs; recycle them now.
	for m := 0; m < 2; m++ {
		a.putComplex(spectra[len(spectra)-1][m])
	}
	return diffs
}

// releaseDiffs hands background-subtraction spectra back to the buffer
// pool. Consumers of subtractedSpectra defer it; the diffs must not be read
// afterwards.
func (a *AP) releaseDiffs(diffs [][2][]complex128) {
	for k := range diffs {
		for m := range diffs[k] {
			a.putComplex(diffs[k][m])
			diffs[k][m] = nil
		}
	}
}
