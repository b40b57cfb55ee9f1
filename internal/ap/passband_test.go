package ap

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// TestDechirpModelMatchesPassbandSimulation validates the core modelling
// shortcut of this repository (DESIGN.md §1): synthesizing beat tones
// directly in the dechirped domain is mathematically identical to mixing a
// received passband chirp against the transmitted one. Because sampling a
// 28 GHz passband is infeasible, the check runs at a scaled-down carrier
// where full passband simulation is cheap, and compares the mixer+LPF
// output against the analytic beat model for several delays.
func TestDechirpModelMatchesPassbandSimulation(t *testing.T) {
	// Scaled chirp: 1 MHz -> 2 MHz over 1 ms (slope 1e9 Hz/s), passband
	// sampled at 20 MHz.
	c := waveform.Chirp{Shape: waveform.Sawtooth, FreqLow: 1e6, FreqHigh: 2e6, Duration: 1e-3}
	fsPass := 20e6
	n := int(c.Duration * fsPass)

	for _, tau := range []float64{3e-6, 11e-6, 27.5e-6} {
		// Full passband: tx(t) = cos(φ(t)), rx(t) = cos(φ(t−τ)).
		mixed := make([]float64, n)
		for i := 0; i < n; i++ {
			ts := float64(i) / fsPass
			tx := math.Cos(c.Phase(ts))
			rxPh := 0.0
			if ts >= tau {
				rxPh = c.Phase(ts - tau)
			} else {
				// Before the delayed chirp arrives: previous chirp's tail;
				// approximate with the start frequency (transient region is
				// excluded from the comparison window anyway).
				rxPh = 2 * math.Pi * c.FreqLow * (ts - tau)
			}
			rx := math.Cos(rxPh)
			mixed[i] = tx * rx // the ZMDB mixer
		}
		// Low-pass away the sum-frequency products (2–4 MHz); keep the beat
		// (slope·τ = 3–27.5 kHz).
		lpf := dsp.LowPassFIR(301, 200e3, fsPass)
		beat := filterCompensated(lpf, mixed)

		// Measure the dominant beat frequency over a clean interior window.
		lo, hi := n/4, 3*n/4
		win := beat[lo:hi]
		buf := make([]complex128, dsp.NextPowerOfTwo(len(win)))
		w := dsp.Hann(len(win))
		for i, v := range win {
			buf[i] = complex(v*w[i], 0)
		}
		dsp.PlanBatch(len(buf)).ForwardPacked([][]complex128{buf}, len(win))
		mags := make([]float64, len(buf)/2)
		for i := range mags {
			mags[i] = cmplx.Abs(buf[i])
		}
		peak := dsp.MaxPeak(mags[1:]) // skip DC
		measured := (peak.Position + 1) * fsPass / float64(len(buf))

		// The dechirp-domain model says f_beat = slope·τ exactly. The FFT
		// measurement itself is resolution-limited for the smallest τ (only
		// ~1.5 beat cycles fit the window), so allow a floor of 100 Hz; the
		// correlation check below validates those cases sample-by-sample.
		want := c.BeatFrequency(tau)
		tol := math.Max(0.02*want, 100)
		if math.Abs(measured-want) > tol {
			t.Errorf("tau=%g: passband beat %.1f Hz, dechirp model %.1f Hz", tau, measured, want)
		}

		// And the analytic beat phase −2π·f0·τ must match the passband
		// mixer's low-frequency component phase: compare the mixed signal
		// (beat) against the model cos(2π·S·τ·t − 2π f0 τ + π·S·τ²)… the
		// exact passband product term is cos(2π S τ t + 2π f0 τ − π S τ²).
		// Verify by correlating model and measurement.
		model := make([]float64, hi-lo)
		s := c.Slope()
		for i := range model {
			ts := float64(i+lo) / fsPass
			model[i] = 0.5 * math.Cos(2*math.Pi*s*tau*ts+2*math.Pi*c.FreqLow*tau-math.Pi*s*tau*tau)
		}
		// Normalized correlation between model and passband beat.
		var dot, ee, mm float64
		for i := range model {
			dot += model[i] * win[i]
			ee += win[i] * win[i]
			mm += model[i] * model[i]
		}
		corr := dot / math.Sqrt(ee*mm)
		if corr < 0.99 {
			t.Errorf("tau=%g: model/passband correlation %.4f, want > 0.99", tau, corr)
		}
	}
}

// TestPassbandAmplitudeConsistency checks that the beat amplitude out of a
// unit-amplitude passband mix is the model's 1/2 factor (cos·cos product),
// confirming the dechirp synthesizer's amplitude bookkeeping convention.
func TestPassbandAmplitudeConsistency(t *testing.T) {
	c := waveform.Chirp{Shape: waveform.Sawtooth, FreqLow: 1e6, FreqHigh: 2e6, Duration: 1e-3}
	fsPass := 20e6
	n := int(c.Duration * fsPass)
	tau := 10e-6
	mixed := make([]float64, n)
	for i := 0; i < n; i++ {
		ts := float64(i) / fsPass
		if ts < tau {
			continue
		}
		mixed[i] = math.Cos(c.Phase(ts)) * math.Cos(c.Phase(ts-tau))
	}
	lpf := dsp.LowPassFIR(301, 200e3, fsPass)
	beat := filterCompensated(lpf, mixed)
	win := beat[n/4 : 3*n/4]
	var power float64
	for _, v := range win {
		power += v * v
	}
	rms := math.Sqrt(power / float64(len(win)))
	// A 0.5-amplitude sinusoid has RMS 0.3536.
	if math.Abs(rms-0.3536) > 0.01 {
		t.Errorf("beat RMS = %.4f, want 0.354 (half-amplitude product term)", rms)
	}
	_ = rfsim.SpeedOfLight
}

// filterCompensated filters x and shifts the output left by the filter's
// group delay, so filtered features line up with the input timeline; the
// tail is zero-padded.
func filterCompensated(f *dsp.FIR, x []float64) []float64 {
	y := f.Filter(x)
	out := make([]float64, len(x))
	copy(out, y[min((len(f.Taps)-1)/2, len(y)):])
	return out
}
