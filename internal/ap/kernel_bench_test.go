package ap

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rfsim"
)

// The tone-kernel microbenchmarks compare one path's contribution to a
// localization-length frame (450 samples at 25 MHz) across the three forms
// the synthesizer uses: the reference per-sample-Sincos kernel with a
// constant amplitude, the same kernel with a per-sample amplitude callback
// (the oracle's per-sample target cost, dominated by FrequencyAt + Pow), and the
// phasor-recurrence kernels that replace them.

func benchToneSetup(b *testing.B) (a *AP, frame *ChirpFrame, tau, lambda float64) {
	b.Helper()
	a = MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	nSamp := c.SampleCount(a.Config().BeatSampleRateHz)
	frame = &ChirpFrame{}
	frame.Rx[0] = make([]complex128, nSamp)
	frame.Rx[1] = make([]complex128, nSamp)
	return a, frame, 2 * rfsim.PropagationDelay(3), rfsim.Wavelength((c.FreqLow + c.FreqHigh) / 2)
}

// BenchmarkAddBeatToneSincos is the reference kernel, constant amplitude —
// what every clutter path cost before the template rewrite.
func BenchmarkAddBeatToneSincos(b *testing.B) {
	a, frame, tau, lambda := benchToneSetup(b)
	c := a.Config().LocalizationChirp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.addBeatTone(frame, c, tau, 1e-6, 0.3, lambda, 0, nil)
	}
}

// BenchmarkAddBeatToneSincosAmpAt is the reference kernel with the
// per-sample amplitude callback a backscatter target installs: each sample
// evaluates the chirp's instantaneous frequency and a dB→linear Pow.
func BenchmarkAddBeatToneSincosAmpAt(b *testing.B) {
	a, frame, tau, lambda := benchToneSetup(b)
	c := a.Config().LocalizationChirp
	ampAt := func(t float64) float64 {
		return 1e-6 * math.Pow(10, -c.FrequencyAt(t)/28e9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.addBeatTone(frame, c, tau, 0, 0.3, lambda, 0, ampAt)
	}
}

// BenchmarkAddTonePairPhasor is the recurrence kernel with constant
// amplitude — the fast path's clutter-template and injected-path cost.
func BenchmarkAddTonePairPhasor(b *testing.B) {
	a, frame, tau, lambda := benchToneSetup(b)
	c := a.Config().LocalizationChirp
	fs := a.Config().BeatSampleRateHz
	rot := a.interAntennaRot(0.3, lambda, 0)
	phi0 := -2 * math.Pi * c.FreqLow * tau
	step := 2 * math.Pi * c.BeatFrequency(tau) / fs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.AddTonePair(frame.Rx[0], frame.Rx[1], rot, 1e-6, phi0, step)
	}
}

// BenchmarkAddToneEnvPairPhasor is the recurrence kernel with a
// precomputed gain envelope — the fast path's per-target cost.
func BenchmarkAddToneEnvPairPhasor(b *testing.B) {
	a, frame, tau, lambda := benchToneSetup(b)
	c := a.Config().LocalizationChirp
	fs := a.Config().BeatSampleRateHz
	rot := a.interAntennaRot(0.3, lambda, 0)
	phi0 := -2 * math.Pi * c.FreqLow * tau
	step := 2 * math.Pi * c.BeatFrequency(tau) / fs
	env := make([]float64, len(frame.Rx[0]))
	for i := range env {
		env[i] = 0.5 + 0.4*math.Sin(float64(i)/60)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.AddToneEnvPair(frame.Rx[0], frame.Rx[1], rot, env, 1e-6, phi0, step)
	}
}
