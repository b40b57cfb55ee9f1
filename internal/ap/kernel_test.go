package ap

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rfsim"
)

// statefulTarget is pointTarget with the switch states declared, so the
// kernels memoize its two gain curves.
func statefulTarget(pos rfsim.Point, gainDBi float64) *BackscatterTarget {
	tgt := pointTarget(pos, gainDBi)
	tgt.GainStates = 2
	tgt.GainStateOf = func(k int) int { return k & 1 }
	return tgt
}

// maxAbsDiff returns the largest per-sample magnitude difference between two
// frame sets and the largest magnitude in the reference set, for relative
// error bounds.
func maxAbsDiff(t *testing.T, got, want []ChirpFrame) (maxErr, maxRef float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frame count %d vs %d", len(got), len(want))
	}
	for k := range want {
		for m := 0; m < 2; m++ {
			if len(got[k].Rx[m]) != len(want[k].Rx[m]) {
				t.Fatalf("frame %d rx %d length %d vs %d", k, m, len(got[k].Rx[m]), len(want[k].Rx[m]))
			}
			for i := range want[k].Rx[m] {
				if a := cmplx.Abs(want[k].Rx[m][i]); a > maxRef {
					maxRef = a
				}
				if e := cmplx.Abs(got[k].Rx[m][i] - want[k].Rx[m][i]); e > maxErr {
					maxErr = e
				}
			}
		}
	}
	return maxErr, maxRef
}

// TestFastSynthMatchesReference is the kernel differential gate: the
// synthesis kernels must match the per-sample-Sincos synthesizeRef oracle
// within the 1e-9 relative drift bound of DESIGN.md §12, on a capture that
// exercises every kernel — clutter templates, a memoized switching target,
// an undeclared (per-chirp envelope) target with Doppler motion, and an
// injected modulated path — with the noise stream drawn identically on both
// sides.
func TestFastSynthMatchesReference(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	mover := pointTarget(rfsim.Point{X: 5, Y: -0.4}, 19)
	mover.RadialVelocityMS = 8
	tgts := []*BackscatterTarget{statefulTarget(rfsim.Point{X: 3, Y: 0.5}, 23), mover}
	extra := []ModulatedPath{{
		Pos:       rfsim.Point{X: 3.4, Y: 0.6},
		Amplitude: func(k int) float64 { return 2e-7 * float64(1+k%3) },
	}}
	for seed := int64(1); seed <= 3; seed++ {
		ff := synth(t)(a.SynthesizeChirpsMulti(c, 16, tgts, extra, rfsim.NewNoiseSource(seed)))
		rf := synth(t)(a.synthesizeChirpsRef(c, 16, tgts, extra, rfsim.NewNoiseSource(seed)))
		maxErr, maxRef := maxAbsDiff(t, ff, rf)
		if maxRef == 0 {
			t.Fatal("reference frames are all zero")
		}
		if rel := maxErr / maxRef; rel > 1e-9 {
			t.Fatalf("seed %d: kernels vs oracle relative error %.3g, want <= 1e-9", seed, rel)
		}
	}
}

// TestOracleSynthPipelineAgreement is the pipeline-level half of the
// synthesis differential: frames rendered by the production kernels and by
// the synthesizeRef oracle, from identically seeded noise, go through every
// consumer of the capture — localization, radial velocity, orientation
// envelope, multi-target detection — and must agree far inside the physics
// tolerances (scalars ≤1e-6, envelope ≤1e-9 of its RMS). A moving target
// keeps the Doppler paths carrying signal.
func TestOracleSynthPipelineAgreement(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	for seed := int64(1); seed <= 3; seed++ {
		tgt := statefulTarget(rfsim.Point{X: 3, Y: 0.5}, 25)
		tgt.RadialVelocityMS = 0.8
		tgts := []*BackscatterTarget{tgt}
		prod := synth(t)(a.SynthesizeChirpsMulti(c, 16, tgts, nil, rfsim.NewNoiseSource(seed)))
		ref := synth(t)(a.synthesizeChirpsRef(c, 16, tgts, nil, rfsim.NewNoiseSource(seed)))
		comparePipelines(t, fmt.Sprintf("seed %d kernels vs oracle", seed),
			runPipeline(t, a, prod), runPipeline(t, a, ref), 1e-6, 1e-9)
	}
}

// TestClutterTemplateMatchesUnsharedTones proves the template optimization
// is invisible: frames produced by rendering the clutter once and copying
// must be bit-identical to accumulating the same tones into each frame
// individually (the unshared form), for every chirp in the burst.
func TestClutterTemplateMatchesUnsharedTones(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	const nChirps = 6
	// No noise source: the imperfection draws are zero and the frames are
	// pure clutter, so the template is the only thing under test.
	frames := synth(t)(a.SynthesizeChirpsMulti(c, nChirps, nil, nil, nil))

	fs := a.Config().BeatSampleRateHz
	nSamp := c.SampleCount(fs)
	fc := (c.FreqLow + c.FreqHigh) / 2
	lambda := rfsim.Wavelength(fc)
	txAmp := math.Sqrt(a.Config().TxPowerW)
	loss := a.implementationLoss()
	want0 := make([]complex128, nSamp)
	want1 := make([]complex128, nSamp)
	for _, p := range a.clutterPaths(fc) {
		dsp.AddTonePair(want0, want1,
			a.interAntennaRot(p.AoARad, lambda, 0),
			p.Amplitude*txAmp*loss,
			-2*math.Pi*c.FreqLow*p.Delay,
			2*math.Pi*c.BeatFrequency(p.Delay)/fs)
	}
	for k, f := range frames {
		for i := range want0 {
			if f.Rx[0][i] != want0[i] || f.Rx[1][i] != want1[i] {
				t.Fatalf("chirp %d sample %d: template copy diverged from unshared tones: (%v, %v) vs (%v, %v)",
					k, i, f.Rx[0][i], f.Rx[1][i], want0[i], want1[i])
			}
		}
	}
}

// TestGainEnvelopeMemoBitIdentical checks that declaring switch states is a
// pure optimization: the same gain function synthesized with and without
// GainStates must produce bit-identical frames, because the memoized rows
// hold exactly the values the per-chirp fill would compute.
func TestGainEnvelopeMemoBitIdentical(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	memo := statefulTarget(rfsim.Point{X: 4, Y: 0.2}, 22)
	plain := pointTarget(rfsim.Point{X: 4, Y: 0.2}, 22)
	for seed := int64(1); seed <= 2; seed++ {
		fm := synth(t)(a.SynthesizeChirps(c, 8, memo, nil, rfsim.NewNoiseSource(seed)))
		fp := synth(t)(a.SynthesizeChirps(c, 8, plain, nil, rfsim.NewNoiseSource(seed)))
		for k := range fp {
			for m := 0; m < 2; m++ {
				for i := range fp[k].Rx[m] {
					if fm[k].Rx[m][i] != fp[k].Rx[m][i] {
						t.Fatalf("seed %d chirp %d rx %d sample %d: memoized %v != per-chirp %v",
							seed, k, m, i, fm[k].Rx[m][i], fp[k].Rx[m][i])
					}
				}
			}
		}
	}
}

// TestGainStateValidation pins the GainStates contract errors: a declared
// state count without a state function, and a state function that steps
// outside [0, GainStates), both fail up front with ErrInvalidConfig.
func TestGainStateValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	missing := pointTarget(rfsim.Point{X: 3}, 20)
	missing.GainStates = 2
	if _, err := a.SynthesizeChirps(c, 4, missing, nil, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("GainStates without GainStateOf: err = %v, want ErrInvalidConfig", err)
	}
	oob := statefulTarget(rfsim.Point{X: 3}, 20)
	oob.GainStateOf = func(k int) int { return k } // exceeds 2 states from chirp 2 on
	if _, err := a.SynthesizeChirps(c, 4, oob, nil, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("out-of-range GainStateOf: err = %v, want ErrInvalidConfig", err)
	}
}

// TestManyGainStatesFallsBack checks a target declaring more states than the
// memo bound still synthesizes, via the per-chirp envelope path, and matches
// the memoized rendering of an equivalent target bit for bit.
func TestManyGainStatesFallsBack(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	wide := pointTarget(rfsim.Point{X: 3.5, Y: -0.3}, 21)
	wide.GainStates = maxGainStates + 4 // parity gain, but over-declared states
	wide.GainStateOf = func(k int) int { return k % (maxGainStates + 4) }
	narrow := statefulTarget(rfsim.Point{X: 3.5, Y: -0.3}, 21)
	fw := synth(t)(a.SynthesizeChirps(c, 6, wide, nil, rfsim.NewNoiseSource(9)))
	fn := synth(t)(a.SynthesizeChirps(c, 6, narrow, nil, rfsim.NewNoiseSource(9)))
	maxErr, maxRef := maxAbsDiff(t, fw, fn)
	if maxErr != 0 {
		t.Fatalf("over-declared states diverged from memoized rendering: max err %.3g (ref %.3g)", maxErr, maxRef)
	}
}
