package ap

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync/atomic"
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
		ff := synth(t)(a.SynthesizeChirpsMulti(c, 16, tgts, GridTable{}, extra, rfsim.NewNoiseSource(seed)))
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
		prod := synth(t)(a.SynthesizeChirpsMulti(c, 16, tgts, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
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
	frames := synth(t)(a.SynthesizeChirpsMulti(c, nChirps, nil, GridTable{}, nil, nil))

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

// slopeTable is a test GridTable payload: one value per grid sample, a
// frequency-dependent gain shared by every target of a capture.
func slopeTable(freq, dst []float64) {
	for i, f := range freq {
		dst[i] = 1 + (f-26.5e9)/3e9
	}
}

// tableTarget is a two-state target whose bulk fills scale the shared
// slope by a per-state gain, through either seam.
type tableTarget struct {
	BackscatterTarget
	lin [2]float64
	// gainEnvCalls counts fills that bypassed the table.
	gainEnvCalls atomic.Int32
}

func (t *tableTarget) FillEnvs(table []float64, nStates int, env []float64) {
	n := len(table)
	for s := 0; s < nStates; s++ {
		for i, v := range table {
			env[s*n+i] = v * t.lin[s]
		}
	}
}

func newTableTarget(pos rfsim.Point, gainDBi float64) *tableTarget {
	t := &tableTarget{lin: [2]float64{math.Pow(10, (gainDBi-20)/10), math.Pow(10, gainDBi/10)}}
	t.Pos = pos
	t.GainStates = 2
	t.GainStateOf = func(k int) int { return k & 1 }
	t.GainDBi = func(k int, f float64) float64 {
		return 10 * math.Log10((1+(f-26.5e9)/3e9)*t.lin[k&1])
	}
	t.GainEnvs = func(freq []float64, nStates int, env []float64) {
		t.gainEnvCalls.Add(1)
		own := make([]float64, len(freq))
		slopeTable(freq, own)
		t.FillEnvs(own, nStates, env)
	}
	t.TableEnvs = t
	return t
}

// TestGridTableSharedAcrossTargets pins the request-wide table seam: a
// multi-target capture fills its GridTable exactly once, whether the
// per-target fills run serially or fanned out, hands it to every target's
// TableEnvs, and renders frames bit-identical to the same targets filling
// through GainEnvs with no table. A table whose width is not positive is
// an invalid configuration.
func TestGridTableSharedAcrossTargets(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	var fills atomic.Int32
	table := GridTable{Width: 1, Fill: func(freq, dst []float64) {
		fills.Add(1)
		slopeTable(freq, dst)
	}}
	views := []*tableTarget{
		newTableTarget(rfsim.Point{X: 2.5, Y: 0.4}, 21),
		newTableTarget(rfsim.Point{X: 4.1, Y: -0.7}, 19),
		newTableTarget(rfsim.Point{X: 5.6, Y: 1.1}, 23),
	}
	var tgts []*BackscatterTarget
	for _, v := range views {
		tgts = append(tgts, &v.BackscatterTarget)
	}
	gainEnvCalls := func() (n int32) {
		for _, v := range views {
			n += v.gainEnvCalls.Swap(0)
		}
		return n
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		fills.Store(0)
		withTable := synth(t)(a.SynthesizeChirpsMulti(c, 6, tgts, table, nil, rfsim.NewNoiseSource(5)))
		if got := fills.Load(); got != 1 {
			t.Errorf("GOMAXPROCS=%d: table filled %d times per capture, want 1", procs, got)
		}
		if got := gainEnvCalls(); got != 0 {
			t.Errorf("GOMAXPROCS=%d: %d targets bypassed the table", procs, got)
		}
		plain := synth(t)(a.SynthesizeChirpsMulti(c, 6, tgts, GridTable{}, nil, rfsim.NewNoiseSource(5)))
		if got := gainEnvCalls(); got != int32(len(tgts)) {
			t.Errorf("GOMAXPROCS=%d: %d GainEnvs fills without a table, want %d", procs, got, len(tgts))
		}
		if maxErr, maxRef := maxAbsDiff(t, withTable, plain); maxErr != 0 {
			t.Fatalf("GOMAXPROCS=%d: table-fed capture diverged from GainEnvs: max err %.3g (ref %.3g)",
				procs, maxErr, maxRef)
		}
	}
	bad := GridTable{Width: 0, Fill: slopeTable}
	if _, err := a.SynthesizeChirpsMulti(c, 4, tgts, bad, nil, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("zero-width table: err = %v, want ErrInvalidConfig", err)
	}
}

// sameFrames reports whether two frames are bitwise equal on both antennas.
func sameFrames(x, y ChirpFrame) bool {
	for m := 0; m < 2; m++ {
		if len(x.Rx[m]) != len(y.Rx[m]) {
			return false
		}
		for i := range x.Rx[m] {
			if math.Float64bits(real(x.Rx[m][i])) != math.Float64bits(real(y.Rx[m][i])) ||
				math.Float64bits(imag(x.Rx[m][i])) != math.Float64bits(imag(y.Rx[m][i])) {
				return false
			}
		}
	}
	return true
}

// matchOracle fails the test unless frames match the synthesizeRef oracle
// for the same request within the 1e-9 relative drift bound.
func matchOracle(t *testing.T, a *AP, frames []ChirpFrame, nChirps int, tgts []*BackscatterTarget, extra []ModulatedPath) {
	t.Helper()
	ref := synth(t)(a.synthesizeChirpsRef(a.Config().LocalizationChirp, nChirps, tgts, extra, nil))
	maxErr, maxRef := maxAbsDiff(t, frames, ref)
	if maxRef == 0 {
		t.Fatal("reference frames are all zero")
	}
	if rel := maxErr / maxRef; rel > 1e-9 {
		t.Fatalf("kernels vs oracle relative error %.3g, want <= 1e-9", rel)
	}
}

// TestStaticChirpsShareFrames pins the distinct-chirp rule on the capture it
// exists for: a static two-state target plus a mirror path whose amplitude
// follows the same toggle. Chirps 0/2/4 and 1/3 see identical inputs, so
// their pre-noise frames must be bitwise equal (rendered once, copied), the
// two classes must differ, and the result must match the oracle.
func TestStaticChirpsShareFrames(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgts := []*BackscatterTarget{statefulTarget(rfsim.Point{X: 3, Y: 0.5}, 23)}
	extra := []ModulatedPath{{
		Pos:       rfsim.Point{X: 3.1, Y: 0.52},
		Amplitude: func(k int) float64 { return 2e-7 * float64(1+k%2) },
	}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		frames := synth(t)(a.SynthesizeChirpsMulti(c, 5, tgts, GridTable{}, extra, nil))
		for _, pair := range [][2]int{{0, 2}, {0, 4}, {1, 3}} {
			if !sameFrames(frames[pair[0]], frames[pair[1]]) {
				t.Errorf("GOMAXPROCS=%d: chirps %d and %d share every input but their frames differ",
					procs, pair[0], pair[1])
			}
		}
		if sameFrames(frames[0], frames[1]) {
			t.Errorf("GOMAXPROCS=%d: chirps 0 and 1 are in different switch states but rendered equal", procs)
		}
		matchOracle(t, a, frames, 5, tgts, extra)
	}
}

// TestDistinctChirpsNotShared pins the other side of the rule: a moving
// target, a target whose gain varies per chirp without declared states, and
// an extra path whose amplitude changes every chirp each make every chirp
// distinct, so no two frames may be equal, and each capture must still
// match the oracle.
func TestDistinctChirpsNotShared(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	const nChirps = 5
	mover := statefulTarget(rfsim.Point{X: 4, Y: -0.3}, 22)
	mover.RadialVelocityMS = 6
	// A state function without declared states does not make the target
	// memoized: its gain may still vary per chirp, as this one's does.
	free := &BackscatterTarget{
		Pos:         rfsim.Point{X: 3.5, Y: 0.4},
		GainDBi:     func(k int, f float64) float64 { return 15 + float64(k) },
		GainStateOf: func(k int) int { return k & 1 },
	}
	ramp := []ModulatedPath{{
		Pos:       rfsim.Point{X: 3.2, Y: 0.5},
		Amplitude: func(k int) float64 { return 1e-7 * float64(1+k) },
	}}
	static := statefulTarget(rfsim.Point{X: 3, Y: 0.5}, 23)
	for _, tc := range []struct {
		name  string
		tgts  []*BackscatterTarget
		extra []ModulatedPath
	}{
		{"moving target", []*BackscatterTarget{static, mover}, nil},
		{"undeclared states", []*BackscatterTarget{static, free}, nil},
		{"per-chirp extra path", []*BackscatterTarget{static}, ramp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames := synth(t)(a.SynthesizeChirpsMulti(a.Config().LocalizationChirp, nChirps, tc.tgts, GridTable{}, tc.extra, nil))
			for j := 0; j < nChirps; j++ {
				for k := j + 1; k < nChirps; k++ {
					if sameFrames(frames[j], frames[k]) {
						t.Errorf("chirps %d and %d differ in their inputs but rendered equal", j, k)
					}
				}
			}
			matchOracle(t, a, frames, nChirps, tc.tgts, tc.extra)
		})
	}
}

// TestGainEnvelopeArenaIsolatesTargets pins the per-capture envelope arena:
// memoizing targets share one pooled checkout, non-memoizing ones take none,
// and each memoizing target's GainEnvs sees exactly its own rows
// (cap == len), so a fill that scribbles over its whole slice before writing
// its envelopes cannot corrupt a neighbour's. The capture must match the
// oracle at any worker count.
func TestGainEnvelopeArenaIsolatesTargets(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	var badRows atomic.Int32
	scribbler := func(pos rfsim.Point, gainDBi float64) *BackscatterTarget {
		tgt := statefulTarget(pos, gainDBi)
		tgt.GainEnvs = func(freq []float64, nStates int, env []float64) {
			if len(env) != nStates*len(freq) || cap(env) != len(env) {
				badRows.Add(1)
			}
			env = env[:cap(env)]
			for i := range env {
				env[i] = math.NaN()
			}
			for s := 0; s < nStates; s++ {
				for i, f := range freq {
					env[s*len(freq)+i] = math.Pow(10, tgt.GainDBi(s, f)/10)
				}
			}
		}
		return tgt
	}
	tgts := []*BackscatterTarget{
		scribbler(rfsim.Point{X: 2.6, Y: 0.3}, 21),
		pointTarget(rfsim.Point{X: 3.3, Y: -0.5}, 19),
		statefulTarget(rfsim.Point{X: 4.2, Y: 0.8}, 24),
		scribbler(rfsim.Point{X: 5.1, Y: -0.2}, 22),
		pointTarget(rfsim.Point{X: 5.8, Y: 0.6}, 20),
		scribbler(rfsim.Point{X: 6.4, Y: 0.1}, 23),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		frames := synth(t)(a.SynthesizeChirpsMulti(c, 4, tgts, GridTable{}, nil, nil))
		if n := badRows.Swap(0); n != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d fills saw rows other than their own", procs, n)
		}
		matchOracle(t, a, frames, 4, tgts, nil)
	}
}
