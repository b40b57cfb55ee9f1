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
// exercises every kernel — clutter templates, a static switching target, a
// switching target with Doppler motion, and an injected modulated path —
// with the noise stream drawn identically on both sides.
func TestFastSynthMatchesReference(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	mover := pointTarget(rfsim.Point{X: 5, Y: -0.4}, 19)
	mover.RadialVelocityMS = 8
	tgts := []*BackscatterTarget{pointTarget(rfsim.Point{X: 3, Y: 0.5}, 23), mover}
	extra := []ModulatedPath{{
		Pos:       rfsim.Point{X: 3.4, Y: 0.6},
		Amplitude: func(k int) float64 { return 2e-7 * float64(1+k%3) },
	}}
	for seed := int64(1); seed <= 3; seed++ {
		ff := synth(t)(a.SynthesizeChirps(0, c, 16, tgts, GridTable{}, extra, rfsim.NewNoiseSource(seed)))
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
		tgt := pointTarget(rfsim.Point{X: 3, Y: 0.5}, 25)
		tgt.RadialVelocityMS = 0.8
		tgts := []*BackscatterTarget{tgt}
		prod := synth(t)(a.SynthesizeChirps(0, c, 16, tgts, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
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
	frames := synth(t)(a.SynthesizeChirps(0, c, nChirps, nil, GridTable{}, nil, nil))

	fs := a.Config().BeatSampleRateHz
	nSamp := c.SampleCount(fs)
	fc := (c.FreqLow + c.FreqHigh) / 2
	lambda := rfsim.Wavelength(fc)
	txAmp := math.Sqrt(a.Config().TxPowerW)
	loss := a.implementationLoss()
	want0 := make([]complex128, nSamp)
	want1 := make([]complex128, nSamp)
	for _, p := range a.clutterPaths(0, fc) {
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

// TestGainStateValidation pins the target contract errors: no switch
// states, a missing state function, a missing gain fill, and a state
// function that steps outside [0, GainStates) each fail up front with
// ErrInvalidConfig, even behind a valid target.
func TestGainStateValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	for _, tc := range []struct {
		name   string
		mutate func(*BackscatterTarget)
	}{
		{"zero GainStates", func(tgt *BackscatterTarget) { tgt.GainStates = 0 }},
		{"negative GainStates", func(tgt *BackscatterTarget) { tgt.GainStates = -1 }},
		{"nil GainStateOf", func(tgt *BackscatterTarget) { tgt.GainStateOf = nil }},
		{"nil Gain", func(tgt *BackscatterTarget) { tgt.Gain = nil }},
		// Exceeds the two states from chirp 2 on.
		{"out-of-range GainStateOf", func(tgt *BackscatterTarget) { tgt.GainStateOf = func(k int) int { return k } }},
		{"negative GainStateOf", func(tgt *BackscatterTarget) { tgt.GainStateOf = func(k int) int { return -k } }},
	} {
		tgt := pointTarget(rfsim.Point{X: 3}, 20)
		tc.mutate(tgt)
		tgts := []*BackscatterTarget{pointTarget(rfsim.Point{X: 4}, 20), tgt}
		if _, err := a.SynthesizeChirps(0, c, 4, tgts, GridTable{}, nil, nil); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

// TestGainEnvelopeMemoBitIdentical checks that sharing switch states is a
// pure optimization: a frequency-dependent gain whose chirps share two
// parity states renders frames bit-identical to the same gain declared with
// one state per chirp, because each shared row holds exactly the values the
// chirp's own row would.
func TestGainEnvelopeMemoBitIdentical(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	const nChirps = 8
	pos := rfsim.Point{X: 4, Y: 0.2}
	g := func(s int, f float64) float64 { return 2 + 20*float64(s) + 3*(f-26.5e9)/3e9 }
	shared := funcTarget(pos, g)
	perChirp := &BackscatterTarget{
		Pos:         pos,
		GainStates:  nChirps,
		GainStateOf: func(k int) int { return k },
		Gain:        gainFunc(func(s int, f float64) float64 { return g(s&1, f) }),
	}
	for seed := int64(1); seed <= 2; seed++ {
		fs := synth(t)(a.SynthesizeChirps(0, c, nChirps, []*BackscatterTarget{shared}, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
		fp := synth(t)(a.SynthesizeChirps(0, c, nChirps, []*BackscatterTarget{perChirp}, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
		for k := range fp {
			if !sameFrames(fs[k], fp[k]) {
				t.Fatalf("seed %d chirp %d: shared-state rendering diverged from one state per chirp", seed, k)
			}
		}
	}
}

// TestManyGainStatesFallsBack checks that the state count is free: a
// target cycling through 12 states (more than any real node declares)
// takes the same per-state fill as every other target, and since its
// gains repeat the §5.1 toggle it renders frames bit-identical to its
// two-state parity twin.
func TestManyGainStatesFallsBack(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	pos := rfsim.Point{X: 3.5, Y: -0.3}
	var gains []float64
	for s := 0; s < 12; s++ {
		gains = append(gains, 1+20*float64(s%2))
	}
	wide := ConstantGainTarget(pos, gains...)
	twin := pointTarget(pos, 21)
	for seed := int64(1); seed <= 2; seed++ {
		// 16 chirps wrap the 12-state cycle.
		fw := synth(t)(a.SynthesizeChirps(0, c, 16, []*BackscatterTarget{wide}, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
		fn := synth(t)(a.SynthesizeChirps(0, c, 16, []*BackscatterTarget{twin}, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
		for k := range fn {
			if !sameFrames(fw[k], fn[k]) {
				t.Fatalf("seed %d chirp %d: 12-state target diverged from its parity twin", seed, k)
			}
		}
	}
}

// slopeTable is a test GridTable payload: one value per grid sample, a
// frequency-dependent gain shared by every target of a capture.
func slopeTable(freq, dst []float64) {
	for i, f := range freq {
		dst[i] = 1 + (f-26.5e9)/3e9
	}
}

// tableTarget is a two-state target whose fill scales the slope by a
// per-state gain, reading the capture's table when the request carries one
// and building its own otherwise.
type tableTarget struct {
	BackscatterTarget
	lin [2]float64
	// noTable counts fills that were handed no table.
	noTable atomic.Int32
}

func (t *tableTarget) FillEnvs(freq, table []float64, nStates int, env []float64) {
	if table == nil {
		t.noTable.Add(1)
		table = make([]float64, len(freq))
		slopeTable(freq, table)
	}
	n := len(freq)
	for s := 0; s < nStates; s++ {
		for i, v := range table[:n] {
			env[s*n+i] = v * t.lin[s]
		}
	}
}

func (t *tableTarget) gainDBi(s int, f float64) float64 {
	return 10 * math.Log10((1+(f-26.5e9)/3e9)*t.lin[s])
}

func newTableTarget(pos rfsim.Point, gainDBi float64) *tableTarget {
	t := &tableTarget{lin: [2]float64{math.Pow(10, (gainDBi-20)/10), math.Pow(10, gainDBi/10)}}
	t.Pos = pos
	t.GainStates = 2
	t.GainStateOf = parity
	t.Gain = t
	return t
}

// TestGridTableSharedAcrossTargets pins the request-wide table seam: a
// multi-target capture fills its GridTable exactly once, whether the
// per-target fills run serially or fanned out, and hands it to every
// target's fill; a request without a table hands each fill a nil table,
// and the two render bit-identical frames when the targets build the same
// table themselves. A table whose width is not positive is an invalid
// configuration.
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
	noTable := func() (n int32) {
		for _, v := range views {
			n += v.noTable.Swap(0)
		}
		return n
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		fills.Store(0)
		withTable := synth(t)(a.SynthesizeChirps(0, c, 6, tgts, table, nil, rfsim.NewNoiseSource(5)))
		if got := fills.Load(); got != 1 {
			t.Errorf("GOMAXPROCS=%d: table filled %d times per capture, want 1", procs, got)
		}
		if got := noTable(); got != 0 {
			t.Errorf("GOMAXPROCS=%d: %d fills got no table from a request that carries one", procs, got)
		}
		plain := synth(t)(a.SynthesizeChirps(0, c, 6, tgts, GridTable{}, nil, rfsim.NewNoiseSource(5)))
		if got := noTable(); got != int32(len(tgts)) {
			t.Errorf("GOMAXPROCS=%d: %d fills got a nil table without one in the request, want %d",
				procs, got, len(tgts))
		}
		if maxErr, maxRef := maxAbsDiff(t, withTable, plain); maxErr != 0 {
			t.Fatalf("GOMAXPROCS=%d: table-fed capture diverged from the self-built table: max err %.3g (ref %.3g)",
				procs, maxErr, maxRef)
		}
	}
	bad := GridTable{Width: 0, Fill: slopeTable}
	if _, err := a.SynthesizeChirps(0, c, 4, tgts, bad, nil, nil); !errors.Is(err, ErrInvalidConfig) {
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
	tgts := []*BackscatterTarget{pointTarget(rfsim.Point{X: 3, Y: 0.5}, 23)}
	extra := []ModulatedPath{{
		Pos:       rfsim.Point{X: 3.1, Y: 0.52},
		Amplitude: func(k int) float64 { return 2e-7 * float64(1+k%2) },
	}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		frames := synth(t)(a.SynthesizeChirps(0, c, 5, tgts, GridTable{}, extra, nil))
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
// target, a target with one switch state (and gain) per chirp, and an extra
// path whose amplitude changes every chirp each make every chirp
// distinct, so no two frames may be equal, and each capture must still
// match the oracle.
func TestDistinctChirpsNotShared(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	const nChirps = 5
	mover := pointTarget(rfsim.Point{X: 4, Y: -0.3}, 22)
	mover.RadialVelocityMS = 6
	// Chirp k in state k: the gain varies freely per chirp.
	free := ConstantGainTarget(rfsim.Point{X: 3.5, Y: 0.4}, 15, 16, 17, 18, 19)
	ramp := []ModulatedPath{{
		Pos:       rfsim.Point{X: 3.2, Y: 0.5},
		Amplitude: func(k int) float64 { return 1e-7 * float64(1+k) },
	}}
	static := pointTarget(rfsim.Point{X: 3, Y: 0.5}, 23)
	for _, tc := range []struct {
		name  string
		tgts  []*BackscatterTarget
		extra []ModulatedPath
	}{
		{"moving target", []*BackscatterTarget{static, mover}, nil},
		{"state per chirp", []*BackscatterTarget{static, free}, nil},
		{"per-chirp extra path", []*BackscatterTarget{static}, ramp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames := synth(t)(a.SynthesizeChirps(0, a.Config().LocalizationChirp, nChirps, tc.tgts, GridTable{}, tc.extra, nil))
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

// scribbleGain is a constant gain whose fill first overwrites every
// element its rows can reach with NaN, and counts fills handed anything but
// exactly their own rows.
type scribbleGain struct {
	constantGains
	badRows *atomic.Int32
}

func (g scribbleGain) FillEnvs(freq, table []float64, nStates int, env []float64) {
	if len(env) != nStates*len(freq) || cap(env) != len(env) {
		g.badRows.Add(1)
	}
	env = env[:cap(env)]
	for i := range env {
		env[i] = math.NaN()
	}
	g.constantGains.FillEnvs(freq, table, nStates, env)
}

// TestGainEnvelopeArenaIsolatesTargets pins the per-capture envelope arena:
// every target's rows come from one pooled checkout, and each target's fill
// sees exactly its own rows (cap == len), so a fill that scribbles over its
// whole slice before writing its envelopes cannot corrupt a neighbour's.
// The capture must match the oracle at any worker count.
func TestGainEnvelopeArenaIsolatesTargets(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	var badRows atomic.Int32
	scribbler := func(pos rfsim.Point, gainDBi float64) *BackscatterTarget {
		tgt := pointTarget(pos, gainDBi)
		tgt.Gain = scribbleGain{tgt.Gain.(constantGains), &badRows}
		return tgt
	}
	tgts := []*BackscatterTarget{
		scribbler(rfsim.Point{X: 2.6, Y: 0.3}, 21),
		pointTarget(rfsim.Point{X: 3.3, Y: -0.5}, 19),
		ConstantGainTarget(rfsim.Point{X: 4.2, Y: 0.8}, 4, 24, 14),
		scribbler(rfsim.Point{X: 5.1, Y: -0.2}, 22),
		pointTarget(rfsim.Point{X: 5.8, Y: 0.6}, 20),
		scribbler(rfsim.Point{X: 6.4, Y: 0.1}, 23),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		frames := synth(t)(a.SynthesizeChirps(0, c, 4, tgts, GridTable{}, nil, nil))
		if n := badRows.Swap(0); n != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d fills saw rows other than their own", procs, n)
		}
		matchOracle(t, a, frames, 4, tgts, nil)
	}
}
