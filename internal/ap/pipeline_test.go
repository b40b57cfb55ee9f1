package ap

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/rfsim"
)

// captureBoth runs the same synthesis once with the parallel fan-out forced
// serial (GOMAXPROCS=1) and once with all cores, using identically-seeded
// noise sources. Four targets — one with a frequency-dependent gain, one
// moving — make the per-target envelope fan-out run as well as the
// per-chirp one.
func captureBoth(t *testing.T, a *AP, nChirps int, seed int64) (serial, par []ChirpFrame) {
	t.Helper()
	c := a.Config().LocalizationChirp
	mk := func() []ChirpFrame {
		sloped := funcTarget(rfsim.Point{X: 2.4, Y: 0.6}, func(s int, f float64) float64 {
			return 20 - 20*float64(1-s) + (f-26.5e9)/1e9
		})
		tgts := []*BackscatterTarget{
			movingTarget(3, 12),
			pointTarget(rfsim.Point{X: 5.5, Y: 1}, 22),
			sloped,
			pointTarget(rfsim.Point{X: 4.2, Y: -0.8}, 18),
		}
		mirror := []ModulatedPath{{
			Pos: rfsim.Point{X: 3.2},
			Amplitude: func(k int) float64 {
				if k%2 == 1 {
					return 2e-7
				}
				return 1e-7
			},
		}}
		return synth(t)(a.SynthesizeChirps(c, nChirps, tgts, GridTable{}, mirror, rfsim.NewNoiseSource(seed)))
	}
	old := runtime.GOMAXPROCS(1)
	serial = mk()
	// Force a real fan-out even on single-core machines: GOMAXPROCS above
	// the CPU count still runs the worker goroutines (timeshared), so the
	// concurrent path is exercised and race-checked everywhere.
	runtime.GOMAXPROCS(4)
	par = mk()
	runtime.GOMAXPROCS(old)
	return serial, par
}

func TestParallelSynthesisBitIdenticalToSerial(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	serial, par := captureBoth(t, a, 16, 4242)
	if len(serial) != len(par) {
		t.Fatalf("frame counts differ: %d vs %d", len(serial), len(par))
	}
	for k := range serial {
		for m := 0; m < 2; m++ {
			for i := range serial[k].Rx[m] {
				if serial[k].Rx[m][i] != par[k].Rx[m][i] {
					t.Fatalf("chirp %d antenna %d sample %d: serial %v != parallel %v",
						k, m, i, serial[k].Rx[m][i], par[k].Rx[m][i])
				}
			}
		}
	}
}

// TestKeyedNoiseDeterminism pins the keyed noise streams: each chirp and
// antenna draws from the stream keyed by its own index, so a capture
// renders bit-identical frames whether the draws run serially or spread
// over four workers — at 5 chirps (the localization burst, which keeps
// its chirp classes on the stack) and at 32 (past that buffer). Copy
// chirps, whose pre-noise frames equal their representative's, still get
// noise of their own.
func TestKeyedNoiseDeterminism(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	for _, nChirps := range []int{5, 32} {
		serial, par := captureBoth(t, a, nChirps, 31)
		if !slices.EqualFunc(serial, par, sameFrames) {
			t.Errorf("%d chirps: frames differ between GOMAXPROCS 1 and 4", nChirps)
		}
	}

	c := a.Config().LocalizationChirp
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var byProcs [][]ChirpFrame
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		static := []*BackscatterTarget{pointTarget(rfsim.Point{X: 3, Y: 0.4}, 20)}
		byProcs = append(byProcs, synth(t)(a.SynthesizeChirps(c, 5, static, GridTable{}, nil, rfsim.NewNoiseSource(31))))
	}
	if !slices.EqualFunc(byProcs[0], byProcs[1], sameFrames) {
		t.Error("static capture: frames differ between GOMAXPROCS 1 and 4")
	}
	f := byProcs[0]
	if slices.Equal(f[0].Rx[0], f[2].Rx[0]) || slices.Equal(f[1].Rx[1], f[3].Rx[1]) {
		t.Error("a copy chirp carries its representative's noise")
	}
}

func TestParallelProcessLocalizationBitIdentical(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	serial, par := captureBoth(t, a, 16, 77)
	c := a.Config().LocalizationChirp

	old := runtime.GOMAXPROCS(1)
	locSerial, errSerial := a.ProcessLocalization(c, serial)
	runtime.GOMAXPROCS(4)
	locPar, errPar := a.ProcessLocalization(c, par)
	runtime.GOMAXPROCS(old)
	if (errSerial == nil) != (errPar == nil) {
		t.Fatalf("error mismatch: serial %v, parallel %v", errSerial, errPar)
	}
	if errSerial != nil {
		t.Skipf("localization failed identically: %v", errSerial)
	}
	if locSerial != locPar {
		t.Fatalf("localization results differ:\nserial   %+v\nparallel %+v", locSerial, locPar)
	}
}

func TestSubtractedSpectraRejectsOverlongFrames(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	nfft := a.Config().FFTSize
	frames := make([]ChirpFrame, 3)
	for k := range frames {
		for m := 0; m < 2; m++ {
			frames[k].Rx[m] = make([]complex128, nfft+1)
		}
	}
	if _, err := a.subtractedSpectra(frames); err == nil {
		t.Fatal("frames longer than the FFT must be rejected, not silently truncated")
	} else if !strings.Contains(err.Error(), "FFT size") {
		t.Fatalf("error should name the FFT size, got: %v", err)
	}
	// The public pipeline surfaces the same error.
	if _, err := a.ProcessLocalization(a.Config().LocalizationChirp, frames); err == nil {
		t.Fatal("ProcessLocalization accepted overlong frames")
	}
	// Exactly nfft samples is legal (no padding headroom, but no data loss).
	for k := range frames {
		for m := 0; m < 2; m++ {
			frames[k].Rx[m] = make([]complex128, nfft)
			frames[k].Rx[m][1] = complex(float64(k+1), 0)
		}
	}
	if _, err := a.subtractedSpectra(frames); err != nil {
		t.Fatalf("frames of exactly FFT size should pass: %v", err)
	}
}

func TestDopplerAmplitudeFollowsAdvancedRange(t *testing.T) {
	// A receding target's late chirps must be weaker than its first one, in
	// the exact 1/d² (amplitude) proportion of the advanced distance — the
	// seed computed path loss from the initial distance, overstating
	// late-chirp SNR for long bursts against fast targets.
	a := MustNew(DefaultConfig(), nil)
	c := a.Config().LocalizationChirp
	const d0, vel = 3.0, 50.0
	nChirps := 64
	tgt := ConstantGainTarget(rfsim.Point{X: d0}, 25)
	tgt.RadialVelocityMS = vel
	frames := synth(t)(a.SynthesizeChirps(c, nChirps, []*BackscatterTarget{tgt}, GridTable{}, nil, nil))
	rms := func(x []complex128) float64 {
		var p float64
		for _, v := range x {
			re, im := real(v), imag(v)
			p += re*re + im*im
		}
		return math.Sqrt(p / float64(len(x)))
	}
	first := rms(frames[0].Rx[0])
	last := rms(frames[nChirps-1].Rx[0])
	dLast := d0 + vel*float64(nChirps-1)*a.Config().ChirpIntervalS
	wantRatio := (d0 / dLast) * (d0 / dLast)
	if gotRatio := last / first; math.Abs(gotRatio-wantRatio) > 1e-3 {
		t.Fatalf("late-chirp amplitude ratio = %.6f, want %.6f (Doppler-advanced 1/d²)", gotRatio, wantRatio)
	}
	if last >= first {
		t.Fatal("receding target's late chirps should be weaker than its first")
	}
}
