package ap

import (
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rfsim"
)

// TestBatchFFTDifferentialPerBin pins the production background
// subtraction — fused windowed differences through one batched transform —
// against the refSpectra oracle (window and FFT every chirp, then difference
// the spectra) at ≤1e-9 per bin, relative to the capture's RMS spectrum
// magnitude, across seeds. By linearity of the DFT the two differ only by
// floating-point association, so the observed drift is ~1e-15.
func TestBatchFFTDifferentialPerBin(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	for seed := int64(1); seed <= 3; seed++ {
		tgt := pointTarget(rfsim.Point{X: 3, Y: 0.5}, 25)
		frames := synth(t)(a.SynthesizeChirps(c, 8, tgt, nil, rfsim.NewNoiseSource(seed)))

		batched, err := a.subtractedSpectra(frames)
		if err != nil {
			t.Fatalf("seed %d batched: %v", seed, err)
		}
		ref := a.refSpectra(frames, true, len(frames[0].Rx[0]), a.Config().FFTSize)
		if len(batched) != len(ref) {
			t.Fatalf("seed %d: %d batched diffs vs %d oracle", seed, len(batched), len(ref))
		}
		var scale float64
		nBin := 0
		for k := range ref {
			for m := 0; m < 2; m++ {
				for _, v := range ref[k][m] {
					re, im := real(v), imag(v)
					scale += re*re + im*im
					nBin++
				}
			}
		}
		scale = math.Sqrt(scale / float64(nBin))
		worst := 0.0
		for k := range ref {
			for m := 0; m < 2; m++ {
				for i := range ref[k][m] {
					if d := cmplx.Abs(batched[k][m][i] - ref[k][m][i]); d > worst {
						worst = d
					}
				}
			}
		}
		if worst/scale > 1e-9 {
			t.Errorf("seed %d: max per-bin deviation %g (rms %g) exceeds 1e-9 relative",
				seed, worst, scale)
		}
		a.releaseDiffs(batched)
		a.releaseDiffs(ref)
	}
}

// pipelineOutputs runs every subtracted-spectra consumer over one capture
// and collects their scalar outputs plus the orientation envelope and
// range-Doppler power map, the quantities the batch differentials compare.
type pipelineOutputs struct {
	loc     LocalizationResult
	vel     float64
	prof    OrientationProfile
	rd      RangeDopplerMap
	targets []LocalizationResult
}

func runPipeline(t *testing.T, a *AP, frames []ChirpFrame) pipelineOutputs {
	t.Helper()
	c := a.Config().LocalizationChirp
	var out pipelineOutputs
	var err error
	if out.loc, err = a.ProcessLocalization(c, frames); err != nil {
		t.Fatalf("localize: %v", err)
	}
	if out.vel, err = a.EstimateRadialVelocity(c, frames, out.loc.PeakIndex()); err != nil {
		t.Fatalf("velocity: %v", err)
	}
	if out.prof, err = a.EstimateOrientationProfile(c, frames, out.loc.PeakIndex(), 40); err != nil {
		t.Fatalf("orientation: %v", err)
	}
	if out.rd, err = a.ComputeRangeDopplerMap(c, frames); err != nil {
		t.Fatalf("range-doppler: %v", err)
	}
	if out.targets, err = a.DetectTargets(c, frames, 3); err != nil {
		t.Fatalf("detect: %v", err)
	}
	return out
}

// comparePipelines checks two pipeline runs over the same frames agree:
// scalars within absTol (0 demands bit-identity), envelope and map within
// relTol of their own RMS.
func comparePipelines(t *testing.T, label string, got, want pipelineOutputs, absTol, relTol float64) {
	t.Helper()
	scalar := func(name string, g, w float64) {
		// absTol is relative for large quantities (peak frequencies are
		// tens of GHz) and absolute below unit magnitude; 0 demands
		// bit-identity either way.
		if d := math.Abs(g - w); d > absTol*math.Max(1, math.Abs(w)) {
			t.Errorf("%s: %s differs by %g (got %g, want %g)", label, name, d, g, w)
		}
	}
	scalar("range", got.loc.RangeM, want.loc.RangeM)
	scalar("azimuth", got.loc.AzimuthRad, want.loc.AzimuthRad)
	scalar("peak bin", got.loc.PeakBin, want.loc.PeakBin)
	scalar("velocity", got.vel, want.vel)
	scalar("orientation peak", got.prof.PeakFreqHz, want.prof.PeakFreqHz)
	if len(got.targets) != len(want.targets) {
		t.Fatalf("%s: %d targets vs %d", label, len(got.targets), len(want.targets))
	}
	for i := range want.targets {
		scalar("target range", got.targets[i].RangeM, want.targets[i].RangeM)
		scalar("target azimuth", got.targets[i].AzimuthRad, want.targets[i].AzimuthRad)
	}
	relative := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(g), len(w))
		}
		var rms float64
		for _, v := range w {
			rms += v * v
		}
		rms = math.Sqrt(rms / float64(len(w)))
		if rms == 0 {
			rms = 1
		}
		for i := range w {
			if d := math.Abs(g[i] - w[i]); d/rms > relTol {
				t.Errorf("%s: %s[%d] differs by %g (rms %g)", label, name, i, d, rms)
				return
			}
		}
	}
	relative("orientation envelope", got.prof.Power, want.prof.Power)
	if len(got.rd.Power) != len(want.rd.Power) {
		t.Fatalf("%s: %d doppler rows vs %d", label, len(got.rd.Power), len(want.rd.Power))
	}
	for v := range want.rd.Power {
		relative("doppler row", got.rd.Power[v], want.rd.Power[v])
	}
}

// TestIntraCaptureParallelDeterministic pins the fan-out determinism claim:
// with GOMAXPROCS raised so the worker pool genuinely engages, every
// pipeline product is bit-identical to the serial oracle — the same capture
// at GOMAXPROCS=1, where every fan-out runs on the caller. The per-worker
// scratch and fixed-order reductions leave no schedule dependence.
func TestIntraCaptureParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := DefaultConfig().LocalizationChirp
	for seed := int64(1); seed <= 2; seed++ {
		var got [2]pipelineOutputs
		for i, procs := range []int{4, 1} {
			runtime.GOMAXPROCS(procs)
			a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
			tgt := pointTarget(rfsim.Point{X: 3, Y: 0.5}, 25)
			tgt.RadialVelocityMS = 0.8
			frames := synth(t)(a.SynthesizeChirps(c, 16, tgt, nil, rfsim.NewNoiseSource(seed)))
			got[i] = runPipeline(t, a, frames)
		}
		// absTol 0, relTol 0: parallel must be bit-identical to serial.
		comparePipelines(t, "parallel vs serial", got[0], got[1], 0, 0)
	}
}

// TestBatchFFTConcurrentSessions hammers the shared plan caches and helper
// pool from interleaved batched captures — the multi-session shape the
// serving daemon produces — under the race detector, checking each session's
// localization stays bit-identical to its own serial baseline.
func TestBatchFFTConcurrentSessions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := DefaultConfig().LocalizationChirp
	const sessions = 4
	type baseline struct {
		frames []ChirpFrame
		loc    LocalizationResult
	}
	refs := make([]baseline, sessions)
	aps := make([]*AP, sessions)
	for s := range refs {
		a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
		aps[s] = a
		tgt := pointTarget(rfsim.Point{X: 2 + float64(s), Y: 0.5}, 25)
		refs[s].frames = synth(t)(a.SynthesizeChirps(c, 8, tgt, nil, rfsim.NewNoiseSource(int64(s+1))))
		loc, err := a.ProcessLocalization(c, refs[s].frames)
		if err != nil {
			t.Fatalf("session %d baseline: %v", s, err)
		}
		refs[s].loc = loc
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				loc, err := aps[s].ProcessLocalization(c, refs[s].frames)
				if err != nil {
					t.Errorf("session %d iter %d: %v", s, iter, err)
					return
				}
				if loc != refs[s].loc {
					t.Errorf("session %d iter %d: result drifted: %+v != %+v",
						s, iter, loc, refs[s].loc)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}
