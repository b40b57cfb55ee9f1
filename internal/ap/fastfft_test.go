package ap

import (
	"errors"
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rfsim"
)

// TestSubtractedDiffsRejectsMixedLengths: frames of unequal length cannot
// share one analysis window, so the capture is refused as an invalid
// configuration naming the offending frame and both lengths — never
// windowed frame by frame behind the caller's back.
func TestSubtractedDiffsRejectsMixedLengths(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgt := pointTarget(rfsim.Point{X: 3}, 25)
	frames := synth(t)(a.SynthesizeChirps(c, 4, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(7)))
	// Truncate one frame: lengths now differ across the capture.
	n := len(frames[0].Rx[0])
	frames[2].Rx[0] = frames[2].Rx[0][:n-5]
	frames[2].Rx[1] = frames[2].Rx[1][:n-5]

	_, err := a.subtractedSpectra(frames)
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("mixed-length capture: err = %v, want ErrInvalidConfig", err)
	}
	for _, want := range []string{"frame 2", strconv.Itoa(n - 5), strconv.Itoa(n)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// The public pipeline surfaces the same error.
	if _, err := a.ProcessLocalization(c, frames); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("ProcessLocalization: err = %v, want ErrInvalidConfig", err)
	}
}

// TestFastFFTDifferentialPerSample pins the lazy per-antenna subtraction
// contract against the refSpectra oracle across seeds. For each want mode the
// production receive paths use, a diffTime antenna must hold, sample by
// sample, the windowed difference w·x₁ − w·x₀; every spectrum bin read
// through binAt — straight from a diffSpec spectrum or evaluated on demand
// from a diffTime difference — must match the oracle within 1e-9 of the
// capture's RMS spectrum magnitude; and a diffSkip antenna must hold nothing.
func TestFastFFTDifferentialPerSample(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	nfft := a.Config().FFTSize
	modes := [][2]diffMode{{diffSpec, diffTime}, {diffTime, diffSkip}}
	for seed := int64(1); seed <= 3; seed++ {
		tgt := pointTarget(rfsim.Point{X: 3, Y: 0.5}, 25)
		frames := synth(t)(a.SynthesizeChirps(c, 8, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
		n0 := len(frames[0].Rx[0])
		w := dsp.HannCached(n0)
		ref := a.refSpectra(frames, true, n0, nfft)
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

		for _, want := range modes {
			ds, err := a.subtractedDiffs(frames, want)
			if err != nil {
				t.Fatalf("seed %d modes %v: %v", seed, want, err)
			}
			if len(ds.d) != len(ref) {
				t.Fatalf("seed %d modes %v: %d diffs vs %d oracle", seed, want, len(ds.d), len(ref))
			}
			worstSample, worstBin := 0.0, 0.0
			for k := range ref {
				for m := 0; m < 2; m++ {
					switch want[m] {
					case diffSkip:
						if ds.d[k][m] != nil {
							t.Fatalf("seed %d modes %v: skipped antenna %d of pair %d materialized", seed, want, m, k)
						}
						continue
					case diffTime:
						if len(ds.d[k][m]) != n0 {
							t.Fatalf("seed %d modes %v: time difference has %d samples, want %d",
								seed, want, len(ds.d[k][m]), n0)
						}
						x0, x1 := frames[k].Rx[m], frames[k+1].Rx[m]
						for i, v := range ds.d[k][m] {
							o := x1[i]*complex(w[i], 0) - x0[i]*complex(w[i], 0)
							if d := cmplx.Abs(v - o); d > worstSample {
								worstSample = d
							}
						}
					}
					for bin := 0; bin < nfft/2; bin++ {
						if d := cmplx.Abs(ds.binAt(k, m, bin) - ref[k][m][bin]); d > worstBin {
							worstBin = d
						}
					}
				}
			}
			if worstSample/scale > 1e-9 {
				t.Errorf("seed %d modes %v: max per-sample deviation %g (rms %g) exceeds 1e-9 relative",
					seed, want, worstSample, scale)
			}
			if worstBin/scale > 1e-9 {
				t.Errorf("seed %d modes %v: max per-bin deviation %g (rms %g) exceeds 1e-9 relative",
					seed, want, worstBin, scale)
			}
			a.releaseDiffSet(ds)
		}
		a.releaseDiffs(ref)
	}
}

// TestFastFFTLocalizationAgreement runs the §5.1 localization on the
// production receive path — antenna 1 evaluated only at the detected peak
// bin — and recomputes it from the refSpectra oracle's full spectra on both
// antennas: peak of the summed antenna-0 power, coherent inter-antenna phase
// at that bin. Range and azimuth must agree within 1e-6.
func TestFastFFTLocalizationAgreement(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	nfft := a.Config().FFTSize
	arr := rfsim.RxArray{Spacing: a.Config().RxSpacingM}
	for seed := int64(1); seed <= 3; seed++ {
		tgt := pointTarget(rfsim.Point{X: 3, Y: 0.5}, 25)
		frames := synth(t)(a.SynthesizeChirps(c, 8, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(seed)))
		got, err := a.ProcessLocalization(c, frames)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ref := a.refSpectra(frames, true, len(frames[0].Rx[0]), nfft)
		profile := make([]float64, nfft/2)
		for _, d := range ref {
			for i := 1; i < len(profile); i++ {
				re, im := real(d[0][i]), imag(d[0][i])
				profile[i] += re*re + im*im
			}
		}
		peak := dsp.MaxPeak(profile)
		var acc complex128
		for _, d := range ref {
			acc += d[1][peak.Index] * cmplx.Conj(d[0][peak.Index])
		}
		a.releaseDiffs(ref)
		wantRange := RangeFromBeat(c, peak.Position*a.Config().BeatSampleRateHz/float64(nfft))
		wantAz := arr.AngleFromPhase(cmplx.Phase(acc), (c.FreqLow+c.FreqHigh)/2)

		if d := math.Abs(got.RangeM - wantRange); d > 1e-6 {
			t.Errorf("seed %d: range differs from the oracle by %g m", seed, d)
		}
		if d := math.Abs(got.AzimuthRad - wantAz); d > 1e-6 {
			t.Errorf("seed %d: azimuth differs from the oracle by %g rad", seed, d)
		}
	}
}
