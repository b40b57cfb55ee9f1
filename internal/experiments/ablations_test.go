package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/waveform"
)

func TestAblationBackgroundSubtraction(t *testing.T) {
	r := AblationBackgroundSubtraction(10, 201)
	if r.ModulatedDetections != 10 {
		t.Errorf("modulated detections = %d/10", r.ModulatedDetections)
	}
	if r.StaticFalseDetections != 0 {
		t.Errorf("static false detections = %d, want 0", r.StaticFalseDetections)
	}
	if !strings.Contains(r.Summary().String(), "subtraction") {
		t.Error("summary malformed")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero trials should panic")
		}
	}()
	AblationBackgroundSubtraction(0, 1)
}

func TestAblationAmplitudeTaper(t *testing.T) {
	r := AblationAmplitudeTaper([]float64{-20, -10, 10, 20})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The tapered design's isolation must beat the uniform-array bound.
		if row.TaperedDB <= 13.3 {
			t.Errorf("orientation %g: tapered isolation %.1f dB should exceed 13.3", row.OrientationDeg, row.TaperedDB)
		}
		if row.UniformSimilar > 13.3 {
			t.Errorf("uniform bound %g exceeds 13.3", row.UniformSimilar)
		}
	}
	if !strings.Contains(r.Summary().String(), "taper") {
		t.Error("summary malformed")
	}
}

func TestExtDenseOAQFMTradeoff(t *testing.T) {
	r := ExtDenseOAQFM([]int{2, 8}, []float64{2, 8}, 300, 203)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ser := func(levels int, d float64) float64 {
		for _, row := range r.Rows {
			if row.Levels == levels && row.DistanceM == d {
				return float64(row.SymbolErrors) / float64(row.Symbols)
			}
		}
		t.Fatalf("missing row %d/%g", levels, d)
		return 0
	}
	// Binary at 2 m and 8 m: clean. 8-level at 2 m: clean. 8-level at 8 m:
	// visibly degraded — the rate-vs-range trade.
	if ser(2, 2) > 0.01 || ser(2, 8) > 0.05 {
		t.Errorf("binary SER too high: %g @2m, %g @8m", ser(2, 2), ser(2, 8))
	}
	if ser(8, 2) > 0.05 {
		t.Errorf("8-level SER at 2 m = %g, want near clean", ser(8, 2))
	}
	if ser(8, 8) <= ser(2, 8) || ser(8, 8) < 0.02 {
		t.Errorf("8-level SER at 8 m = %g, want clearly degraded vs binary %g", ser(8, 8), ser(2, 8))
	}
	if !strings.Contains(r.Summary().String(), "dense OAQFM") {
		t.Error("summary malformed")
	}
}

func TestAblationMirrorReflection(t *testing.T) {
	r := AblationMirrorReflection([]float64{-4, 12}, 10, 501)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var atMirror, away AblationMirrorRow
	for _, row := range r.Rows {
		if row.OrientationDeg == -4 {
			atMirror = row
		} else {
			away = row
		}
	}
	// With the mirror: the bump. Without: flat.
	if atMirror.WithMirrorDeg <= 2*atMirror.WithoutMirrorDeg {
		t.Errorf("mirror-on error %.2f° should dwarf mirror-off %.2f° at -4°",
			atMirror.WithMirrorDeg, atMirror.WithoutMirrorDeg)
	}
	// Away from the specular window the mirror makes no difference.
	if math.Abs(away.WithMirrorDeg-away.WithoutMirrorDeg) > 0.2 {
		t.Errorf("at 12° mirror on/off should match: %.2f vs %.2f",
			away.WithMirrorDeg, away.WithoutMirrorDeg)
	}
	if !strings.Contains(r.Summary().String(), "mirror") {
		t.Error("summary malformed")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero trials should panic")
		}
	}()
	AblationMirrorReflection([]float64{0}, 0, 1)
}

func TestExtGoodput(t *testing.T) {
	r := ExtGoodput([]int{8, 64, 256, 1024, 4096, 16384, 65535})
	if len(r.Rows) != 14 { // 7 sizes x 2 directions
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Preamble: 135 µs Field 1 + 90 µs Field 2 = 225 µs.
	if math.Abs(r.PreambleS-225e-6) > 1e-9 {
		t.Errorf("preamble = %g, want 225 µs", r.PreambleS)
	}
	// Goodput grows monotonically with payload within a direction and
	// approaches (but never reaches) the raw rate.
	var prev float64
	for _, row := range r.Rows {
		if row.PayloadBytes == 8 {
			prev = 0
		}
		if row.GoodputBps <= prev {
			t.Errorf("goodput not increasing at %d B %v", row.PayloadBytes, row.Direction)
		}
		prev = row.GoodputBps
		if row.Efficiency >= 1 || row.Efficiency <= 0 {
			t.Errorf("efficiency %g out of range", row.Efficiency)
		}
	}
	// Tiny payloads are overhead-dominated; huge ones approach line rate.
	first := r.Rows[0]
	last := r.Rows[6]
	if first.Efficiency > 0.01 {
		t.Errorf("8-byte efficiency = %.3f, should be overhead-dominated", first.Efficiency)
	}
	if last.Efficiency < 0.9 {
		t.Errorf("64 KiB efficiency = %.3f, should approach line rate", last.Efficiency)
	}
	// Break-even: payload time == preamble time → ~1 ms·rate/8.
	be := r.BreakEvenBytes(waveform.Downlink)
	if be < 900 || be > 1200 {
		t.Errorf("downlink break-even = %d B, want ~1013", be)
	}
	if !strings.Contains(r.Summary().String(), "goodput") {
		t.Error("summary malformed")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero payload should panic")
		}
	}()
	ExtGoodput([]int{0})
}

func TestExtDoppler(t *testing.T) {
	r := ExtDoppler([]float64{-1, 0.5, 5}, []int{8, 64}, 5, 301)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.MaxUnambiguousMS < 50 {
		t.Errorf("unambiguous limit = %g", r.MaxUnambiguousMS)
	}
	meanErr := func(chirps int) float64 {
		sum, n := 0.0, 0
		for _, row := range r.Rows {
			if row.Chirps == chirps {
				sum += row.MeanErrMS
				n++
			}
		}
		return sum / float64(n)
	}
	// All estimates land within a fraction of a m/s.
	for _, row := range r.Rows {
		if row.MeanErrMS > 0.8 {
			t.Errorf("v=%g chirps=%d: mean error %.2f m/s", row.VelocityMS, row.Chirps, row.MeanErrMS)
		}
	}
	// Longer bursts refine the estimate.
	if meanErr(64) >= meanErr(8) {
		t.Errorf("64-chirp error %.3f should beat 8-chirp %.3f", meanErr(64), meanErr(8))
	}
	if !strings.Contains(r.Summary().String(), "Doppler") {
		t.Error("summary malformed")
	}
}

func TestExtFadingOutage(t *testing.T) {
	r := ExtFadingOutage([]float64{3, 15}, []float64{2, 5}, 4000, 401)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(k, d float64) ExtFadingRow {
		for _, row := range r.Rows {
			if row.KdB == k && row.DistanceM == d {
				return row
			}
		}
		t.Fatalf("missing row %g/%g", k, d)
		return ExtFadingRow{}
	}
	// Near range: huge margin, negligible outage regardless of K.
	if o := get(15, 2).Outage; o > 0.001 {
		t.Errorf("K=15 @2m outage = %g", o)
	}
	// At 5 m the mean SNR sits a few dB above the threshold: weak-LOS
	// fading (deep fades) hurts more than strong-LOS. (Below the
	// threshold the ordering flips — scatter is the only way up.)
	if get(3, 5).MeanSNRdB < r.RequiredSNRdB {
		t.Fatalf("test geometry wrong: mean SNR %.1f below threshold %.1f", get(3, 5).MeanSNRdB, r.RequiredSNRdB)
	}
	if get(3, 5).Outage <= get(15, 5).Outage {
		t.Errorf("K=3 outage %g should exceed K=15 outage %g at 5 m",
			get(3, 5).Outage, get(15, 5).Outage)
	}
	// Margins present and ordered.
	if r.Margins[3] <= r.Margins[15] {
		t.Errorf("margins not ordered: %v", r.Margins)
	}
	if !strings.Contains(r.Summary().String(), "fading") {
		t.Error("summary malformed")
	}
}

func TestExtFSAScaling(t *testing.T) {
	r := ExtFSAScaling([]int{7, 14, 28})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Bigger FSA ⇒ more gain ⇒ more range, monotonically.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].GainDBi <= r.Rows[i-1].GainDBi {
			t.Errorf("gain not increasing with elements")
		}
		if r.Rows[i].RangeAt10M <= r.Rows[i-1].RangeAt10M {
			t.Errorf("range not increasing with elements: %+v", r.Rows)
		}
	}
	// Doubling elements = +3 dB node gain = +6 dB round trip = ~1.41x range.
	ratio := r.Rows[1].RangeAt10M / r.Rows[0].RangeAt10M
	if ratio < 1.25 || ratio > 1.6 {
		t.Errorf("doubling elements scaled range by %.2f, want ~1.41", ratio)
	}
	if !strings.Contains(r.Summary().String(), "FSA size") {
		t.Error("summary malformed")
	}
}
