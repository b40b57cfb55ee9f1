package experiments

import (
	"reflect"
	"testing"
)

// TestParallelSweepsAreDeterministic verifies the worker-pool experiment
// sweeps produce identical results run-to-run: per-index seeds and
// per-index simulator instances mean goroutine scheduling cannot leak into
// the science.
func TestParallelSweepsAreDeterministic(t *testing.T) {
	a := Fig12aRanging([]float64{2, 5, 8}, 6, 99)
	b := Fig12aRanging([]float64{2, 5, 8}, 6, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Fig12a not deterministic:\n%+v\n%+v", a, b)
	}
	c := Fig13bAPOrientation([]float64{-8, 0, 8}, 6, 99)
	d := Fig13bAPOrientation([]float64{-8, 0, 8}, 6, 99)
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("Fig13b not deterministic:\n%+v\n%+v", c, d)
	}
	e := ExtDoppler([]float64{1}, []int{8, 16}, 3, 99)
	f := ExtDoppler([]float64{1}, []int{8, 16}, 3, 99)
	if !reflect.DeepEqual(e, f) {
		t.Fatalf("ExtDoppler not deterministic")
	}
	m := ExtMobilityRMSE([]float64{1, 4}, 20, 1, 2, 99)
	n := ExtMobilityRMSE([]float64{1, 4}, 20, 1, 2, 99)
	if !reflect.DeepEqual(m, n) {
		t.Fatalf("ExtMobilityRMSE not deterministic:\n%+v\n%+v", m, n)
	}
	// Different seeds genuinely differ.
	g := Fig12aRanging([]float64{2, 5, 8}, 6, 100)
	if reflect.DeepEqual(a, g) {
		t.Fatal("different seeds produced identical sweeps")
	}
}

// TestFadingSummaryNotesDeterministic pins the fade-margin notes to
// ascending K: they come from a map, whose iteration order Go randomizes,
// so an unordered walk reshuffled milback-experiments output run to run.
func TestFadingSummaryNotesDeterministic(t *testing.T) {
	r := ExtFadingResult{Margins: map[float64]float64{15: 3, 3: 16, 8: 9}}
	want := []string{
		"K=3 dB: 1%-outage fade margin 16.0 dB",
		"K=8 dB: 1%-outage fade margin 9.0 dB",
		"K=15 dB: 1%-outage fade margin 3.0 dB",
	}
	for i := 0; i < 20; i++ {
		if got := r.Summary().Notes[1:]; !reflect.DeepEqual(got, want) {
			t.Fatalf("fade-margin notes = %q, want %q", got, want)
		}
	}
}
