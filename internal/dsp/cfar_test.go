package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// testCFAR is the detector the tests share: 4 guard + 16 training cells,
// 12 dB over the local floor.
var testCFAR = CFAR{Guard: 4, Train: 16, ThresholdFactor: 15.8}

func TestCFARDetectsTargetsInNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1024
	x := make([]float64, n)
	for i := range x {
		// Exponentially-distributed power floor (|CN|² noise).
		x[i] = -math.Log(1 - rng.Float64())
	}
	targets := []int{150, 400, 700}
	for _, b := range targets {
		x[b] += 200
		x[b-1] += 80
		x[b+1] += 80
	}
	peaks, err := testCFAR.Detect(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != len(targets) {
		t.Fatalf("detected %d targets, want %d: %+v", len(peaks), len(targets), peaks)
	}
	found := map[int]bool{}
	for _, p := range peaks {
		for _, b := range targets {
			if abs(p.Index-b) <= 1 {
				found[b] = true
			}
		}
	}
	if len(found) != len(targets) {
		t.Fatalf("peaks %v do not cover targets %v", peaks, targets)
	}
	// Strongest first.
	for i := 1; i < len(peaks); i++ {
		if peaks[i].Value > peaks[i-1].Value {
			t.Fatal("peaks not sorted by value")
		}
	}
}

func TestCFARFalseAlarmRateLow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	falseAlarms := 0
	const runs = 20
	for r := 0; r < runs; r++ {
		x := make([]float64, 2048)
		for i := range x {
			x[i] = -math.Log(1 - rng.Float64())
		}
		peaks, err := testCFAR.Detect(x, 8)
		if err != nil {
			t.Fatal(err)
		}
		falseAlarms += len(peaks)
	}
	// 12 dB over a 32-cell average floor: expect well under 1 false alarm
	// per 2048-bin profile on average.
	if falseAlarms > runs {
		t.Fatalf("%d false alarms over %d noise-only profiles", falseAlarms, runs)
	}
}

func TestCFARMergesCloseDetections(t *testing.T) {
	x := make([]float64, 256)
	for i := range x {
		x[i] = 1
	}
	x[100], x[103] = 300, 200 // two peaks 3 bins apart
	peaks, err := testCFAR.Detect(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 1 || peaks[0].Index != 100 {
		t.Fatalf("expected single merged detection at 100, got %+v", peaks)
	}
}

func TestCFARValidation(t *testing.T) {
	bad := []CFAR{
		{Guard: -1, Train: 8, ThresholdFactor: 10},
		{Guard: 2, Train: 0, ThresholdFactor: 10},
		{Guard: 2, Train: 8, ThresholdFactor: 0.5},
	}
	for i, c := range bad {
		if _, err := c.Detect(make([]float64, 100), 4); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
	if _, err := testCFAR.Detect(make([]float64, 10), 4); err == nil {
		t.Error("too-short profile should fail")
	}
}

func TestCFARDetectsTargetNearEdge(t *testing.T) {
	// Regression: cells within Guard+Train bins of either end used to be
	// skipped outright, so a node at very close range (beat peak near bin 0)
	// was silently undetectable. One-sided training at the edges must find
	// targets inside the old dead zone.
	rng := rand.New(rand.NewSource(6))
	c := testCFAR
	span := c.Guard + c.Train // 20 with the default config
	for _, target := range []int{0, 3, span - 1} {
		for _, mirror := range []bool{false, true} {
			n := 512
			x := make([]float64, n)
			for i := range x {
				x[i] = -math.Log(1 - rng.Float64())
			}
			bin := target
			if mirror {
				bin = n - 1 - target
			}
			x[bin] += 200
			if bin > 0 {
				x[bin-1] += 80
			}
			if bin < n-1 {
				x[bin+1] += 80
			}
			peaks, err := c.Detect(x, 8)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, p := range peaks {
				if abs(p.Index-bin) <= 1 {
					found = true
				}
			}
			if !found {
				t.Errorf("target at bin %d (old dead zone, span %d) not detected: %+v",
					bin, span, peaks)
			}
		}
	}
}

func TestCFARInteriorUnchangedByEdgeTraining(t *testing.T) {
	// The edge fallback must not disturb interior cells: a profile whose only
	// feature sits well inside the span still yields exactly one detection at
	// the same refined peak.
	x := make([]float64, 256)
	for i := range x {
		x[i] = 1
	}
	x[99], x[100], x[101] = 60, 300, 60
	peaks, err := testCFAR.Detect(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 1 || peaks[0].Index != 100 {
		t.Fatalf("interior detection changed: %+v", peaks)
	}
}

func TestCFARAllZeroProfile(t *testing.T) {
	// All-zero profile: no energy anywhere, no detections — including at the
	// newly-tested edge cells whose training windows are one-sided.
	peaks, err := testCFAR.Detect(make([]float64, 256), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 0 {
		t.Fatalf("all-zero profile produced detections: %+v", peaks)
	}
}

func TestCFARSinglePeakAtEdge(t *testing.T) {
	// Zero floor with the only energetic bin at each extreme end: the
	// endpoint must be detected (local-maximum test against its single
	// neighbour) and refined without reading out of bounds.
	for _, bin := range []int{0, 255} {
		x := make([]float64, 256)
		x[bin] = 5
		peaks, err := testCFAR.Detect(x, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(peaks) != 1 || peaks[0].Index != bin {
			t.Fatalf("edge bin %d: got %+v", bin, peaks)
		}
	}
}

func TestCFARZeroFloor(t *testing.T) {
	// All-zero floor with one energetic bin: still detected.
	x := make([]float64, 256)
	x[128] = 5
	peaks, err := testCFAR.Detect(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 1 || peaks[0].Index != 128 {
		t.Fatalf("zero-floor detection failed: %+v", peaks)
	}
}
