package node

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

const (
	testTxPowerW = 0.5 // 27 dBm (§8)
	testAPGain   = 20.0
)

// senseOrientation runs the node-side pipeline for one chirp: sample both
// detectors, then estimate.
func senseOrientation(n *Node, c waveform.Chirp, ns *rfsim.NoiseSource) (OrientationResult, error) {
	va, vb := n.SampleField1Chirp(c, testTxPowerW, testAPGain, ns)
	return n.EstimateOrientation(c, va, vb)
}

// countField1Peaks counts beam-crossing peaks over a whole Field-1 window
// (one pair per triangular chirp): local maxima above 40 % of the way from
// the median to the maximum, strongest first, each at least
// minSeparationSamples from every stronger one.
func countField1Peaks(v []float64, minSeparationSamples int) int {
	maxV := v[dsp.ArgMax(v)]
	med := dsp.Median(v)
	threshold := med + (maxV-med)*0.4
	var cands []int
	for i := 1; i < len(v)-1; i++ {
		if v[i] >= threshold && v[i] >= v[i-1] && v[i] > v[i+1] {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool { return v[cands[a]] > v[cands[b]] })
	var kept []int
	for _, c := range cands {
		near := slices.ContainsFunc(kept, func(k int) bool {
			return c-k < minSeparationSamples && k-c < minSeparationSamples
		})
		if !near {
			kept = append(kept, c)
		}
	}
	return len(kept)
}

func TestSampleField1ChirpShape(t *testing.T) {
	n := testNode(t, 2, 8)
	c := waveform.MilBackOrientationChirp()
	va, vb := n.SampleField1Chirp(c, testTxPowerW, testAPGain, nil)
	if len(va) != c.SampleCount(n.Config().ADCSampleRateHz) {
		t.Fatalf("trace length = %d", len(va))
	}
	// Each trace must show two clear peaks (Fig 5b): one on the up sweep,
	// one on the down sweep.
	half := len(va) / 2
	for name, v := range map[string][]float64{"A": va, "B": vb} {
		upMax, downMax := 0.0, 0.0
		for i, x := range v {
			if i < half && x > upMax {
				upMax = x
			}
			if i >= half && x > downMax {
				downMax = x
			}
		}
		if upMax == 0 || downMax == 0 {
			t.Errorf("port %s: missing sweep peak (up=%g down=%g)", name, upMax, downMax)
		}
	}
}

func TestPeakSeparationDependsOnOrientation(t *testing.T) {
	// Fig 5: different orientations give different Δt between the peaks.
	c := waveform.MilBackOrientationChirp()
	sep := func(orient float64) float64 {
		n := testNode(t, 2, orient)
		res, err := senseOrientation(n, c, nil)
		if err != nil {
			t.Fatalf("orient %g: %v", orient, err)
		}
		return res.PeakSeparationA
	}
	// Port A: higher orientation angle needs a higher frequency, which the
	// triangular chirp reaches closer to its apex ⇒ smaller Δt.
	if !(sep(-15) > sep(0) && sep(0) > sep(15)) {
		t.Errorf("Δt not monotone in orientation: %g, %g, %g", sep(-15), sep(0), sep(15))
	}
}

func TestEstimateOrientationNoiseless(t *testing.T) {
	c := waveform.MilBackOrientationChirp()
	for _, orient := range []float64{-24, -15, -6, 0, 4, 12, 20, 24} {
		n := testNode(t, 2, orient)
		res, err := senseOrientation(n, c, nil)
		if err != nil {
			t.Fatalf("orient %g: %v", orient, err)
		}
		if math.Abs(res.EstimateDeg-orient) > 2 {
			t.Errorf("orient %g: noiseless estimate %g (port A %g, port B %g)",
				orient, res.EstimateDeg, res.PortADeg, res.PortBDeg)
		}
	}
}

func TestEstimateOrientationWithNoiseMatchesPaper(t *testing.T) {
	// §9.3 / Fig 13a: node at 2 m, mean error < 3° across orientations,
	// 25 trials each.
	c := waveform.MilBackOrientationChirp()
	for _, orient := range []float64{-20, -10, 0, 10, 20} {
		var errs []float64
		for trial := 0; trial < 25; trial++ {
			n := testNode(t, 2, orient)
			ns := rfsim.NewNoiseSource(int64(1000*orient) + int64(trial))
			res, err := senseOrientation(n, c, ns)
			if err != nil {
				t.Fatalf("orient %g trial %d: %v", orient, trial, err)
			}
			errs = append(errs, math.Abs(res.EstimateDeg-orient))
		}
		mean := 0.0
		for _, e := range errs {
			mean += e
		}
		mean /= float64(len(errs))
		if mean > 3 {
			t.Errorf("orient %g: mean error %.2f°, want < 3° (Fig 13a)", orient, mean)
		}
	}
}

func TestEstimateOrientationRejectsSawtooth(t *testing.T) {
	n := testNode(t, 2, 0)
	if _, err := n.EstimateOrientation(waveform.MilBackLocalizationChirp(), make([]float64, 10), make([]float64, 10)); err == nil {
		t.Fatal("sawtooth chirp should be rejected")
	}
}

func TestEstimateOrientationRejectsNoiseOnlyTrace(t *testing.T) {
	n := testNode(t, 2, 0)
	c := waveform.MilBackOrientationChirp()
	// A flat, signal-free trace must be detected rather than decoded.
	flat := make([]float64, c.SampleCount(n.Config().ADCSampleRateHz))
	ns := rfsim.NewNoiseSource(5)
	for i := range flat {
		flat[i] = math.Abs(ns.Gaussian(1e-4))
	}
	if _, err := n.EstimateOrientation(c, flat, flat); err == nil {
		t.Fatal("noise-only trace should fail")
	}
	// Too-short traces fail too.
	if _, err := n.EstimateOrientation(c, []float64{1}, []float64{1}); err == nil {
		t.Fatal("short trace should fail")
	}
}

func TestField1TraceAndDirectionDetection(t *testing.T) {
	// Every orientation across the scan range must decode both directions,
	// including the near-edge orientations where per-chirp peaks crowd the
	// slot boundaries.
	for _, orient := range []float64{-28, -25, -10, 0, 8, 19, 27} {
		for _, dir := range []waveform.Direction{waveform.Uplink, waveform.Downlink} {
			spec := waveform.DefaultPacketSpec(dir, 10)
			n := testNode(t, 2, orient)
			trace := n.Field1Trace(spec, testTxPowerW, testAPGain, rfsim.NewNoiseSource(77))
			chirpSamples := spec.OrientationChirp.SampleCount(n.Config().ADCSampleRateHz)
			got, err := DetectDirection(trace, chirpSamples)
			if err != nil {
				t.Fatalf("orient %g, %v: %v", orient, dir, err)
			}
			if got != dir {
				t.Errorf("orient %g: direction detected as %v, want %v", orient, got, dir)
			}
		}
	}
}

func TestDetectDirectionErrors(t *testing.T) {
	if _, err := DetectDirection(make([]float64, 100), 2); err == nil {
		t.Error("tiny chirp window should fail")
	}
	if _, err := DetectDirection(make([]float64, 200), 45); err == nil {
		t.Error("flat trace should fail")
	}
	if _, err := DetectDirection(make([]float64, 50), 45); err == nil {
		t.Error("trace shorter than 3 slots should fail")
	}
}

func TestField1TraceUplinkHasSixPeaks(t *testing.T) {
	spec := waveform.DefaultPacketSpec(waveform.Uplink, 10)
	n := testNode(t, 2, 8)
	trace := n.Field1Trace(spec, testTxPowerW, testAPGain, nil)
	chirpSamples := spec.OrientationChirp.SampleCount(n.Config().ADCSampleRateHz)
	peaks := countField1Peaks(trace, chirpSamples/8)
	if peaks != 6 {
		t.Errorf("uplink Field 1 peaks = %d, want 6 (3 triangular chirps)", peaks)
	}
	spec = waveform.DefaultPacketSpec(waveform.Downlink, 10)
	trace = n.Field1Trace(spec, testTxPowerW, testAPGain, nil)
	peaks = countField1Peaks(trace, chirpSamples/8)
	if peaks != 4 {
		t.Errorf("downlink Field 1 peaks = %d, want 4 (2 chirps + gap)", peaks)
	}
}
