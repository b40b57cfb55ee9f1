package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ap"
	"repro/internal/fsa"
	"repro/internal/rfsim"
)

// TestFFTSizeSetsResolutionOnly processes one set of captured frames at
// 512, 1024 and 2048 points. Every width the detectors use is given in Hz,
// so the transform size may change only the spectrum's bin spacing: range,
// azimuth, AP-side orientation and the 20 m/s Doppler estimate must agree
// across sizes, and a discovery capture of three nodes must yield the same
// detections. A width left counted in bins changes meaning with the size
// and fails here.
func TestFFTSizeSetsResolutionOnly(t *testing.T) {
	sizes := []int{512, 1024, 2048}
	systems := make([]*System, len(sizes))
	for i, n := range sizes {
		cfg := DefaultConfig()
		cfg.AP.FFTSize = n
		systems[i] = MustNewSystem(cfg, rfsim.DefaultIndoorScene())
	}
	// Frames are synthesized once, on the first system's AP: synthesis does
	// not read FFTSize, so every size sees the same samples.
	ref := systems[0]
	c := ref.cfg.AP.LocalizationChirp
	frames := func(nChirps int, seed int64, tgts ...*ap.BackscatterTarget) []ap.ChirpFrame {
		t.Helper()
		f, err := ref.AP.SynthesizeChirps(c, nChirps, tgts, ref.beams, nil, rfsim.NewNoiseSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	nd, err := ref.AddNode(rfsim.PolarPoint(3.2, rfsim.DegToRad(12)), -7)
	if err != nil {
		t.Fatal(err)
	}
	locFrames := frames(5, 21, localizationTarget(nd))
	oriFrames := frames(5, 22, orientationTarget(nd))
	moving := localizationTarget(nd)
	moving.RadialVelocityMS = 20
	dopFrames := frames(32, 23, moving)

	var group []*ap.BackscatterTarget
	for _, p := range [][3]float64{{2.5, -4, 5}, {4, 0, 5}, {6, 3, 5}} {
		n, err := ref.AddNode(rfsim.PolarPoint(p[0], rfsim.DegToRad(p[1])), p[2])
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, localizationTarget(n))
	}
	groupFrames := frames(5, 24, group...)

	type reading struct {
		rangeM, azDeg, orientDeg, velMS float64
		targets                         []float64
	}
	read := make([]reading, len(sizes))
	for i, s := range systems {
		loc, err := s.AP.ProcessLocalization(c, locFrames)
		if err != nil {
			t.Fatalf("%d points: localize: %v", sizes[i], err)
		}
		prof, err := s.AP.EstimateOrientationProfile(c, oriFrames, loc.PeakIndex(), s.cfg.OrientationMaskHalfWidthHz)
		if err != nil {
			t.Fatalf("%d points: orientation: %v", sizes[i], err)
		}
		dloc, err := s.AP.ProcessLocalization(c, dopFrames)
		if err != nil {
			t.Fatalf("%d points: Doppler localize: %v", sizes[i], err)
		}
		vel, err := s.AP.EstimateRadialVelocity(c, dopFrames, dloc.PeakBin)
		if err != nil {
			t.Fatalf("%d points: velocity: %v", sizes[i], err)
		}
		dets, err := s.AP.DetectTargets(c, groupFrames, 8)
		if err != nil {
			t.Fatalf("%d points: detect: %v", sizes[i], err)
		}
		var ranges []float64
		for _, d := range dets {
			ranges = append(ranges, d.RangeM)
		}
		sort.Float64s(ranges)
		read[i] = reading{
			rangeM:    loc.RangeM,
			azDeg:     rfsim.RadToDeg(loc.AzimuthRad),
			orientDeg: nd.FSA.BeamAngleDeg(fsa.PortB, prof.PeakFreqHz),
			velMS:     vel,
			targets:   ranges,
		}
	}
	if got := len(read[0].targets); got != len(group) {
		t.Errorf("%d points: %d detections of %d nodes: %v", sizes[0], got, len(group), read[0].targets)
	}
	for i := 1; i < len(sizes); i++ {
		a, b := read[0], read[i]
		if d := math.Abs(a.rangeM - b.rangeM); d > 0.01 {
			t.Errorf("range %.4f m at %d points vs %.4f m at %d (|Δ| %.3g m > 1 cm)", a.rangeM, sizes[0], b.rangeM, sizes[i], d)
		}
		if d := math.Abs(a.azDeg - b.azDeg); d > 0.2 {
			t.Errorf("azimuth %.3f° at %d points vs %.3f° at %d (|Δ| %.3g° > 0.2°)", a.azDeg, sizes[0], b.azDeg, sizes[i], d)
		}
		if d := math.Abs(a.orientDeg - b.orientDeg); d > 0.5 {
			t.Errorf("orientation %.3f° at %d points vs %.3f° at %d (|Δ| %.3g° > 0.5°)", a.orientDeg, sizes[0], b.orientDeg, sizes[i], d)
		}
		if d := math.Abs(a.velMS - b.velMS); d > 0.05 {
			t.Errorf("velocity %.4f m/s at %d points vs %.4f m/s at %d (|Δ| %.3g > 0.05 m/s)", a.velMS, sizes[0], b.velMS, sizes[i], d)
		}
		if len(a.targets) != len(b.targets) {
			t.Errorf("%d detections at %d points vs %d at %d: %v vs %v",
				len(a.targets), sizes[0], len(b.targets), sizes[i], a.targets, b.targets)
			continue
		}
		for j := range a.targets {
			if d := math.Abs(a.targets[j] - b.targets[j]); d > 0.01 {
				t.Errorf("detection %d: %.4f m at %d points vs %.4f m at %d (|Δ| %.3g m > 1 cm)",
					j, a.targets[j], sizes[0], b.targets[j], sizes[i], d)
			}
		}
	}
	for i, r := range read {
		t.Logf("%4d points: range %.4f m, azimuth %.3f°, orientation %.3f°, velocity %.4f m/s, detections %.4f",
			sizes[i], r.rangeM, r.azDeg, r.orientDeg, r.velMS, r.targets)
	}
}
