package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/obs"
	"repro/internal/rfsim"
)

func TestDiscoverFindsAllNodes(t *testing.T) {
	s := testSystem(t)
	truth := []struct {
		d, azDeg float64
	}{
		{2.5, -25},
		{4.0, 0},
		{6.0, 22},
	}
	for _, tr := range truth {
		if _, err := s.AddNode(rfsim.PolarPoint(tr.d, rfsim.DegToRad(tr.azDeg)), 5); err != nil {
			t.Fatal(err)
		}
	}
	dets, err := s.Discover(context.Background(), DefaultScanConfig(), 31)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(dets) != len(truth) {
		t.Fatalf("discovered %d nodes, want %d: %+v", len(dets), len(truth), dets)
	}
	// Sorted by azimuth, so they align with truth order.
	for i, tr := range truth {
		if math.Abs(dets[i].RangeM-tr.d) > 0.3 {
			t.Errorf("node %d: range %.2f, want %.2f", i, dets[i].RangeM, tr.d)
		}
		if gotAz := rfsim.RadToDeg(dets[i].AzimuthRad); math.Abs(gotAz-tr.azDeg) > 6 {
			t.Errorf("node %d: azimuth %.1f, want %.1f", i, gotAz, tr.azDeg)
		}
		if dets[i].SNRdB < 10 {
			t.Errorf("node %d: weak detection %.1f dB", i, dets[i].SNRdB)
		}
	}
}

func TestDiscoverEmptyRoomFails(t *testing.T) {
	s := testSystem(t)
	if _, err := s.Discover(context.Background(), DefaultScanConfig(), 32); err == nil {
		t.Fatal("discovery with no nodes should fail")
	}
}

func TestDiscoverTwoNodesSameAzimuthDifferentRange(t *testing.T) {
	// SDM cannot separate them in angle, but CFAR separates them in range.
	s := testSystem(t)
	for _, d := range []float64{2, 5} {
		if _, err := s.AddNode(rfsim.PolarPoint(d, rfsim.DegToRad(10)), 5); err != nil {
			t.Fatal(err)
		}
	}
	dets, err := s.Discover(context.Background(), DefaultScanConfig(), 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 2 {
		t.Fatalf("discovered %d, want 2 (range-separated): %+v", len(dets), dets)
	}
	ranges := []float64{dets[0].RangeM, dets[1].RangeM}
	if ranges[0] > ranges[1] {
		ranges[0], ranges[1] = ranges[1], ranges[0]
	}
	if math.Abs(ranges[0]-2) > 0.3 || math.Abs(ranges[1]-5) > 0.3 {
		t.Errorf("ranges = %v, want ~[2 5]", ranges)
	}
}

func TestMeasureRadialVelocity(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.Point{X: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-2, -0.5, 0, 1, 4} {
		got, err := s.MeasureRadialVelocity(n, v, 32, int64(v*100)+700)
		if err != nil {
			t.Fatalf("v=%g: %v", v, err)
		}
		if math.Abs(got-v) > 0.4 {
			t.Errorf("v=%g: estimated %.3f", v, got)
		}
	}
	if _, err := s.MeasureRadialVelocity(n, 1, 2, 1); err == nil {
		t.Error("too few chirps should fail")
	}
}

func TestScanConfigValidation(t *testing.T) {
	s := testSystem(t)
	if _, err := s.AddNode(rfsim.Point{X: 2}, 0); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ScanConfig){
		func(c *ScanConfig) { c.StopDeg = c.StartDeg },
		func(c *ScanConfig) { c.StepDeg = 0 },
		func(c *ScanConfig) { c.MaxTargetsPerPointing = 0 },
		func(c *ScanConfig) { c.MergeRangeM = 0 },
		func(c *ScanConfig) { c.MergeAngleDeg = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultScanConfig()
		mut(&cfg)
		if _, err := s.Discover(context.Background(), cfg, 1); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

// TestScanConfigRejectsNonFiniteAndStalledSweeps pins that a sweep which
// could never finish, or would finish on NaN arithmetic, is rejected up
// front: a non-finite bound spins until the context expires, a step too
// small to change the pointing never advances, a NaN start or step ends
// the sweep with no detections, and a NaN merge threshold merges nothing.
func TestScanConfigRejectsNonFiniteAndStalledSweeps(t *testing.T) {
	s := testSystem(t)
	if _, err := s.AddNode(rfsim.Point{X: 3}, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*ScanConfig)
	}{
		{"infinite stop", func(c *ScanConfig) { c.StopDeg = math.Inf(1) }},
		{"step below float spacing", func(c *ScanConfig) { c.StepDeg = 1e-300 }},
		{"NaN start", func(c *ScanConfig) { c.StartDeg = math.NaN() }},
		{"NaN step", func(c *ScanConfig) { c.StepDeg = math.NaN() }},
		{"NaN merge range", func(c *ScanConfig) { c.MergeRangeM = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultScanConfig()
			tc.mut(&cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			dets, err := s.Discover(ctx, cfg, 1)
			if err == nil {
				t.Fatalf("accepted, returned %d detections", len(dets))
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ap.ErrNoDetection) {
				t.Fatalf("ran the sweep instead of rejecting the config: %v", err)
			}
		})
	}
}

// stopAfterCtx is a context whose Err reports cancellation from its
// (checks+1)-th call on: a deterministic stand-in for a client that goes
// away mid-sweep.
type stopAfterCtx struct {
	context.Context
	checks int
}

func (c *stopAfterCtx) Err() error {
	if c.checks == 0 {
		return context.Canceled
	}
	c.checks--
	return nil
}

// TestDiscoverHonoursCancellation pins that a sweep stops between pointings
// once its context is done: a context cancelled up front runs no capture,
// one cancelled after two pointings runs exactly two, both return an error
// wrapping context.Canceled, and neither leaves a capture lease open.
func TestDiscoverHonoursCancellation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ctx      func() context.Context
		captures uint64
	}{
		{"before sweep", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, 0},
		{"mid sweep", func() context.Context {
			return &stopAfterCtx{Context: context.Background(), checks: 2}
		}, 2},
	} {
		s := testSystem(t)
		for _, az := range []float64{-25, 0, 22} {
			if _, err := s.AddNode(rfsim.PolarPoint(3, rfsim.DegToRad(az)), 5); err != nil {
				t.Fatal(err)
			}
		}
		_, err := s.Discover(tc.ctx(), DefaultScanConfig(), 34)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		snap := s.Obs().Snapshot()
		if got := snap.Counters[obs.MetricCapturesAcquired]; got != tc.captures {
			t.Errorf("%s: %d pointings captured, want %d", tc.name, got, tc.captures)
		}
		opened, closed := snap.Counters[obs.MetricLeasesOpened], snap.Counters[obs.MetricLeasesClosed]
		if opened != closed {
			t.Errorf("%s: %d leases opened but %d closed", tc.name, opened, closed)
		}
	}
}

// TestDiscoverSurfacesDetectionErrors pins that only "nothing visible"
// pointings are skipped: a capture the detector cannot process at all
// (frames longer than the configured FFT) fails the sweep with that error
// instead of being reported as an empty room.
func TestDiscoverSurfacesDetectionErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AP.FFTSize = 8
	s, err := NewSystem(cfg, rfsim.DefaultIndoorScene())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode(rfsim.PolarPoint(3, 0), 5); err != nil {
		t.Fatal(err)
	}
	_, err = s.Discover(context.Background(), DefaultScanConfig(), 35)
	if err == nil || errors.Is(err, ap.ErrNoDetection) || !strings.Contains(err.Error(), "FFT size") {
		t.Fatalf("err = %v, want the detector's FFT-size error, not ErrNoDetection", err)
	}
}
