package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ap"
	"repro/internal/capture"
	"repro/internal/rfsim"
)

// NodeDetection is one node found by a discovery scan.
type NodeDetection struct {
	// RangeM and AzimuthRad locate the detection.
	RangeM     float64
	AzimuthRad float64
	// SNRdB is the detection strength at the best-matching pointing.
	SNRdB float64
	// PointingRad is the AP beam direction that saw it best.
	PointingRad float64
}

// ScanConfig parameterizes a discovery sweep.
type ScanConfig struct {
	// StartDeg and StopDeg bound the azimuth sweep.
	StartDeg, StopDeg float64
	// StepDeg is the pointing increment (≤ half the horn beamwidth keeps
	// full coverage).
	StepDeg float64
	// MaxTargetsPerPointing caps CFAR detections per capture.
	MaxTargetsPerPointing int
	// MergeRangeM and MergeAngleDeg cluster detections of the same node
	// seen from adjacent pointings.
	MergeRangeM, MergeAngleDeg float64
}

// DefaultScanConfig sweeps ±40° in half-beamwidth steps.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{
		StartDeg:              -40,
		StopDeg:               40,
		StepDeg:               9,
		MaxTargetsPerPointing: 8,
		MergeRangeM:           0.4,
		MergeAngleDeg:         8,
	}
}

// scanSlackDeg lets the last pointing land on StopDeg despite the rounding
// of the accumulated steps.
const scanSlackDeg = 1e-9

func (c ScanConfig) validate() error {
	for _, v := range [...]float64{c.StartDeg, c.StopDeg, c.StepDeg, c.MergeRangeM, c.MergeAngleDeg} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: scan config has a non-finite field: %+v", c)
		}
	}
	if c.StopDeg <= c.StartDeg {
		return fmt.Errorf("core: scan range [%g, %g] invalid", c.StartDeg, c.StopDeg)
	}
	if c.StepDeg <= 0 {
		return fmt.Errorf("core: scan step must be positive, got %g", c.StepDeg)
	}
	// Every pointing must advance the sweep: a step below the float spacing
	// at the sweep's widest end would leave the pointing stuck there.
	widest := math.Max(math.Abs(c.StartDeg), math.Abs(c.StopDeg+scanSlackDeg))
	if c.StepDeg < math.Nextafter(widest, math.Inf(1))-widest {
		return fmt.Errorf("core: scan step %g cannot advance a sweep over [%g, %g]", c.StepDeg, c.StartDeg, c.StopDeg)
	}
	if c.MaxTargetsPerPointing < 1 {
		return fmt.Errorf("core: max targets must be >= 1, got %d", c.MaxTargetsPerPointing)
	}
	if c.MergeRangeM <= 0 || c.MergeAngleDeg <= 0 {
		return fmt.Errorf("core: merge thresholds must be positive")
	}
	return nil
}

// Discover performs a beam-scanning discovery epoch (§7's SDM premise made
// operational): the AP sweeps its horns across the azimuth range while
// EVERY registered node toggles in localization mode; at each pointing the
// AP runs CFAR multi-target detection on the background-subtracted profile,
// and detections from adjacent pointings are clustered into nodes. The
// result is the set of node positions the AP can subsequently steer to and
// serve, sorted by azimuth.
//
// ctx is checked before each pointing: a cancelled or expired context
// abandons the rest of the sweep and returns an error wrapping ctx.Err().
// A pointing that sees nothing (ap.ErrNoDetection) is skipped; any other
// detection error ends the sweep and is returned.
func (s *System) Discover(ctx context.Context, cfg ScanConfig, seed int64) ([]NodeDetection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := s.cfg.AP.LocalizationChirp
	// One lease spans the whole sweep: a single noise stream, with the beam
	// re-steered per pointing.
	lease := s.capture.Acquire(rfsim.DegToRad(cfg.StartDeg), seed)
	defer lease.Close()

	s.nodesMu.Lock()
	targets := make([]*ap.BackscatterTarget, 0, len(s.nodes))
	for _, n := range s.nodes {
		targets = append(targets, localizationTarget(n))
	}
	s.nodesMu.Unlock()

	var all []NodeDetection
	for deg := cfg.StartDeg; deg <= cfg.StopDeg+scanSlackDeg; deg += cfg.StepDeg {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: discovery cancelled: %w", err)
		}
		steer := rfsim.DegToRad(deg)
		lease.Steer(steer)
		capt, err := lease.Chirps(capture.Request{Chirp: c, NChirps: s.cfg.LocalizationChirps, Targets: targets, Table: s.beams})
		if err != nil {
			return nil, fmt.Errorf("core: discovery capture: %w", err)
		}
		dets, err := s.AP.DetectTargets(c, capt.Frames, cfg.MaxTargetsPerPointing)
		capt.Release()
		if errors.Is(err, ap.ErrNoDetection) {
			continue // nothing visible from this pointing
		}
		if err != nil {
			return nil, fmt.Errorf("core: discovery detection: %w", err)
		}
		for _, d := range dets {
			all = append(all, NodeDetection{
				RangeM:      d.RangeM,
				AzimuthRad:  d.AzimuthRad,
				SNRdB:       d.PeakSNRdB,
				PointingRad: steer,
			})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("core: %w: discovery scan found no nodes", ap.ErrNoDetection)
	}
	merged := clusterDetections(all, cfg.MergeRangeM, rfsim.DegToRad(cfg.MergeAngleDeg))
	sort.Slice(merged, func(i, j int) bool { return merged[i].AzimuthRad < merged[j].AzimuthRad })
	return merged, nil
}

// clusterDetections greedily merges detections of the same physical node,
// keeping the strongest representative of each cluster.
func clusterDetections(dets []NodeDetection, rangeTol, angleTol float64) []NodeDetection {
	sort.Slice(dets, func(i, j int) bool { return dets[i].SNRdB > dets[j].SNRdB })
	var out []NodeDetection
	for _, d := range dets {
		match := false
		for _, o := range out {
			if math.Abs(d.RangeM-o.RangeM) < rangeTol &&
				math.Abs(rfsim.WrapAngle(d.AzimuthRad-o.AzimuthRad)) < angleTol {
				match = true
				break
			}
		}
		if !match {
			out = append(out, d)
		}
	}
	return out
}
