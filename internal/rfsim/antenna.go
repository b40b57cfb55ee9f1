package rfsim

import (
	"fmt"
	"math"
)

// Antenna models a directional antenna by its boresight gain and half-power
// beamwidth. MilBack's AP uses Mi-Wave 261(34)-20/595 horn antennas with
// 20 dB gain (§8); the Gaussian-beam approximation below is the standard
// behavioural model for a horn main lobe plus a sidelobe floor.
type Antenna struct {
	// BoresightGainDBi is the peak gain in dBi.
	BoresightGainDBi float64
	// BeamwidthDeg is the half-power (−3 dB) beamwidth in degrees.
	BeamwidthDeg float64
	// SidelobeFloorDB is the gain, relative to boresight, outside the main
	// lobe (a negative number, e.g. −25).
	SidelobeFloorDB float64
	// PointingRad is the boresight direction in radians in the world frame.
	PointingRad float64
}

// GainDBi returns the antenna gain toward the given world-frame azimuth.
// The main lobe is Gaussian in dB: G(θ) = G0 − 12 (θ/BW)², floored at the
// sidelobe level.
func (a *Antenna) GainDBi(azimuthRad float64) float64 {
	if a.BeamwidthDeg <= 0 {
		panic(fmt.Sprintf("rfsim: antenna beamwidth must be positive, got %g", a.BeamwidthDeg))
	}
	off := RadToDeg(math.Abs(WrapAngle(azimuthRad - a.PointingRad)))
	rolloff := 12 * (off / a.BeamwidthDeg) * (off / a.BeamwidthDeg)
	floor := -a.SidelobeFloorDB
	if rolloff > floor {
		rolloff = floor
	}
	return a.BoresightGainDBi - rolloff
}

// Point steers the antenna boresight (the paper mechanically steers the
// AP's horns; a phased-array AP would do this electronically).
func (a *Antenna) Point(azimuthRad float64) { a.PointingRad = azimuthRad }

// RxArray is the AP's two-element receive array. The elements are separated
// by Spacing meters along the y axis; the phase difference of an arriving
// plane wave across the pair encodes its direction:
//
//	Δφ = 2π·d·sin(θ)/λ
//
// which the AP inverts to estimate the node's angle (§9.2).
type RxArray struct {
	// Spacing between the two receive antennas in meters.
	Spacing float64
}

// AngleFromPhase inverts Δφ = 2π·d·sin(θ)/λ: it returns the arrival azimuth
// (radians) implied by a measured inter-element phase difference at
// frequency f.
// Phases outside the unambiguous range are clamped to ±90°.
func (r *RxArray) AngleFromPhase(deltaPhi, f float64) float64 {
	s := deltaPhi * Wavelength(f) / (2 * math.Pi * r.Spacing)
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return math.Asin(s)
}
