package rfsim

import (
	"fmt"
	"math"
)

// Reflector is a static clutter object in the environment — a wall, desk, or
// shelf. Its radar cross-section (RCS, m²) sets how strongly it reflects.
// Typical indoor values: a wall section ~10 m², a metal shelf ~1 m², a desk
// ~0.5 m². Clutter reflections are what MilBack's background subtraction
// (§5.1) must remove before the node's weak modulated reflection becomes
// visible.
type Reflector struct {
	Name     string
	Position Point
	RCS      float64
}

// Scene is the simulated indoor environment: a set of static reflectors
// plus any blocking obstructions (see Obstruction). Nothing is derived from
// it ahead of time — each capture reads the slices as they stand — so a
// live scene may be edited through AddObstruction/RemoveObstruction or by
// editing the slices directly, as long as the edit is serialized against
// captures (the airtime scheduler does that for the protocol layer).
type Scene struct {
	Reflectors   []Reflector
	Obstructions []Obstruction
}

// DefaultIndoorScene reproduces the evaluation environment of §9: "an indoor
// environment, with the presence of objects such as tables, chairs, and
// shelves".
func DefaultIndoorScene() *Scene {
	return &Scene{Reflectors: []Reflector{
		{Name: "back wall", Position: Point{X: 12, Y: 0}, RCS: 10},
		{Name: "side wall", Position: Point{X: 6, Y: 4}, RCS: 8},
		{Name: "desk", Position: Point{X: 3, Y: -1.5}, RCS: 0.5},
		{Name: "metal shelf", Position: Point{X: 7, Y: 2.5}, RCS: 1.5},
		{Name: "chair", Position: Point{X: 4.5, Y: 1}, RCS: 0.2},
	}}
}

// EmptyScene returns a scene with no clutter (anechoic conditions), useful
// for micro-benchmarks and ablations.
func EmptyScene() *Scene { return &Scene{} }

// Path is one propagation path from the AP transmitter, off an object, back
// to an AP receive antenna — the unit the dechirped-domain FMCW synthesizer
// consumes. Amplitude is a linear voltage gain relative to the transmitted
// waveform (it already includes antenna gains, path loss and RCS);
// Delay is the total round-trip delay in seconds.
type Path struct {
	Name      string
	Delay     float64
	Amplitude float64
	// AoARad is the arrival azimuth at the AP, used to compute the phase
	// offset between the two receive antennas.
	AoARad float64
}

// radarAmplitude evaluates the radar-equation voltage gain of a monostatic
// path: sqrt( Gt·Gr·λ²·σ / ((4π)³·d⁴) ).
func radarAmplitude(gtDBi, grDBi, d, f, rcs float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("rfsim: radar path distance must be positive, got %g", d))
	}
	lambda := Wavelength(f)
	gt := math.Pow(10, gtDBi/10)
	gr := math.Pow(10, grDBi/10)
	p := gt * gr * lambda * lambda * rcs / (math.Pow(4*math.Pi, 3) * math.Pow(d, 4))
	return math.Sqrt(p)
}

// AppendClutterPaths appends to dst the round-trip paths off every
// reflector in the scene, in reflector order, for an AP at the origin with
// the given transmit and receive horn antennas, evaluated at carrier
// frequency f, and returns the extended slice. Passing a reused dst[:0]
// makes the derivation allocation-free once dst has grown to the scene.
func (s *Scene) AppendClutterPaths(dst []Path, tx, rx *Antenna, f float64) []Path {
	origin := Point{}
	for _, r := range s.Reflectors {
		d := r.Position.Distance(origin)
		az := r.Position.AngleFrom(origin)
		amp := radarAmplitude(tx.GainDBi(az), rx.GainDBi(az), d, f, r.RCS)
		// Obstructions attenuate the clutter path twice (out and back):
		// one-way loss L dB ⇒ round-trip amplitude factor 10^(−L/10).
		if loss := s.ObstructionLossDB(origin, r.Position); loss > 0 {
			amp *= math.Pow(10, -loss/10)
		}
		dst = append(dst, Path{
			Name:      r.Name,
			Delay:     2 * PropagationDelay(d),
			Amplitude: amp,
			AoARad:    az,
		})
	}
	return dst
}

// BackscatterAmplitude returns the linear voltage gain of the AP→node→AP
// path when the node presents an effective reflection gain of nodeGainDBi
// (the FSA's reflective-mode gain counts twice: once receiving, once
// re-radiating; callers pass the combined figure).
func BackscatterAmplitude(txDBi, rxDBi, nodeGainDBi, d, f float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("rfsim: backscatter distance must be positive, got %g", d))
	}
	lambda := Wavelength(f)
	// Two Friis legs with the node's aperture in the middle. Using the
	// bistatic radar form with effective RCS σ_eff = Gnode²λ²/(4π):
	gt := math.Pow(10, txDBi/10)
	gr := math.Pow(10, rxDBi/10)
	gn := math.Pow(10, nodeGainDBi/10)
	sigmaEff := gn * gn * lambda * lambda / (4 * math.Pi)
	p := gt * gr * lambda * lambda * sigmaEff / (math.Pow(4*math.Pi, 3) * math.Pow(d, 4))
	return math.Sqrt(p)
}

// OneWayAmplitude returns the linear voltage gain of a one-way AP→node link
// (downlink): sqrt(Gt·Gn·(λ/4πd)²).
func OneWayAmplitude(txDBi, nodeDBi, d, f float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("rfsim: one-way distance must be positive, got %g", d))
	}
	lambda := Wavelength(f)
	gt := math.Pow(10, txDBi/10)
	gn := math.Pow(10, nodeDBi/10)
	fr := lambda / (4 * math.Pi * d)
	return math.Sqrt(gt * gn * fr * fr)
}
