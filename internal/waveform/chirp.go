package waveform

import (
	"fmt"
	"math"
)

// ChirpShape selects the FMCW sweep profile.
type ChirpShape int

const (
	// Sawtooth sweeps FreqLow→FreqHigh linearly over the chirp duration and
	// snaps back. Used in preamble Field 2 for localization (§5.1).
	Sawtooth ChirpShape = iota
	// Triangular sweeps up for the first half and back down for the second.
	// Used in preamble Field 1 so the node can estimate its orientation from
	// the delay between the two received-power peaks (§5.2b, Fig 5).
	Triangular
)

// String implements fmt.Stringer.
func (s ChirpShape) String() string {
	switch s {
	case Sawtooth:
		return "sawtooth"
	case Triangular:
		return "triangular"
	default:
		return fmt.Sprintf("ChirpShape(%d)", int(s))
	}
}

// Chirp describes one FMCW sweep.
type Chirp struct {
	Shape    ChirpShape
	FreqLow  float64 // Hz
	FreqHigh float64 // Hz
	Duration float64 // s
}

// MilBackLocalizationChirp is the Field 2 chirp of the implementation (§8):
// 18 µs sawtooth spanning 26.5–29.5 GHz.
func MilBackLocalizationChirp() Chirp {
	return Chirp{Shape: Sawtooth, FreqLow: 26.5e9, FreqHigh: 29.5e9, Duration: 18e-6}
}

// MilBackOrientationChirp is the Field 1 chirp (§8): 45 µs triangular chirp,
// slowed down because the node's 1 MHz MCU ADC samples it.
func MilBackOrientationChirp() Chirp {
	return Chirp{Shape: Triangular, FreqLow: 26.5e9, FreqHigh: 29.5e9, Duration: 45e-6}
}

// Validate checks the chirp parameters.
func (c Chirp) Validate() error {
	if c.FreqHigh <= c.FreqLow || c.FreqLow <= 0 {
		return fmt.Errorf("waveform: invalid chirp band [%g, %g]", c.FreqLow, c.FreqHigh)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("waveform: chirp duration must be positive, got %g", c.Duration)
	}
	if c.Shape != Sawtooth && c.Shape != Triangular {
		return fmt.Errorf("waveform: unknown chirp shape %d", int(c.Shape))
	}
	return nil
}

// Bandwidth returns the swept bandwidth in Hz.
func (c Chirp) Bandwidth() float64 { return c.FreqHigh - c.FreqLow }

// Slope returns the sweep rate in Hz/s. For a triangular chirp this is the
// up-segment slope (the down segment has the negative of it); the full band
// is covered in half the duration.
func (c Chirp) Slope() float64 {
	switch c.Shape {
	case Triangular:
		return c.Bandwidth() / (c.Duration / 2)
	default:
		return c.Bandwidth() / c.Duration
	}
}

// FrequencyAt returns the instantaneous frequency at time t into the chirp
// (0 <= t <= Duration). Times outside the chirp are clamped to its ends.
func (c Chirp) FrequencyAt(t float64) float64 {
	if t < 0 {
		t = 0
	}
	if t > c.Duration {
		t = c.Duration
	}
	switch c.Shape {
	case Triangular:
		half := c.Duration / 2
		if t <= half {
			return c.FreqLow + c.Slope()*t
		}
		return c.FreqHigh - c.Slope()*(t-half)
	default:
		return c.FreqLow + c.Slope()*t
	}
}

// FrequencyForPeakSeparation maps Δt, the time between the two instants a
// triangular chirp passes through the node's beam-aligned frequency (the
// observable the node's MCU measures in Fig 5), back to that frequency. It
// panics for non-triangular chirps.
//
// Derivation: Δt = T/2 + (fLow + fHigh − 2f)/S  ⇒  f = (fLow + fHigh − S·(Δt − T/2)) / 2.
func (c Chirp) FrequencyForPeakSeparation(dt float64) float64 {
	if c.Shape != Triangular {
		panic("waveform: FrequencyForPeakSeparation requires a triangular chirp")
	}
	f := (c.FreqLow + c.FreqHigh - c.Slope()*(dt-c.Duration/2)) / 2
	if f < c.FreqLow {
		f = c.FreqLow
	}
	if f > c.FreqHigh {
		f = c.FreqHigh
	}
	return f
}

// SampleCount returns the number of samples a chirp occupies at sample rate
// fs (rounded down, at least 1).
func (c Chirp) SampleCount(fs float64) int {
	n := int(c.Duration * fs)
	if n < 1 {
		n = 1
	}
	return n
}

// BeatFrequency returns the dechirped beat frequency produced by a path with
// round-trip delay tau: f_beat = slope · τ (Fig 2: ToF = Δf / slope).
func (c Chirp) BeatFrequency(tau float64) float64 { return c.Slope() * tau }

// DelayForBeat inverts BeatFrequency.
func (c Chirp) DelayForBeat(fBeat float64) float64 { return fBeat / c.Slope() }

// InstantaneousFrequencies samples FrequencyAt on a uniform grid of n points
// across the chirp (t = i/fs).
func (c Chirp) InstantaneousFrequencies(fs float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c.FrequencyAt(float64(i) / fs)
	}
	return out
}

// Phase returns the accumulated phase 2π∫f dt at time t into the chirp,
// relative to t = 0. Useful for passband-accurate reconstructions in tests.
func (c Chirp) Phase(t float64) float64 {
	if t < 0 {
		t = 0
	}
	if t > c.Duration {
		t = c.Duration
	}
	s := c.Slope()
	switch c.Shape {
	case Triangular:
		half := c.Duration / 2
		if t <= half {
			return 2 * math.Pi * (c.FreqLow*t + 0.5*s*t*t)
		}
		base := 2 * math.Pi * (c.FreqLow*half + 0.5*s*half*half)
		dt := t - half
		return base + 2*math.Pi*(c.FreqHigh*dt-0.5*s*dt*dt)
	default:
		return 2 * math.Pi * (c.FreqLow*t + 0.5*s*t*t)
	}
}
