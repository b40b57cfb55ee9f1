package waveform

import "fmt"

// Direction is the payload direction a MilBack packet carries.
type Direction int

const (
	// Uplink: the node piggybacks its data on the AP's two-tone query.
	Uplink Direction = iota
	// Downlink: the AP sends OAQFM symbols to the node.
	Downlink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "uplink"
	case Downlink:
		return "downlink"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Field-1 signalling constants (§7): the number of triangular chirps in
// preamble Field 1 tells the node which direction the payload runs.
const (
	// UplinkField1Chirps — "if the AP sends three chirps during this field,
	// it means that the system operates in the uplink mode".
	UplinkField1Chirps = 3
	// DownlinkField1Chirps — "if the AP sends two chirps (with a gap in the
	// middle) ... the system operates in the downlink mode".
	DownlinkField1Chirps = 2
	// Field2Chirps — "During the second field of the preamble ... the AP
	// sends five FMCW sawtooth chirps" for localization (§5.1, §7).
	Field2Chirps = 5
)

// Field1ChirpCount returns the number of Field-1 chirps that signals the
// given direction.
func Field1ChirpCount(d Direction) int {
	if d == Uplink {
		return UplinkField1Chirps
	}
	return DownlinkField1Chirps
}

// PacketSpec describes one MilBack packet (Fig 8): a preamble whose Field 1
// (triangular chirps) carries orientation sensing + direction signalling and
// whose Field 2 (sawtooth chirps) carries localization, followed by an
// OAQFM payload of fixed, pre-agreed length.
type PacketSpec struct {
	Direction Direction
	// OrientationChirp is the Field 1 chirp (default: 45 µs triangular).
	OrientationChirp Chirp
	// LocalizationChirp is the Field 2 chirp (default: 18 µs sawtooth).
	LocalizationChirp Chirp
	// Field1Gap is the gap inserted between the two downlink-mode chirps.
	Field1Gap float64
	// PayloadSymbols is the pre-defined payload length in OAQFM symbols
	// ("the length of the payload is predefined for both AP and the nodes").
	PayloadSymbols int
	// SymbolDuration is the OAQFM symbol time in seconds.
	SymbolDuration float64
}

// DefaultPacketSpec returns the implementation parameters of §8 with the
// given direction and payload size: 1 µs symbols (the OAQFM
// micro-benchmark's symbol duration, §9.1).
func DefaultPacketSpec(d Direction, payloadSymbols int) PacketSpec {
	return PacketSpec{
		Direction:         d,
		OrientationChirp:  MilBackOrientationChirp(),
		LocalizationChirp: MilBackLocalizationChirp(),
		Field1Gap:         45e-6,
		PayloadSymbols:    payloadSymbols,
		SymbolDuration:    1e-6,
	}
}

// Validate checks the spec.
func (p PacketSpec) Validate() error {
	if err := p.OrientationChirp.Validate(); err != nil {
		return fmt.Errorf("field 1: %w", err)
	}
	if p.OrientationChirp.Shape != Triangular {
		return fmt.Errorf("waveform: Field 1 requires triangular chirps, got %v", p.OrientationChirp.Shape)
	}
	if err := p.LocalizationChirp.Validate(); err != nil {
		return fmt.Errorf("field 2: %w", err)
	}
	if p.LocalizationChirp.Shape != Sawtooth {
		return fmt.Errorf("waveform: Field 2 requires sawtooth chirps, got %v", p.LocalizationChirp.Shape)
	}
	if p.PayloadSymbols < 0 {
		return fmt.Errorf("waveform: negative payload length %d", p.PayloadSymbols)
	}
	if p.SymbolDuration <= 0 {
		return fmt.Errorf("waveform: symbol duration must be positive, got %g", p.SymbolDuration)
	}
	if p.Field1Gap < 0 {
		return fmt.Errorf("waveform: negative Field-1 gap %g", p.Field1Gap)
	}
	if p.Direction != Uplink && p.Direction != Downlink {
		return fmt.Errorf("waveform: unknown direction %d", int(p.Direction))
	}
	return nil
}

// Field1Duration returns the duration of preamble Field 1, including the
// mid-field gap in downlink mode.
func (p PacketSpec) Field1Duration() float64 {
	n := Field1ChirpCount(p.Direction)
	d := float64(n) * p.OrientationChirp.Duration
	if p.Direction == Downlink {
		d += p.Field1Gap
	}
	return d
}

// Field2Duration returns the duration of preamble Field 2.
func (p PacketSpec) Field2Duration() float64 {
	return Field2Chirps * p.LocalizationChirp.Duration
}

// PayloadDuration returns the payload airtime.
func (p PacketSpec) PayloadDuration() float64 {
	return float64(p.PayloadSymbols) * p.SymbolDuration
}

// Duration returns the total packet airtime.
func (p PacketSpec) Duration() float64 {
	return p.Field1Duration() + p.Field2Duration() + p.PayloadDuration()
}
