package waveform

import (
	"math"
	"testing"
)

func TestDirectionSignalling(t *testing.T) {
	if Field1ChirpCount(Uplink) != 3 {
		t.Error("uplink should signal with 3 chirps (§7)")
	}
	if Field1ChirpCount(Downlink) != 2 {
		t.Error("downlink should signal with 2 chirps (§7)")
	}
	if Uplink.String() != "uplink" || Downlink.String() != "downlink" {
		t.Error("direction names")
	}
}

func TestDefaultPacketSpec(t *testing.T) {
	p := DefaultPacketSpec(Uplink, 100)
	if err := p.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if p.OrientationChirp.Shape != Triangular {
		t.Error("Field 1 chirp must be triangular")
	}
	if p.LocalizationChirp.Shape != Sawtooth {
		t.Error("Field 2 chirp must be sawtooth")
	}
}

func TestPacketDurations(t *testing.T) {
	up := DefaultPacketSpec(Uplink, 200)
	// Field 1 uplink: 3 x 45 µs.
	if d := up.Field1Duration(); math.Abs(d-135e-6) > 1e-12 {
		t.Errorf("uplink Field 1 = %g, want 135 µs", d)
	}
	down := DefaultPacketSpec(Downlink, 200)
	// Field 1 downlink: 2 x 45 µs + 45 µs gap.
	if d := down.Field1Duration(); math.Abs(d-135e-6) > 1e-12 {
		t.Errorf("downlink Field 1 = %g, want 135 µs (2 chirps + gap)", d)
	}
	// Field 2: 5 x 18 µs = 90 µs.
	if d := up.Field2Duration(); math.Abs(d-90e-6) > 1e-12 {
		t.Errorf("Field 2 = %g, want 90 µs", d)
	}
	// Payload: 200 x 1 µs.
	if d := up.PayloadDuration(); math.Abs(d-200e-6) > 1e-12 {
		t.Errorf("payload = %g, want 200 µs", d)
	}
	if d := up.Duration(); math.Abs(d-(135e-6+90e-6+200e-6)) > 1e-12 {
		t.Errorf("total = %g", d)
	}
}

func TestPacketSpecValidation(t *testing.T) {
	base := DefaultPacketSpec(Uplink, 10)
	mutations := []func(*PacketSpec){
		func(p *PacketSpec) { p.OrientationChirp.Shape = Sawtooth },
		func(p *PacketSpec) { p.LocalizationChirp.Shape = Triangular },
		func(p *PacketSpec) { p.OrientationChirp.Duration = 0 },
		func(p *PacketSpec) { p.LocalizationChirp.FreqHigh = 0 },
		func(p *PacketSpec) { p.PayloadSymbols = -1 },
		func(p *PacketSpec) { p.SymbolDuration = 0 },
		func(p *PacketSpec) { p.Field1Gap = -1 },
		func(p *PacketSpec) { p.Direction = Direction(9) },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}
