package proto

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func TestHammingNibbleRoundTrip(t *testing.T) {
	for v := 0; v < 16; v++ {
		var d [4]bool
		for b := 0; b < 4; b++ {
			d[b] = v>>uint(b)&1 == 1
		}
		cw := hammingEncodeNibble(d)
		got, corrected := hammingDecodeNibble(cw)
		if corrected {
			t.Errorf("clean codeword %d reported a correction", v)
		}
		if got != d {
			t.Errorf("nibble %d round trip failed: %v -> %v", v, d, got)
		}
	}
}

func TestHammingCorrectsEverySingleBitError(t *testing.T) {
	for v := 0; v < 16; v++ {
		var d [4]bool
		for b := 0; b < 4; b++ {
			d[b] = v>>uint(b)&1 == 1
		}
		cw := hammingEncodeNibble(d)
		for e := 0; e < 7; e++ {
			bad := cw
			bad[e] = !bad[e]
			got, corrected := hammingDecodeNibble(bad)
			if !corrected {
				t.Errorf("nibble %d, error at %d: correction not reported", v, e)
			}
			if got != d {
				t.Errorf("nibble %d, error at %d: decoded %v, want %v", v, e, got, d)
			}
		}
	}
}

func TestFECEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(data []byte, depthRaw uint8) bool {
		depth := 1 + int(depthRaw)%8
		bits := waveform.BytesToBits(data)
		coded, err := FECEncode(bits, depth)
		if err != nil {
			return false
		}
		back, corrections, err := FECDecode(coded, depth, len(bits))
		if err != nil || corrections != 0 {
			return false
		}
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFECCorrectsScatteredErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := make([]byte, 64)
	rng.Read(data)
	bits := waveform.BytesToBits(data)
	coded, err := FECEncode(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One error per codeword: all corrected.
	for cw := 0; cw*7 < len(coded); cw++ {
		pos := cw*7 + rng.Intn(7)
		coded[pos] = !coded[pos]
	}
	back, corrections, err := FECDecode(coded, 1, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	if corrections == 0 {
		t.Error("no corrections reported")
	}
	for i := range bits {
		if bits[i] != back[i] {
			t.Fatalf("bit %d wrong after correction", i)
		}
	}
}

func TestInterleaverBreaksBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	data := make([]byte, 64)
	rng.Read(data)
	bits := waveform.BytesToBits(data)
	burst := 6 // a 6-bit channel burst
	check := func(depth int) bool {
		coded, err := FECEncode(bits, depth)
		if err != nil {
			t.Fatal(err)
		}
		start := 35
		for i := start; i < start+burst; i++ {
			coded[i] = !coded[i]
		}
		back, _, err := FECDecode(coded, depth, len(bits))
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	// Without interleaving the burst lands in one or two codewords and
	// overwhelms them.
	if check(1) {
		t.Error("6-bit burst should defeat uninterleaved Hamming(7,4)")
	}
	// With depth ≥ burst the errors scatter one per codeword and all
	// correct.
	if !check(8) {
		t.Error("depth-8 interleaving should absorb a 6-bit burst")
	}
}

func TestInterleaveRoundTripProperty(t *testing.T) {
	f := func(data []byte, depthRaw uint8) bool {
		depth := 1 + int(depthRaw)%10
		bits := waveform.BytesToBits(data)
		back := deinterleave(interleave(bits, depth), depth)
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFECValidation(t *testing.T) {
	if _, err := FECEncode([]bool{true}, 0); err == nil {
		t.Error("zero depth encode should fail")
	}
	if _, _, err := FECDecode([]bool{true}, 0, 1); err == nil {
		t.Error("zero depth decode should fail")
	}
	if _, _, err := FECDecode(make([]bool, 6), 1, 4); err == nil {
		t.Error("non-codeword length should fail")
	}
}

func TestSendFECEndToEnd(t *testing.T) {
	sys := testSystem(t)
	s, err := join(sys, rfsim.PolarPoint(2.5, rfsim.DegToRad(5)), -10)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("forward error corrected payload")
	fec := Coding{FEC: true}
	res, err := s.Transfer(context.Background(), waveform.Uplink, data, 10e6, fec)
	if err != nil {
		t.Fatalf("FEC transfer: %v", err)
	}
	if !bytes.Equal(res.Payload, data) {
		t.Fatalf("payload = %q", res.Payload)
	}
	if res.Corrections != 0 || res.Attempts != 1 {
		t.Errorf("clean 2.5 m link reported %d corrections in %d attempts", res.Corrections, res.Attempts)
	}
	// The wire carries the Hamming(7,4)-coded frame, padded to whole bytes.
	if want := (7*2*(len(data)+frameOverhead) + 7) / 8 * 8; res.BitsSent != want {
		t.Errorf("bits sent = %d, want the %d-bit coded frame", res.BitsSent, want)
	}
	// Downlink too.
	res, err = s.Transfer(context.Background(), waveform.Downlink, data, 36e6, fec)
	if err != nil || !bytes.Equal(res.Payload, data) {
		t.Fatalf("downlink FEC: %v, %q", err, res.Payload)
	}
	if _, err := s.Transfer(context.Background(), waveform.Uplink, nil, 10e6, fec); err == nil {
		t.Error("empty payload should fail")
	}
}

func TestFECExtendsUsableRange(t *testing.T) {
	// At a marginal distance/rate, uncoded single-shot transfers fail their
	// CRC most of the time while FEC repairs the scattered errors. Compare
	// success counts over several seeds. At 7.5 m / 40 Mbps FEC succeeds on
	// most trials and uncoded on almost none, so the margin is several
	// successes wide rather than one.
	sys := testSystem(t)
	s, err := join(sys, rfsim.PolarPoint(7.5, 0), -10)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5C}, 48)
	uncodedOK, fecOK := 0, 0
	const trials = 16
	for i := 0; i < trials; i++ {
		if r, err := s.Transfer(context.Background(), waveform.Uplink, data, 40e6, Coding{MaxAttempts: 1}); err == nil && bytes.Equal(r.Payload, data) {
			uncodedOK++
		}
		if r, err := s.Transfer(context.Background(), waveform.Uplink, data, 40e6, Coding{FEC: true}); err == nil && bytes.Equal(r.Payload, data) {
			fecOK++
		}
	}
	if fecOK <= uncodedOK || fecOK < uncodedOK+trials/4 {
		t.Errorf("FEC successes (%d/%d) should exceed uncoded (%d/%d) by at least %d at 7.5 m / 40 Mbps",
			fecOK, trials, uncodedOK, trials, trials/4)
	}
	t.Logf("7.5 m / 40 Mbps: FEC %d/%d, uncoded %d/%d", fecOK, trials, uncodedOK, trials)
}
