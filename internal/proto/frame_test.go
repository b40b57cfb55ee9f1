package proto

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seq, flags uint8, payload []byte) bool {
		fr := Frame{Seq: seq, Flags: flags, Payload: payload}
		wire, err := fr.Encode()
		if err != nil {
			return len(payload) > MaxFramePayload
		}
		got, err := DecodeFrame(wire)
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Flags == flags && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFrameDetectsCorruption(t *testing.T) {
	fr := Frame{Seq: 7, Flags: FlagFinal, Payload: []byte("integrity matters")}
	wire, err := fr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip every single bit in turn: every corruption must be caught.
	for i := 0; i < len(wire)*8; i++ {
		mut := append([]byte(nil), wire...)
		mut[i/8] ^= 1 << (i % 8)
		if _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("bit flip at %d not detected", i)
		}
	}
}

func TestDecodeFrameTruncation(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Error("short frame should fail")
	}
	fr := Frame{Seq: 1, Payload: []byte{1, 2, 3, 4}}
	wire, _ := fr.Encode()
	if _, err := DecodeFrame(wire[:len(wire)-1]); err == nil {
		t.Error("truncated frame should fail")
	}
	// Extra byte: length mismatch.
	if _, err := DecodeFrame(append(wire, 0)); err == nil {
		t.Error("padded frame should fail")
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := crc16CCITT([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16 = %04x, want 29b1", got)
	}
}

func TestSendReliableSucceedsOnGoodLink(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.PolarPoint(2.5, rfsim.DegToRad(5)), -10)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("reliable uplink payload")
	res, err := s.SendReliableContext(context.Background(), waveform.Uplink, data, 10e6, 3)
	if err != nil {
		t.Fatalf("SendReliable: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Errorf("data = %q", res.Data)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 on a strong link", res.Attempts)
	}
	if res.TotalAirtimeS <= 0 || res.NodeEnergyJ <= 0 {
		t.Error("accounting missing")
	}
	// Downlink direction too.
	res, err = s.SendReliableContext(context.Background(), waveform.Downlink, data, 36e6, 3)
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("reliable downlink: %v, %q", err, res.Data)
	}
}

func TestSendReliableRetriesOnWeakLink(t *testing.T) {
	// 9.5 m at 40 Mbps: BER around 1e-2 — a ~46-byte frame (368 bits) fails
	// its CRC most of the time, so ARQ must retry, and often ultimately
	// fail within 3 attempts. Both behaviours are acceptable; what must
	// hold is: (a) no corrupted payload is ever delivered, (b) failures are
	// reported, (c) retries happen.
	net := testNetwork(t)
	s, err := net.Join(rfsim.PolarPoint(9.5, 0), -10)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA7}, 40)
	sawRetry := false
	for trial := 0; trial < 6; trial++ {
		res, err := s.SendReliableContext(context.Background(), waveform.Uplink, data, 40e6, 3)
		if err == nil {
			if !bytes.Equal(res.Data, data) {
				t.Fatalf("corrupted payload delivered as success: %x", res.Data)
			}
			if res.Attempts > 1 {
				sawRetry = true
			}
		} else if res.Attempts != 3 {
			t.Fatalf("failed transfer reported %d attempts, want 3", res.Attempts)
		} else {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("expected at least one retry or failure on a 9.5 m / 40 Mbps link")
	}
}

func TestSendReliableValidation(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendReliableContext(context.Background(), waveform.Uplink, []byte{1}, 10e6, 0); err == nil {
		t.Error("zero attempts should fail")
	}
	big := make([]byte, MaxFramePayload+1)
	if _, err := (Frame{Payload: big}).Encode(); err == nil {
		t.Error("oversized frame should fail")
	}
}

func TestFrameSeqIncrements(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 2}, -10)
	if err != nil {
		t.Fatal(err)
	}
	a := s.nextFrameSeq()
	b := s.nextFrameSeq()
	if b != a+1 {
		t.Errorf("sequence %d then %d", a, b)
	}
	s.frameSeq = maxSeq - 1
	if got := s.nextFrameSeq(); got != 0 {
		t.Errorf("sequence should wrap to 0, got %d", got)
	}
}

func TestRateControllerPick(t *testing.T) {
	rc := DefaultRateController()
	// Very strong link: fastest rate.
	r, ok, err := rc.Pick(40, 10e6)
	if err != nil || !ok || r != 160e6 {
		t.Errorf("strong link picked %g (%v, %v), want 160 Mbps", r, ok, err)
	}
	// Weak link: slowest rate, maybe not ok.
	r, ok, err = rc.Pick(2, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	if r != 5e6 {
		t.Errorf("weak link picked %g, want 5 Mbps", r)
	}
	_ = ok
	// Monotone: higher SNR never picks a slower rate.
	prev := 0.0
	for snr := 0.0; snr <= 40; snr += 2 {
		r, _, err := rc.Pick(snr, 10e6)
		if err != nil {
			t.Fatal(err)
		}
		if r < prev {
			t.Fatalf("rate decreased with SNR at %g dB", snr)
		}
		prev = r
	}
}

func TestRateControllerValidation(t *testing.T) {
	bad := []RateController{
		{Rates: nil, TargetBER: 1e-6},
		{Rates: []float64{10e6, 20e6}, TargetBER: 1e-6},               // increasing
		{Rates: []float64{10e6, -1}, TargetBER: 1e-6},                 // non-positive
		{Rates: []float64{10e6}, TargetBER: 0},                        // bad target
		{Rates: []float64{10e6}, TargetBER: 0.7, ProcessingGainDB: 0}, // bad target
	}
	for i, rc := range bad {
		if _, _, err := rc.Pick(10, 10e6); err == nil {
			t.Errorf("controller %d: expected error", i)
		}
	}
	rc := DefaultRateController()
	if _, _, err := rc.Pick(10, 0); err == nil {
		t.Error("zero reference rate should fail")
	}
}

func TestAdaptUplinkEndToEnd(t *testing.T) {
	net := testNetwork(t)
	near, err := net.Join(rfsim.Point{X: 1.5}, -10)
	if err != nil {
		t.Fatal(err)
	}
	far, err := net.Join(rfsim.Point{X: 9}, -10)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRateController()
	rNear, okNear, err := near.AdaptUplink(rc)
	if err != nil {
		t.Fatal(err)
	}
	rFar, _, err := far.AdaptUplink(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rNear <= rFar {
		t.Errorf("near rate %g should exceed far rate %g", rNear, rFar)
	}
	if !okNear {
		t.Error("near link should meet the BER target")
	}
	// The adapted rate actually works: run a reliable transfer at it.
	res, err := near.SendReliableContext(context.Background(), waveform.Uplink, []byte("adapted"), rNear, 2)
	if err != nil {
		t.Fatalf("transfer at adapted rate %g: %v", rNear, err)
	}
	if res.Attempts != 1 {
		t.Errorf("adapted-rate transfer needed %d attempts", res.Attempts)
	}
}
