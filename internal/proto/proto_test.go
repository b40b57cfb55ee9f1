package proto

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// testSystem builds a default single-AP system in the indoor scene.
func testSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// join adds a node to sys and opens its session on the stream a base-seed-1
// AP gives its k-th node (k = the join order, from 1).
func join(sys *core.System, pos rfsim.Point, orientationDeg float64) (*Session, error) {
	k := len(sys.Nodes()) + 1
	n, err := sys.AddNode(pos, orientationDeg)
	if err != nil {
		return nil, err
	}
	return NewSession(sys, n, DeriveSessionSeed(1, k))
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, nil, 1); err == nil {
		t.Fatal("nil args should fail")
	}
	sys := testSystem(t)
	s, err := join(sys, rfsim.Point{X: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Transfer(ctx, waveform.Downlink, nil, 36e6, Coding{}); err == nil {
		t.Error("empty payload should fail")
	}
	for _, rate := range []float64{0, -5, math.NaN()} {
		if _, err := s.Transfer(ctx, waveform.Downlink, []byte{1}, rate, Coding{}); err == nil {
			t.Errorf("rate %g should fail", rate)
		}
	}
	if _, err := s.Transfer(ctx, waveform.Direction(9), []byte{1}, 36e6, Coding{}); err == nil {
		t.Error("bad direction should fail")
	}
}

func TestDownlinkPacketEndToEnd(t *testing.T) {
	sys := testSystem(t)
	s, err := join(sys, rfsim.PolarPoint(3, rfsim.DegToRad(6)), -12)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("protocol downlink payload")
	out, err := s.runPacket(context.Background(), waveform.Downlink, payload, 36e6)
	if err != nil {
		t.Fatalf("RunPacket: %v", err)
	}
	if out.Direction != waveform.Downlink {
		t.Errorf("direction = %v", out.Direction)
	}
	if !bytes.Equal(out.Payload, payload) || out.BitErrors != 0 {
		t.Errorf("payload corrupted: %q, %d errors", out.Payload, out.BitErrors)
	}
	// Both orientation estimates close to ground truth (-12°).
	if math.Abs(out.NodeOrientation.EstimateDeg+12) > 3 {
		t.Errorf("node orientation = %.2f", out.NodeOrientation.EstimateDeg)
	}
	if math.Abs(out.Localization.OrientationDeg+12) > 3 {
		t.Errorf("AP orientation = %.2f", out.Localization.OrientationDeg)
	}
	if math.Abs(out.Localization.RangeM-3) > 0.3 {
		t.Errorf("range = %.3f", out.Localization.RangeM)
	}
	if out.AirtimeS <= 0 || out.NodeEnergyJ <= 0 {
		t.Errorf("accounting: airtime %g, energy %g", out.AirtimeS, out.NodeEnergyJ)
	}
	if out.BER() != 0 {
		t.Errorf("BER = %g", out.BER())
	}
}

func TestUplinkPacketEndToEnd(t *testing.T) {
	sys := testSystem(t)
	s, err := join(sys, rfsim.PolarPoint(2.5, rfsim.DegToRad(-10)), 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sensor reading: 21.5C")
	out, err := s.runPacket(context.Background(), waveform.Uplink, payload, 10e6)
	if err != nil {
		t.Fatalf("RunPacket: %v", err)
	}
	if !bytes.Equal(out.Payload, payload) || out.BitErrors != 0 {
		t.Errorf("uplink payload corrupted: %q", out.Payload)
	}
	if out.Direction != waveform.Uplink {
		t.Errorf("direction = %v", out.Direction)
	}
}

func TestUplinkCostsMoreEnergyPerSecondThanDownlink(t *testing.T) {
	// §9.6: uplink runs the switches at symbol rate (32 mW) vs downlink's
	// 18 mW. With equal payload sizes and rates, the uplink packet must
	// consume more node energy.
	sys := testSystem(t)
	s, err := join(sys, rfsim.Point{X: 2}, -10)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64)
	up, err := s.runPacket(context.Background(), waveform.Uplink, payload, 36e6)
	if err != nil {
		t.Fatal(err)
	}
	down, err := s.runPacket(context.Background(), waveform.Downlink, payload, 36e6)
	if err != nil {
		t.Fatal(err)
	}
	if up.NodeEnergyJ <= down.NodeEnergyJ {
		t.Errorf("uplink energy %g <= downlink %g", up.NodeEnergyJ, down.NodeEnergyJ)
	}
}

func TestAirtimeAccounting(t *testing.T) {
	sys := testSystem(t)
	s, err := join(sys, rfsim.Point{X: 2}, -10)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xFF}
	out, err := s.runPacket(context.Background(), waveform.Uplink, payload, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	spec := waveform.DefaultPacketSpec(waveform.Uplink, 0)
	wantMin := spec.Field1Duration() + spec.Field2Duration()
	if out.AirtimeS <= wantMin {
		t.Errorf("airtime %g should exceed preamble %g", out.AirtimeS, wantMin)
	}
	if out.BitsSent != 8 {
		t.Errorf("bits sent = %d, want 8", out.BitsSent)
	}
}

// TestPollAllServesEveryNode polls the cell: one exchange per session in
// join order, each run as an engine job on the session's own queue, and
// each must reach its own node.
func TestPollAllServesEveryNode(t *testing.T) {
	sys := testSystem(t)
	eng := NewEngine(EngineConfig{Obs: sys.Obs()})
	defer eng.Close()
	var sessions []*Session
	for _, p := range []struct {
		pos    rfsim.Point
		orient float64
	}{
		{rfsim.PolarPoint(2, rfsim.DegToRad(-12)), 8},
		{rfsim.PolarPoint(3.5, rfsim.DegToRad(14)), -15},
	} {
		s, err := join(sys, p.pos, p.orient)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	payload := []byte("poll")
	for i, s := range sessions {
		var o PacketOutcome
		err := eng.Run(context.Background(), i+1, func(ctx context.Context) (JobReport, error) {
			var err error
			o, err = s.runPacket(ctx, waveform.Uplink, payload, 10e6)
			return JobReport{Exchange: true, BitsSent: o.BitsSent, AirtimeS: o.AirtimeS}, err
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(o.Payload, payload) {
			t.Errorf("node %d payload corrupted", i)
		}
		// Each node's localization should reflect ITS position.
		wantRange := s.Node().Distance()
		if math.Abs(o.Localization.RangeM-wantRange) > 0.3 {
			t.Errorf("node %d range = %.3f, want %.3f", i, o.Localization.RangeM, wantRange)
		}
	}
	if st := eng.Stats(); st.Exchanges != 2 || st.BitsSent != 2*8*uint64(len(payload)) {
		t.Errorf("engine stats %+v, want 2 exchanges of %d bits", st, 8*len(payload))
	}
}
