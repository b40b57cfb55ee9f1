package proto

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func testNetwork(t *testing.T) *Network {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	if err != nil {
		t.Fatal(err)
	}
	return NewNetwork(sys, NetworkOptions{BaseSeed: 1})
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, nil, 1); err == nil {
		t.Fatal("nil args should fail")
	}
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunPacketContext(context.Background(), waveform.Downlink, nil, 36e6); err == nil {
		t.Error("empty payload should fail")
	}
	if _, err := s.RunPacketContext(context.Background(), waveform.Downlink, []byte{1}, 0); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := s.RunPacketContext(context.Background(), waveform.Direction(9), []byte{1}, 36e6); err == nil {
		t.Error("bad direction should fail")
	}
}

func TestDownlinkPacketEndToEnd(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.PolarPoint(3, rfsim.DegToRad(6)), -12)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("protocol downlink payload")
	out, err := s.RunPacketContext(context.Background(), waveform.Downlink, payload, 36e6)
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
	if s.LastOutcome == nil {
		t.Error("LastOutcome not cached")
	}
	if out.BER() != 0 {
		t.Errorf("BER = %g", out.BER())
	}
}

func TestUplinkPacketEndToEnd(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.PolarPoint(2.5, rfsim.DegToRad(-10)), 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sensor reading: 21.5C")
	out, err := s.RunPacketContext(context.Background(), waveform.Uplink, payload, 10e6)
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
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 2}, -10)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64)
	up, err := s.RunPacketContext(context.Background(), waveform.Uplink, payload, 36e6)
	if err != nil {
		t.Fatal(err)
	}
	down, err := s.RunPacketContext(context.Background(), waveform.Downlink, payload, 36e6)
	if err != nil {
		t.Fatal(err)
	}
	if up.NodeEnergyJ <= down.NodeEnergyJ {
		t.Errorf("uplink energy %g <= downlink %g", up.NodeEnergyJ, down.NodeEnergyJ)
	}
}

func TestAirtimeAccounting(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 2}, -10)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xFF}
	out, err := s.RunPacketContext(context.Background(), waveform.Uplink, payload, 10e6)
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

// TestPollAllServesEveryNode polls the cell: one scheduled exchange per
// session in join order, each of which must reach its own node.
func TestPollAllServesEveryNode(t *testing.T) {
	net := testNetwork(t)
	for _, p := range []struct {
		pos    rfsim.Point
		orient float64
	}{
		{rfsim.PolarPoint(2, rfsim.DegToRad(-12)), 8},
		{rfsim.PolarPoint(3.5, rfsim.DegToRad(14)), -15},
	} {
		if _, err := net.Join(p.pos, p.orient); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("poll")
	var outs []PacketOutcome
	for i, s := range net.Sessions() {
		o, err := net.ExchangeContext(context.Background(), s, waveform.Uplink, payload, 10e6)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		outs = append(outs, o)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for i, o := range outs {
		if !bytes.Equal(o.Payload, payload) {
			t.Errorf("node %d payload corrupted", i)
		}
		// Each node's localization should reflect ITS position.
		wantRange := net.Sessions()[i].Node().Distance()
		if math.Abs(o.Localization.RangeM-wantRange) > 0.3 {
			t.Errorf("node %d range = %.3f, want %.3f", i, o.Localization.RangeM, wantRange)
		}
	}
	if net.System() == nil {
		t.Error("System accessor broken")
	}
}

// TestDiscoverContextHonoursJobContext pins that a discovery job sweeps
// under the job's effective context: a client that goes away after the
// sweep is granted airtime (cancelled here from the admission hook, which
// runs between the scheduler's own check and the job) stops the sweep
// before its first pointing, with ErrCancelled wrapping context.Canceled
// and no capture lease left open.
func TestDiscoverContextHonoursJobContext(t *testing.T) {
	sys, err := core.NewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := NewNetwork(sys, NetworkOptions{BaseSeed: 1, Admit: func() func() {
		cancel()
		return func() {}
	}})
	defer net.Close()
	for _, az := range []float64{-20, 0, 20} {
		if _, err := net.Join(rfsim.PolarPoint(3, rfsim.DegToRad(az)), 5); err != nil {
			t.Fatal(err)
		}
	}
	_, err = net.DiscoverContext(ctx, core.DefaultScanConfig())
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	snap := sys.Obs().Snapshot()
	if got := snap.Counters[obs.MetricCapturesAcquired]; got != 0 {
		t.Errorf("cancelled sweep still captured %d pointings", got)
	}
	if opened, closed := snap.Counters[obs.MetricLeasesOpened], snap.Counters[obs.MetricLeasesClosed]; opened != closed {
		t.Errorf("%d leases opened but %d closed", opened, closed)
	}
}
