package proto

import (
	"context"
	"math"
	"testing"

	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func TestSuperframeFairAndThroughput(t *testing.T) {
	net := testNetwork(t)
	placements := []struct {
		pos    rfsim.Point
		orient float64
	}{
		{rfsim.PolarPoint(2, rfsim.DegToRad(-15)), 10},
		{rfsim.PolarPoint(3, rfsim.DegToRad(5)), -8},
		{rfsim.PolarPoint(4, rfsim.DegToRad(20)), 12},
	}
	for _, p := range placements {
		if _, err := net.Join(p.pos, p.orient); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.RunSuperframeContext(context.Background(), waveform.Uplink, 32, 4, 10e6)
	if err != nil {
		t.Fatalf("RunSuperframe: %v", err)
	}
	if len(res.PerNode) != 3 {
		t.Fatalf("per-node stats = %d", len(res.PerNode))
	}
	for i, st := range res.PerNode {
		if st.Packets != 4 {
			t.Errorf("node %d packets = %d, want 4", i, st.Packets)
		}
		if st.DeliveredBits != 4*32*8 {
			t.Errorf("node %d delivered %d bits, want %d", i, st.DeliveredBits, 4*32*8)
		}
		if st.ErroredBits != 0 {
			t.Errorf("node %d errored bits = %d", i, st.ErroredBits)
		}
		if st.AirtimeS <= 0 || st.EnergyJ <= 0 {
			t.Errorf("node %d accounting missing", i)
		}
	}
	// Equal service ⇒ perfect fairness.
	if math.Abs(res.Fairness-1) > 1e-9 {
		t.Errorf("fairness = %g, want 1", res.Fairness)
	}
	// Aggregate throughput is positive and bounded by the payload rate
	// (preamble overhead eats a big share at small payloads).
	if res.AggregateThroughputBps <= 0 || res.AggregateThroughputBps >= 10e6 {
		t.Errorf("aggregate throughput = %g bps", res.AggregateThroughputBps)
	}
	if res.TotalAirtimeS <= 0 {
		t.Error("total airtime missing")
	}
}

func TestSuperframeSurvivesBlockedNode(t *testing.T) {
	net := testNetwork(t)
	if _, err := net.Join(rfsim.Point{X: 2}, -10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(rfsim.PolarPoint(4, rfsim.DegToRad(25)), 8); err != nil {
		t.Fatal(err)
	}
	// Block node 0's bearing only (node 1 at 25° passes x=1 at y≈0.47,
	// outside this segment).
	net.System().AP.Scene().AddObstruction(rfsim.Obstruction{
		Name: "wall", A: rfsim.Point{X: 1, Y: -0.3}, B: rfsim.Point{X: 1, Y: 0.3}, LossDB: 40,
	})
	res, err := net.RunSuperframeContext(context.Background(), waveform.Uplink, 16, 3, 10e6)
	if err != nil {
		t.Fatalf("superframe should survive a blocked node: %v", err)
	}
	if res.PerNode[0].DeliveredBits != 0 {
		t.Errorf("blocked node delivered %d bits", res.PerNode[0].DeliveredBits)
	}
	if res.PerNode[0].AirtimeS <= 0 {
		t.Error("blocked node should still cost schedule airtime")
	}
	if res.PerNode[1].DeliveredBits != 3*16*8 {
		t.Errorf("clear node delivered %d bits", res.PerNode[1].DeliveredBits)
	}
	// Fairness collapses when one node starves: Jain's index = 0.5 for
	// (0, X).
	if math.Abs(res.Fairness-0.5) > 1e-9 {
		t.Errorf("fairness = %g, want 0.5", res.Fairness)
	}
}

func TestSuperframeValidation(t *testing.T) {
	net := testNetwork(t)
	if _, err := net.RunSuperframeContext(context.Background(), waveform.Uplink, 16, 1, 10e6); err == nil {
		t.Error("empty network should fail")
	}
	if _, err := net.Join(rfsim.Point{X: 2}, -10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunSuperframeContext(context.Background(), waveform.Uplink, 0, 1, 10e6); err == nil {
		t.Error("zero payload should fail")
	}
	if _, err := net.RunSuperframeContext(context.Background(), waveform.Uplink, 16, 0, 10e6); err == nil {
		t.Error("zero rounds should fail")
	}
	if _, err := net.RunSuperframeContext(context.Background(), waveform.Uplink, 16, 1, 0); err == nil {
		t.Error("zero rate should fail")
	}
}
