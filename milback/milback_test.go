package milback

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// newTestCluster builds a cluster that is closed when the test ends.
func newTestCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// mustJoin joins a node at (x, y) facing orient, failing the test on error.
func mustJoin(t *testing.T, c *Cluster, x, y, orient float64) NodeID {
	t.Helper()
	id, err := c.Join(context.Background(), x, y, orient)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(5))
	n := mustJoin(t, c, 3, 0.5, -10)
	pos, err := c.Localize(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	trueD := math.Hypot(3, 0.5)
	if math.Abs(pos.RangeM-trueD) > 0.3 {
		t.Errorf("range = %.3f, want ~%.3f", pos.RangeM, trueD)
	}
	wantAz := 180 / math.Pi * math.Atan2(0.5, 3)
	if math.Abs(pos.AzimuthDeg-wantAz) > 5 {
		t.Errorf("azimuth = %.2f, want ~%.2f", pos.AzimuthDeg, wantAz)
	}
	if math.Abs(pos.X-3) > 0.4 || math.Abs(pos.Y-0.5) > 0.4 {
		t.Errorf("cartesian fix (%.2f, %.2f), want (3, 0.5)", pos.X, pos.Y)
	}
	// Uplink exchange.
	msg := []byte("hello from the node")
	ex, err := c.Send(ctx, n, msg, Rate10Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ex.Data, msg) || ex.BitErrors != 0 {
		t.Errorf("uplink corrupted: %q (%d errors)", ex.Data, ex.BitErrors)
	}
	if ex.BER() != 0 {
		t.Errorf("BER = %g", ex.BER())
	}
	// Downlink exchange.
	reply := []byte("ack from the AP")
	ex, err = c.Deliver(ctx, n, reply, Rate36Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ex.Data, reply) {
		t.Errorf("downlink corrupted: %q", ex.Data)
	}
	// Exchange carries a fresh fix + node-side orientation.
	if math.Abs(ex.Position.RangeM-trueD) > 0.3 {
		t.Errorf("exchange fix range = %.3f", ex.Position.RangeM)
	}
	if math.Abs(ex.NodeOrientationDeg+10) > 3 {
		t.Errorf("node orientation = %.2f, want ~-10", ex.NodeOrientationDeg)
	}
	if ex.AirtimeS <= 0 || ex.NodeEnergyJ <= 0 {
		t.Error("accounting missing")
	}
}

func TestOrientationAPI(t *testing.T) {
	c := newTestCluster(t, WithSeed(6))
	n := mustJoin(t, c, 2, 0, 14)
	est, err := c.Orientation(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-14) > 3 {
		t.Errorf("orientation = %.2f, want ~14", est)
	}
}

func TestMultiNode(t *testing.T) {
	c := newTestCluster(t, WithSeed(7))
	a := mustJoin(t, c, 2, -0.5, 8)
	b := mustJoin(t, c, 4, 1, -12)
	if len(c.Nodes()) != 2 {
		t.Fatalf("nodes = %d", len(c.Nodes()))
	}
	for i, n := range []NodeID{a, b} {
		msg := []byte{byte(i), 0xAB}
		ex, err := c.Send(context.Background(), n, msg, Rate10Mbps)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(ex.Data, msg) {
			t.Errorf("node %d payload corrupted", i)
		}
	}
}

func TestMove(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(8))
	n := mustJoin(t, c, 2, 0, 0)
	if err := c.Move(ctx, n, 5, 0, 10); err != nil {
		t.Fatal(err)
	}
	x, y, o, err := c.TruePosition(n)
	if err != nil || x != 5 || y != 0 || o != 10 {
		t.Fatalf("TruePosition = %g,%g,%g (%v)", x, y, o, err)
	}
	pos, err := c.Localize(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos.RangeM-5) > 0.4 {
		t.Errorf("post-move range = %.3f, want 5", pos.RangeM)
	}
}

func TestPower(t *testing.T) {
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, 0)
	down, err := c.Power(n, ActivityDownlink, 0)
	if err != nil || math.Abs(down-18e-3) > 1e-6 {
		t.Errorf("downlink power = %g (%v), want 18 mW", down, err)
	}
	up, err := c.Power(n, ActivityUplink, Rate40Mbps)
	if err != nil || math.Abs(up-32e-3) > 1e-6 {
		t.Errorf("uplink power = %g (%v), want 32 mW", up, err)
	}
	if idle, _ := c.Power(n, ActivityIdle, 0); idle != 0 {
		t.Errorf("idle power = %g", idle)
	}
	if loc, _ := c.Power(n, ActivityLocalization, 0); math.Abs(loc-18e-3) > 0.2e-3 {
		t.Errorf("localization power = %g", loc)
	}
	if _, err := c.Power(n, ActivityUplink, 0); err == nil {
		t.Error("uplink without rate should fail")
	}
	if _, err := ParseActivity("warp"); err == nil {
		t.Error("unknown activity should fail")
	}
}

func TestOptions(t *testing.T) {
	ctx := context.Background()
	// Empty scene works.
	c := newTestCluster(t, WithEmptyScene(), WithSeed(9))
	n := mustJoin(t, c, 3, 0, 5)
	if _, err := c.Localize(ctx, n); err != nil {
		t.Fatalf("localize in empty scene: %v", err)
	}
	// Determinism: two same-seed clusters behave identically.
	mk := func() Position {
		c := newTestCluster(t, WithSeed(42))
		p, err := c.Localize(ctx, mustJoin(t, c, 4, 1, -5))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if mk() != mk() {
		t.Error("same seed should reproduce identical fixes")
	}
}

func TestSendTooFastFails(t *testing.T) {
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	if _, err := c.Send(context.Background(), n, []byte{1}, 1e9); err == nil {
		t.Fatal("1 Gbps should exceed the switch limit")
	}
}
