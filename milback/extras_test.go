package milback

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/core"
)

func TestDiscoverAPI(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(31))
	if _, err := c.Discover(ctx); err == nil {
		t.Fatal("discovery on an empty network should fail")
	}
	truth := [][3]float64{{2, -1, 5}, {4, 0.5, -12}, {5.5, 2, 8}}
	for _, p := range truth {
		mustJoin(t, c, p[0], p[1], p[2])
	}
	dets, err := c.Discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(truth) {
		t.Fatalf("discovered %d, want %d: %+v", len(dets), len(truth), dets)
	}
	// Every true node has a nearby detection.
	for _, p := range truth {
		found := false
		for _, d := range dets {
			if math.Hypot(d.X-p[0], d.Y-p[1]) < 0.6 {
				found = true
			}
		}
		if !found {
			t.Errorf("node at (%g, %g) not discovered: %+v", p[0], p[1], dets)
		}
	}
}

func TestBlockerAPI(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(33))
	n := mustJoin(t, c, 4, 0, 8)
	if _, err := c.Localize(ctx, n); err != nil {
		t.Fatalf("clear localization: %v", err)
	}
	if err := c.AddBlocker(ctx, "person", 2, -0.5, 2, 0.5, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Localize(ctx, n); err == nil {
		t.Fatal("blocked localization should fail")
	}
	if existed, err := c.RemoveBlocker(ctx, "person"); err != nil || !existed {
		t.Fatalf("RemoveBlocker = %v, %v; want true, nil", existed, err)
	}
	if existed, err := c.RemoveBlocker(ctx, "person"); err != nil || existed {
		t.Fatalf("double removal = %v, %v; want false, nil", existed, err)
	}
	if _, err := c.Localize(ctx, n); err != nil {
		t.Fatalf("post-removal localization: %v", err)
	}
	if err := c.AddBlocker(ctx, "bad", 0, 0, 1, 1, 0); err == nil {
		t.Error("zero-loss blocker should be rejected")
	}
}

func TestReliableAPI(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(35))
	n := mustJoin(t, c, 2.5, 0.3, -10)
	data := []byte("checked payload")
	up, err := c.SendReliable(ctx, n, data, Rate10Mbps, 3)
	if err != nil {
		t.Fatalf("SendReliable: %v", err)
	}
	if !bytes.Equal(up.Data, data) || up.Attempts != 1 {
		t.Errorf("up = %+v", up)
	}
	down, err := c.DeliverReliable(ctx, n, data, Rate36Mbps, 3)
	if err != nil {
		t.Fatalf("DeliverReliable: %v", err)
	}
	if !bytes.Equal(down.Data, data) {
		t.Errorf("down data = %q", down.Data)
	}
	if down.AirtimeS <= 0 || down.NodeEnergyJ <= 0 {
		t.Error("accounting missing")
	}
}

func TestWithSystemConfigAblation(t *testing.T) {
	// The escape hatch works: a cluster built with the mirror artifact
	// disabled estimates orientation cleanly at −4°, where the default
	// cluster shows the Fig 13b bump.
	meanErr := func(mirror bool) float64 {
		cfg := core.DefaultConfig()
		cfg.MirrorReflection = mirror
		c := newTestCluster(t, WithSeed(61), WithSystemConfig(cfg))
		n := mustJoin(t, c, 2, 0, -4)
		var sum float64
		const trials = 8
		for i := 0; i < trials; i++ {
			pos, err := c.Localize(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(pos.OrientationDeg - (-4))
		}
		return sum / trials
	}
	withMirror := meanErr(true)
	withoutMirror := meanErr(false)
	if withMirror <= 2*withoutMirror {
		t.Errorf("mirror-on error %.2f° should dwarf mirror-off %.2f°", withMirror, withoutMirror)
	}
	// Invalid overrides are rejected at construction.
	bad := core.DefaultConfig()
	bad.LocalizationChirps = 1
	if _, err := NewCluster(WithSystemConfig(bad)); err == nil {
		t.Error("invalid system config should fail")
	}
}

func TestFECAPI(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(51))
	n := mustJoin(t, c, 2.5, 0, -10)
	data := []byte("fec protected")
	got, corr, err := c.SendFEC(ctx, n, data, Rate10Mbps)
	if err != nil {
		t.Fatalf("SendFEC: %v", err)
	}
	if !bytes.Equal(got, data) || corr != 0 {
		t.Errorf("got %q, %d corrections", got, corr)
	}
	got, _, err = c.DeliverFEC(ctx, n, data, Rate36Mbps)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("DeliverFEC: %v %q", err, got)
	}
}

func TestSuperframeAPI(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(53))
	for _, p := range [][3]float64{{2, -0.5, 8}, {3.5, 1, -12}} {
		mustJoin(t, c, p[0], p[1], p[2])
	}
	stats, err := c.RunUplinkSuperframe(ctx, 32, 3, Rate10Mbps)
	if err != nil {
		t.Fatalf("RunUplinkSuperframe: %v", err)
	}
	if len(stats.PerNodeDeliveredBits) != 2 {
		t.Fatalf("per-node stats = %d", len(stats.PerNodeDeliveredBits))
	}
	for i, bits := range stats.PerNodeDeliveredBits {
		if bits != 3*32*8 {
			t.Errorf("node %d delivered %d bits", i, bits)
		}
	}
	if math.Abs(stats.Fairness-1) > 1e-9 {
		t.Errorf("fairness = %g", stats.Fairness)
	}
	if stats.AggregateThroughputBps <= 0 || stats.TotalAirtimeS <= 0 {
		t.Error("aggregate stats missing")
	}
	// Empty cluster fails.
	if _, err := newTestCluster(t).RunUplinkSuperframe(ctx, 32, 1, Rate10Mbps); err == nil {
		t.Error("empty network should fail")
	}
}

func TestBestUplinkRateAPI(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(37))
	near := mustJoin(t, c, 1.5, 0, -10)
	far := mustJoin(t, c, 9, 0.5, -10)
	rNear, okNear, err := c.BestUplinkRate(ctx, near)
	if err != nil || !okNear {
		t.Fatalf("near: %g %v %v", rNear, okNear, err)
	}
	rFar, _, err := c.BestUplinkRate(ctx, far)
	if err != nil {
		t.Fatal(err)
	}
	if rNear <= rFar {
		t.Errorf("near rate %g should exceed far rate %g", rNear, rFar)
	}
	// The adapted rate carries real traffic.
	if _, err := c.SendReliable(ctx, near, []byte("fast"), rNear, 2); err != nil {
		t.Fatalf("transfer at adapted rate: %v", err)
	}
}
