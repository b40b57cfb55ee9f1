package milback

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rfsim"
	"repro/internal/waveform"
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

// joinPolar joins a node at range r (m) and azimuth az (degrees) from AP 0.
func joinPolar(t *testing.T, c *Cluster, r, az, orient float64) NodeID {
	t.Helper()
	p := rfsim.PolarPoint(r, rfsim.DegToRad(az))
	return mustJoin(t, c, p.X, p.Y, orient)
}

// TestSuperframeFairAndThroughput serves three clear nodes four rounds
// each: every slot delivers its whole payload, so fairness is perfect and
// the cluster's scheduler stats count every slot as one exchange.
func TestSuperframeFairAndThroughput(t *testing.T) {
	c := newTestCluster(t)
	joinPolar(t, c, 2, -15, 10)
	joinPolar(t, c, 3, 5, -8)
	joinPolar(t, c, 4, 20, 12)
	res, err := c.RunUplinkSuperframe(context.Background(), 32, 4, Rate10Mbps)
	if err != nil {
		t.Fatalf("RunUplinkSuperframe: %v", err)
	}
	if len(res.PerNodeDeliveredBits) != 3 {
		t.Fatalf("per-node stats = %d", len(res.PerNodeDeliveredBits))
	}
	for i, bits := range res.PerNodeDeliveredBits {
		if bits != 4*32*8 {
			t.Errorf("node %d delivered %d bits, want %d", i, bits, 4*32*8)
		}
	}
	st := c.Stats()
	if st.Exchanges != 12 || st.BitErrors != 0 || st.BitsSent != 12*32*8 {
		t.Errorf("scheduler stats %+v, want 12 clean exchanges of %d bits", st, 32*8)
	}
	if math.Abs(res.TotalAirtimeS-st.AirtimeS) > 1e-12 {
		t.Errorf("superframe airtime %g, scheduler airtime %g", res.TotalAirtimeS, st.AirtimeS)
	}
	// Equal service ⇒ perfect fairness.
	if math.Abs(res.Fairness-1) > 1e-9 {
		t.Errorf("fairness = %g, want 1", res.Fairness)
	}
	// Aggregate throughput is positive and bounded by the payload rate
	// (preamble overhead eats a big share at small payloads).
	if res.AggregateThroughputBps <= 0 || res.AggregateThroughputBps >= Rate10Mbps {
		t.Errorf("aggregate throughput = %g bps", res.AggregateThroughputBps)
	}
}

// TestSuperframeSurvivesBlockedNode blocks one node's bearing: its slots
// fail without stalling the schedule, deliver nothing and still cost one
// packet preamble of airtime each.
func TestSuperframeSurvivesBlockedNode(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	mustJoin(t, c, 2, 0, -10)
	joinPolar(t, c, 4, 25, 8)
	// Block node 0's bearing only (node 1 at 25° passes x=1 at y≈0.47,
	// outside this segment).
	if err := c.AddBlocker(ctx, "wall", 1, -0.3, 1, 0.3, 40); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunUplinkSuperframe(ctx, 16, 3, Rate10Mbps)
	if err != nil {
		t.Fatalf("superframe should survive a blocked node: %v", err)
	}
	if res.PerNodeDeliveredBits[0] != 0 {
		t.Errorf("blocked node delivered %d bits", res.PerNodeDeliveredBits[0])
	}
	if res.PerNodeDeliveredBits[1] != 3*16*8 {
		t.Errorf("clear node delivered %d bits", res.PerNodeDeliveredBits[1])
	}
	// The scheduler's airtime holds only the clear node's completed
	// packets; the rest of the superframe is the blocked node's preambles.
	spec := waveform.DefaultPacketSpec(waveform.Uplink, 0)
	preambleS := spec.Field1Duration() + spec.Field2Duration()
	if blocked := res.TotalAirtimeS - c.Stats().AirtimeS; math.Abs(blocked-3*preambleS) > 1e-12 {
		t.Errorf("blocked node cost %g s of airtime, want 3 preambles (%g s)", blocked, 3*preambleS)
	}
	// Fairness collapses when one node starves: Jain's index = 0.5 for
	// (0, X).
	if math.Abs(res.Fairness-0.5) > 1e-9 {
		t.Errorf("fairness = %g, want 0.5", res.Fairness)
	}
}

func TestSuperframeValidation(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	if _, err := c.RunUplinkSuperframe(ctx, 16, 1, Rate10Mbps); err == nil {
		t.Error("empty cluster should fail")
	}
	mustJoin(t, c, 2, 0, -10)
	if _, err := c.RunUplinkSuperframe(ctx, 0, 1, Rate10Mbps); err == nil {
		t.Error("zero payload should fail")
	}
	if _, err := c.RunUplinkSuperframe(ctx, 16, 0, Rate10Mbps); err == nil {
		t.Error("zero rounds should fail")
	}
	if _, err := c.RunUplinkSuperframe(ctx, 16, 1, 0); err == nil {
		t.Error("zero rate should fail")
	}
	if st := c.Stats(); st.Completed+st.Failed != 0 {
		t.Errorf("rejected superframes still ran %d jobs", st.Completed+st.Failed)
	}
	// Cancellation and shutdown abort the schedule instead of being charged
	// as failed slots.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.RunUplinkSuperframe(cancelled, 16, 1, Rate10Mbps); !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled superframe: err = %v, want ErrCancelled", err)
	}
	c.Close()
	if _, err := c.RunUplinkSuperframe(ctx, 16, 1, Rate10Mbps); !errors.Is(err, ErrClosed) {
		t.Errorf("superframe after Close: err = %v, want ErrClosed", err)
	}
}

// TestDiscoverContextHonoursJobContext pins that a discovery job sweeps
// under the job's effective context: a client that goes away after the
// sweep is granted airtime (cancelled here from the admission hook, which
// runs between the scheduler's own check and the job) stops the sweep
// before its first pointing, with ErrCancelled wrapping context.Canceled
// and no capture lease left open.
func TestDiscoverContextHonoursJobContext(t *testing.T) {
	c := newTestCluster(t)
	for _, az := range []float64{-20, 0, 20} {
		joinPolar(t, c, 3, az, 5)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cell := c.aps[0]
	cell.eng.Close()
	sys := cell.sys
	cell.eng = proto.NewEngine(proto.EngineConfig{
		Obs: sys.Obs(),
		Admit: func() func() {
			cancel()
			return func() {}
		},
		OnGrant: func() func() { return sys.Capture().BeginJob().End },
	})
	_, err := c.Discover(ctx)
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
