package milback

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewCluster(WithScene(nil)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil scene: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewCluster(WithSystemConfig(core.Config{})); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("zero config: err = %v, want ErrInvalidConfig", err)
	}
	// A node FSA config the beam table cannot be built for fails up front,
	// rather than leaving every later Join to fail.
	noFSA := core.DefaultConfig()
	noFSA.Node.FSA.Elements = 0
	for _, aps := range []int{1, 3} {
		if _, err := NewCluster(WithAPs(aps), WithSystemConfig(noFSA)); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%d APs, zero FSA elements: err = %v, want ErrInvalidConfig", aps, err)
		}
	}
}

// TestNewClusterFailureStopsEngines pins that a NewCluster failing after
// its cells exist closes their airtime schedulers again and leaks no
// goroutine: a debug server that cannot start must leave nothing running.
func TestNewClusterFailureStopsEngines(t *testing.T) {
	noObs := core.DefaultConfig()
	noObs.DisableObservability = true
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := NewCluster(WithAPs(3), WithDebugServer("no-port")); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("unbindable debug address: err = %v, want ErrInvalidConfig", err)
		}
		if _, err := NewCluster(WithAPs(3), WithSystemConfig(noObs), WithDebugServer(":0")); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("debug server without observability: err = %v, want ErrInvalidConfig", err)
		}
	}
	// A goroutine that has signalled its exit may still be unwinding; give
	// it a moment before counting.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before 20 failed NewCluster calls, %d after", before, after)
	}
}

func TestJoinRejectsNonFinite(t *testing.T) {
	c := newTestCluster(t)
	for _, bad := range [][3]float64{
		{math.NaN(), 0, 0},
		{2, math.Inf(1), 0},
		{2, 0, math.Inf(-1)},
	} {
		if _, err := c.Join(context.Background(), bad[0], bad[1], bad[2]); !errors.Is(err, ErrInvalidCoordinate) {
			t.Errorf("Join(%v): err = %v, want ErrInvalidCoordinate", bad, err)
		}
	}
}

func TestMoveRejectsNonFinite(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	if err := c.Move(ctx, n, math.NaN(), 0, 0); !errors.Is(err, ErrInvalidCoordinate) {
		t.Fatalf("Move NaN: err = %v, want ErrInvalidCoordinate", err)
	}
	if err := c.Move(ctx, n, 1, 2, math.Inf(1)); !errors.Is(err, ErrInvalidCoordinate) {
		t.Fatalf("Move Inf: err = %v, want ErrInvalidCoordinate", err)
	}
	// Ground truth must be untouched by the rejected moves.
	if x, y, _, _ := c.TruePosition(n); x != 2 || y != 0 {
		t.Fatalf("rejected move changed position to (%g, %g)", x, y)
	}
}

func TestErrNoDetectionSurfaces(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(3))
	n := mustJoin(t, c, 3, 0, -10)
	if err := c.AddBlocker(ctx, "wall", 1.5, -1, 1.5, 1, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Localize(ctx, n); !errors.Is(err, ErrNoDetection) {
		t.Fatalf("blocked localize: err = %v, want ErrNoDetection", err)
	}
}

func TestErrOutOfBandSurfaces(t *testing.T) {
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	if _, err := c.Send(context.Background(), n, []byte("x"), 1e9); !errors.Is(err, ErrOutOfBand) {
		t.Fatalf("1 Gbps send: err = %v, want ErrOutOfBand", err)
	}
}

func TestErrCancelledSurfaces(t *testing.T) {
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Send(ctx, n, []byte("x"), Rate10Mbps)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled send: err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// pollCtx reports no error to its first live Err calls and
// context.Canceled from then on. Its Done channel never closes, so the
// cancellation shows only where a job polls Err between packet phases, at
// a point fixed by the call count rather than by timing.
type pollCtx struct {
	context.Context
	live  int64
	calls atomic.Int64
}

func (p *pollCtx) Err() error {
	if p.calls.Add(1) > p.live {
		return context.Canceled
	}
	return nil
}

// TestExchangeCancelledMidGrant cancels an ARQ transfer on the air, between
// its first and second attempt: the call returns ErrCancelled with the one
// completed attempt, the scheduler counts the job once, and the node is
// served again afterwards.
func TestExchangeCancelledMidGrant(t *testing.T) {
	ctx := context.Background()
	// A blocker on the node's bearing fails every attempt.
	blocked := func() (*Cluster, NodeID) {
		c := newTestCluster(t, WithSeed(7))
		n := mustJoin(t, c, 2, 0, -10)
		if err := c.AddBlocker(ctx, "wall", 1, -0.3, 1, 0.3, 40); err != nil {
			t.Fatal(err)
		}
		return c, n
	}
	// Count the Err polls of a one-attempt transfer on a twin cluster. The
	// twin draws the same noise, so the poll after that many is the second
	// attempt's first check.
	twin, tn := blocked()
	count := &pollCtx{Context: ctx, live: math.MaxInt64}
	if ex, err := twin.Send(count, tn, []byte("x"), Rate10Mbps, WithARQ(1)); err == nil || ex.Attempts != 1 {
		t.Fatalf("blocked one-attempt transfer: %+v, %v; want one failed attempt", ex, err)
	}

	c, n := blocked()
	before := c.Stats()
	ex, err := c.Send(&pollCtx{Context: ctx, live: count.calls.Load()}, n, []byte("x"), Rate10Mbps, WithARQ(3))
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if ex.Attempts != 1 {
		t.Errorf("cancelled transfer reports %d attempts, want 1", ex.Attempts)
	}
	after := c.Stats()
	jobs := func(s Stats) uint64 { return s.Completed + s.Failed + s.Cancelled }
	if got := jobs(after) - jobs(before); got != 1 || after.Exchanges != before.Exchanges {
		t.Errorf("stats %+v after %+v: %d jobs counted, want 1 and no exchange", after, before, got)
	}
	if _, err := c.RemoveBlocker(ctx, "wall"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(ctx, n, []byte("x"), Rate10Mbps); err != nil {
		t.Fatalf("send after the cancelled transfer: %v", err)
	}
}

// TestExchangeValidation pins that a bit rate that is not finite and
// positive, and WithARQ below one attempt, fail with ErrInvalidConfig
// before any job is queued.
func TestExchangeValidation(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	for _, rate := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Send(ctx, n, []byte("x"), rate); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Send at %g bit/s: err = %v, want ErrInvalidConfig", rate, err)
		}
		if _, err := c.Deliver(ctx, n, []byte("x"), rate, WithFEC()); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Deliver at %g bit/s: err = %v, want ErrInvalidConfig", rate, err)
		}
		if _, err := c.RunUplinkSuperframe(ctx, 16, 1, rate); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("superframe at %g bit/s: err = %v, want ErrInvalidConfig", rate, err)
		}
	}
	for _, attempts := range []int{0, -1} {
		if _, err := c.Send(ctx, n, []byte("x"), Rate10Mbps, WithARQ(attempts)); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("WithARQ(%d): err = %v, want ErrInvalidConfig", attempts, err)
		}
		if _, err := c.Deliver(ctx, n, []byte("x"), Rate36Mbps, WithFEC(), WithARQ(attempts)); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("WithFEC, WithARQ(%d): err = %v, want ErrInvalidConfig", attempts, err)
		}
	}
	if st := c.Stats(); st.Completed+st.Failed+st.Cancelled != 0 {
		t.Errorf("rejected exchanges still ran %d jobs", st.Completed+st.Failed+st.Cancelled)
	}
}

func TestErrClosedSurfaces(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	c.Close()
	c.Close() // idempotent
	if _, err := c.Send(ctx, n, []byte("x"), Rate10Mbps); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: err = %v, want ErrClosed", err)
	}
	if _, err := c.Localize(ctx, n); !errors.Is(err, ErrClosed) {
		t.Fatalf("localize after close: err = %v, want ErrClosed", err)
	}
}

func TestActivityEnum(t *testing.T) {
	cases := []struct {
		a    Activity
		name string
	}{
		{ActivityIdle, "idle"},
		{ActivityLocalization, "localization"},
		{ActivityDownlink, "downlink"},
		{ActivityUplink, "uplink"},
	}
	for _, c := range cases {
		if c.a.String() != c.name {
			t.Errorf("%d.String() = %q, want %q", c.a, c.a.String(), c.name)
		}
		got, err := ParseActivity(c.name)
		if err != nil || got != c.a {
			t.Errorf("ParseActivity(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := ParseActivity("warp"); err == nil {
		t.Error("unknown activity must not parse")
	}
}

func TestPowerValidation(t *testing.T) {
	c := newTestCluster(t)
	n := mustJoin(t, c, 2, 0, -10)
	// Every activity's power is defined and finite; the string round trip
	// through ParseActivity resolves to the same value.
	for _, a := range []Activity{ActivityIdle, ActivityLocalization, ActivityDownlink, ActivityUplink} {
		want, err := c.Power(n, a, Rate40Mbps)
		if err != nil {
			t.Fatalf("Power(%v): %v", a, err)
		}
		parsed, err := ParseActivity(a.String())
		if err != nil {
			t.Fatalf("ParseActivity(%q): %v", a, err)
		}
		got, err := c.Power(n, parsed, Rate40Mbps)
		if err != nil || got != want {
			t.Errorf("Power(ParseActivity(%q)) = %g, %v; want %g", a, got, err, want)
		}
	}
	if _, err := c.Power(n, ActivityUplink, 0); err == nil {
		t.Error("uplink power with zero rate must fail")
	}
	if _, err := c.Power(n, Activity(99), 0); err == nil {
		t.Error("unknown activity must fail")
	}
	if _, err := c.Power(n+1, ActivityIdle, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: err = %v, want ErrUnknownNode", err)
	}
}
