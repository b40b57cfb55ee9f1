package milback

import (
	"context"
	"errors"
	"math"
	"runtime"
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
// its cells (and their airtime schedulers) exist closes them again: a
// debug server that cannot start must not leak engine goroutines.
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
	// A closed engine's goroutine has signalled its exit but may still be
	// unwinding; give it a moment before counting.
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
