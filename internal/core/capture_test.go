package core

import (
	"bytes"
	"testing"

	"repro/internal/node"
	"repro/internal/rfsim"
)

// newNodeSystem builds a default system over its own copy of the indoor
// scene with one node at the shared test pose. A freshly built system has
// an empty buffer pool and an empty clutter cache, so its first operation
// allocates and derives everything: the cold-object oracle the warm system
// must match bit for bit.
func newNodeSystem(t *testing.T) (*System, *node.Node) {
	t.Helper()
	sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sys, n
}

// TestClutterCacheInvalidation interleaves scene mutations with captures:
// after every mutation the cached system must match the uncached oracle — an
// identical system whose cache is blanket-invalidated before every capture —
// bit-for-bit, i.e. the generation bump actually invalidated the cache.
func TestClutterCacheInvalidation(t *testing.T) {
	fast, fn := newNodeSystem(t)
	ref, rn := newNodeSystem(t)
	both := func(mutate func(s *rfsim.Scene)) {
		mutate(fast.AP.Scene())
		mutate(ref.AP.Scene())
	}
	localize := func(step string, seed int64) LocalizationOutcome {
		t.Helper()
		got, err := fast.Localize(fn, seed)
		if err != nil {
			t.Fatalf("%s: cached localize: %v", step, err)
		}
		ref.AP.Scene().Invalidate()
		want, err := ref.Localize(rn, seed)
		if err != nil {
			t.Fatalf("%s: uncached localize: %v", step, err)
		}
		if got != want {
			t.Fatalf("%s: cached outcome diverged from uncached:\ncached   %+v\nuncached %+v", step, got, want)
		}
		return got
	}

	base := localize("warm cache", 1)
	// The blocker crosses the AP -> back-wall clutter path (Y=0 at X=6) but
	// not the node's line of sight, so localization still succeeds while the
	// clutter geometry — and therefore the capture — changes.
	blocker := rfsim.Obstruction{Name: "cabinet", A: rfsim.Point{X: 6, Y: -0.3}, B: rfsim.Point{X: 6, Y: 0.3}, LossDB: 40}
	both(func(s *rfsim.Scene) { s.AddObstruction(blocker) })
	blocked := localize("after AddObstruction", 1)
	if blocked == base {
		t.Fatal("obstruction did not change the outcome; the test cannot detect a stale cache")
	}
	both(func(s *rfsim.Scene) {
		if !s.RemoveObstruction("cabinet") {
			t.Fatal("cabinet not found")
		}
	})
	if restored := localize("after RemoveObstruction", 1); restored != base {
		t.Fatalf("removing the blocker did not restore the original outcome:\nbefore %+v\nafter  %+v", base, restored)
	}
	both(func(s *rfsim.Scene) {
		s.AddReflector(rfsim.Reflector{Name: "cart", Position: rfsim.Point{X: 8, Y: -2}, RCS: 2})
	})
	if withCart := localize("after AddReflector", 1); withCart == base {
		t.Fatal("new reflector did not change the outcome")
	}
	both(func(s *rfsim.Scene) {
		if !s.RemoveReflector("cart") {
			t.Fatal("cart not found")
		}
	})
	localize("after RemoveReflector", 1)
}

// TestCaptureDifferentialAcrossSeeds is the capture plane's end-to-end
// differential gate: localization, radial velocity, and uplink BER through
// one long-lived pooled + cached system must equal a freshly built system's
// — nothing pooled, nothing cached — for several seeds, including repeated
// runs that actually recycle buffers.
func TestCaptureDifferentialAcrossSeeds(t *testing.T) {
	fast, fn := newNodeSystem(t)
	payload := []byte("capture-plane differential payload")
	for seed := int64(1); seed <= 3; seed++ {
		for round := 0; round < 2; round++ {
			gotLoc, gotErr := fast.Localize(fn, seed)
			ref, rn := newNodeSystem(t)
			wantLoc, wantErr := ref.Localize(rn, seed)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d: localize error mismatch: %v vs %v", seed, gotErr, wantErr)
			}
			if gotLoc != wantLoc {
				t.Fatalf("seed %d round %d: localization diverged:\npooled %+v\ncold   %+v", seed, round, gotLoc, wantLoc)
			}

			gotV, gotErr := fast.MeasureRadialVelocity(fn, 1.5, 32, seed)
			ref, rn = newNodeSystem(t)
			wantV, wantErr := ref.MeasureRadialVelocity(rn, 1.5, 32, seed)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d: velocity error mismatch: %v vs %v", seed, gotErr, wantErr)
			}
			if gotV != wantV {
				t.Fatalf("seed %d round %d: velocity diverged: %v vs %v", seed, round, gotV, wantV)
			}

			gotUp, gotErr := fast.Uplink(fn, 5, payload, 10e6, seed)
			ref, rn = newNodeSystem(t)
			wantUp, wantErr := ref.Uplink(rn, 5, payload, 10e6, seed)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d: uplink error mismatch: %v vs %v", seed, gotErr, wantErr)
			}
			if gotUp.BitErrors != wantUp.BitErrors || gotUp.BitsSent != wantUp.BitsSent ||
				gotUp.SNRdB != wantUp.SNRdB || !bytes.Equal(gotUp.Data, wantUp.Data) {
				t.Fatalf("seed %d round %d: uplink diverged:\npooled %+v\ncold   %+v", seed, round, gotUp, wantUp)
			}
		}
	}
}
