package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/node"
	"repro/internal/rfsim"
)

// newNodeSystem builds a default system over its own copy of the indoor
// scene with one node at the shared test pose. A freshly built system has
// an empty buffer pool, so its first operation allocates everything: the
// cold-object oracle the warm system must match bit for bit.
func newNodeSystem(t *testing.T) (*System, *node.Node) {
	t.Helper()
	sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sys, n
}

// TestSceneMutationReachesNextCapture interleaves scene mutations with
// captures: after every mutation the long-lived system must match, bit for
// bit, the fresh-system oracle — a newly built system over a copy of the
// scene as it then stands — so each edit reaches the very next capture.
func TestSceneMutationReachesNextCapture(t *testing.T) {
	sys, n := newNodeSystem(t)
	scene := sys.AP.Scene()
	localize := func(step string, seed int64) LocalizationOutcome {
		t.Helper()
		got, err := sys.Localize(n, seed)
		if err != nil {
			t.Fatalf("%s: long-lived localize: %v", step, err)
		}
		ref := MustNewSystem(DefaultConfig(), &rfsim.Scene{
			Reflectors:   slices.Clone(scene.Reflectors),
			Obstructions: slices.Clone(scene.Obstructions),
		})
		rn, err := ref.AddNode(n.Position, n.OrientationDeg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Localize(rn, seed)
		if err != nil {
			t.Fatalf("%s: fresh localize: %v", step, err)
		}
		if got != want {
			t.Fatalf("%s: long-lived outcome diverged from a fresh system:\nlong-lived %+v\nfresh      %+v", step, got, want)
		}
		return got
	}

	base := localize("initial", 1)
	// The blocker crosses the AP -> back-wall clutter path (Y=0 at X=6) but
	// not the node's line of sight, so localization still succeeds while the
	// clutter geometry — and therefore the capture — changes.
	scene.AddObstruction(rfsim.Obstruction{Name: "cabinet", A: rfsim.Point{X: 6, Y: -0.3}, B: rfsim.Point{X: 6, Y: 0.3}, LossDB: 40})
	blocked := localize("after AddObstruction", 1)
	if blocked == base {
		t.Fatal("obstruction did not change the outcome; the test cannot detect stale clutter")
	}
	// Sliding the cabinet off every clutter ray restores the clear scene.
	scene.Obstructions[0].A, scene.Obstructions[0].B = rfsim.Point{X: -6, Y: -0.3}, rfsim.Point{X: -6, Y: 0.3}
	if moved := localize("after moving the obstruction", 1); moved != base {
		t.Fatalf("moving the blocker off every ray did not restore the outcome:\nbefore %+v\nafter  %+v", base, moved)
	}
	if !scene.RemoveObstruction("cabinet") {
		t.Fatal("cabinet not found")
	}
	if restored := localize("after RemoveObstruction", 1); restored != base {
		t.Fatalf("removing the blocker did not restore the original outcome:\nbefore %+v\nafter  %+v", base, restored)
	}
	nRefl := len(scene.Reflectors)
	scene.Reflectors = append(scene.Reflectors, rfsim.Reflector{Name: "cart", Position: rfsim.Point{X: 8, Y: -2}, RCS: 2})
	withCart := localize("after adding a reflector", 1)
	if withCart == base {
		t.Fatal("new reflector did not change the outcome")
	}
	scene.Reflectors[nRefl].Position = rfsim.Point{X: 9, Y: -1}
	if moved := localize("after moving the reflector", 1); moved == withCart {
		t.Fatal("moving a reflector did not change the outcome")
	}
	scene.Reflectors = scene.Reflectors[:nRefl]
	localize("after removing the reflector", 1)
}

// TestCaptureDifferentialAcrossSeeds is the capture plane's end-to-end
// differential gate: localization, radial velocity, and uplink BER through
// one long-lived pooled system must equal a freshly built system's
// — nothing pooled — for several seeds, including repeated
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
