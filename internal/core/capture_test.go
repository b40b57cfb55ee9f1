package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ap"
	"repro/internal/capture"
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

// localizationFrames renders the localization capture Localize draws first
// at this seed and returns a copy of its frames.
func localizationFrames(t *testing.T, sys *System, n *node.Node, seed int64) []ap.ChirpFrame {
	t.Helper()
	lease := sys.capture.Acquire(n.AzimuthRad(), seed)
	defer lease.Close()
	c, err := lease.Chirps(capture.Request{
		Chirp:   sys.cfg.AP.LocalizationChirp,
		NChirps: sys.cfg.LocalizationChirps,
		Targets: []*ap.BackscatterTarget{localizationTarget(n)},
		Table:   sys.beams,
		Extra:   sys.mirrorPaths(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ap.ChirpFrame, len(c.Frames))
	for k, f := range c.Frames {
		out[k].Rx = [2][]complex128{slices.Clone(f.Rx[0]), slices.Clone(f.Rx[1])}
	}
	return out
}

// sameFrames reports whether two captures are bit-identical.
func sameFrames(a, b []ap.ChirpFrame) bool {
	return slices.EqualFunc(a, b, func(x, y ap.ChirpFrame) bool {
		return slices.Equal(x.Rx[0], y.Rx[0]) && slices.Equal(x.Rx[1], y.Rx[1])
	})
}

// TestSceneMutationReachesNextCapture interleaves scene mutations with
// captures: after every mutation the long-lived system must match, bit for
// bit, the fresh-system oracle — a newly built system over a copy of the
// scene as it then stands — so each edit reaches the very next capture.
// Whether an edit changed the scene the AP sees is read off the capture's
// frames at one fixed seed, not off the final fix: the noise realization is
// then the same on both sides, so any clutter change shows in the samples
// however little it moves the estimate.
func TestSceneMutationReachesNextCapture(t *testing.T) {
	sys, n := newNodeSystem(t)
	scene := sys.AP.Scene()
	const seed = 1
	render := func(step string) []ap.ChirpFrame {
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
		frames := localizationFrames(t, sys, n, seed)
		if !sameFrames(frames, localizationFrames(t, ref, rn, seed)) {
			t.Fatalf("%s: long-lived capture diverged from a fresh system's", step)
		}
		return frames
	}

	base := render("initial")
	// The blocker crosses the AP -> back-wall clutter path (Y=0 at X=6) but
	// not the node's line of sight, so localization still succeeds while the
	// clutter geometry — and therefore the capture — changes.
	scene.AddObstruction(rfsim.Obstruction{Name: "cabinet", A: rfsim.Point{X: 6, Y: -0.3}, B: rfsim.Point{X: 6, Y: 0.3}, LossDB: 40})
	if sameFrames(render("after AddObstruction"), base) {
		t.Fatal("obstruction did not change the capture; the test cannot detect stale clutter")
	}
	// Sliding the cabinet off every clutter ray restores the clear scene.
	scene.Obstructions[0].A, scene.Obstructions[0].B = rfsim.Point{X: -6, Y: -0.3}, rfsim.Point{X: -6, Y: 0.3}
	if !sameFrames(render("after moving the obstruction"), base) {
		t.Fatal("moving the blocker off every ray did not restore the capture")
	}
	if !scene.RemoveObstruction("cabinet") {
		t.Fatal("cabinet not found")
	}
	if !sameFrames(render("after RemoveObstruction"), base) {
		t.Fatal("removing the blocker did not restore the original capture")
	}
	nRefl := len(scene.Reflectors)
	scene.Reflectors = append(scene.Reflectors, rfsim.Reflector{Name: "cart", Position: rfsim.Point{X: 8, Y: -2}, RCS: 2})
	withCart := render("after adding a reflector")
	if sameFrames(withCart, base) {
		t.Fatal("new reflector did not change the capture")
	}
	scene.Reflectors[nRefl].Position = rfsim.Point{X: 9, Y: -1}
	if sameFrames(render("after moving the reflector"), withCart) {
		t.Fatal("moving a reflector did not change the capture")
	}
	scene.Reflectors = scene.Reflectors[:nRefl]
	if !sameFrames(render("after removing the reflector"), base) {
		t.Fatal("removing the reflector did not restore the original capture")
	}
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
