package rfsim

import (
	"fmt"
	"testing"
)

// TestDirtySinceTracksMutations walks a scene through every mutator kind
// and checks the window reconstruction: IDs are reported once per window,
// deduplicated, and the window closes once synced.
func TestDirtySinceTracksMutations(t *testing.T) {
	s := DefaultIndoorScene()
	g0 := s.Generation()

	if ds, ok := s.DirtySince(g0); !ok || !ds.Empty() {
		t.Fatalf("empty window: got %+v ok=%v, want empty ok=true", ds, ok)
	}

	s.AddObstruction(Obstruction{Name: "person", A: Point{X: 2, Y: -1}, B: Point{X: 2, Y: 1}, LossDB: 25})
	s.MoveObstruction("person", Point{X: 3, Y: -1}, Point{X: 3, Y: 1})
	s.TouchNode("node-7")
	s.MoveReflector("desk", Point{X: 3.2, Y: -1.5})

	ds, ok := s.DirtySince(g0)
	if !ok {
		t.Fatal("window within log horizon reported !ok")
	}
	if len(ds.Obstructions) != 1 || ds.Obstructions[0] != "person" {
		t.Errorf("obstructions = %v, want [person] (deduplicated)", ds.Obstructions)
	}
	if len(ds.Nodes) != 1 || ds.Nodes[0] != "node-7" {
		t.Errorf("nodes = %v, want [node-7]", ds.Nodes)
	}
	if len(ds.Reflectors) != 1 || ds.Reflectors[0] != "desk" {
		t.Errorf("reflectors = %v, want [desk]", ds.Reflectors)
	}

	// A synced cache sees an empty window.
	g1 := s.Generation()
	if ds, ok := s.DirtySince(g1); !ok || !ds.Empty() {
		t.Fatalf("synced window: got %+v ok=%v, want empty ok=true", ds, ok)
	}
}

// TestDirtySinceFallbacks pins the !ok cases: a blanket Invalidate, a
// window older than the bounded log, and a generation from the future.
func TestDirtySinceFallbacks(t *testing.T) {
	s := DefaultIndoorScene()
	g0 := s.Generation()
	s.Invalidate()
	if _, ok := s.DirtySince(g0); ok {
		t.Error("window spanning Invalidate must report !ok")
	}

	s = DefaultIndoorScene()
	g0 = s.Generation()
	for i := 0; i < dirtyLogCap+5; i++ {
		s.TouchNode(fmt.Sprintf("n%d", i))
	}
	if _, ok := s.DirtySince(g0); ok {
		t.Error("window past the log horizon must report !ok")
	}
	// A window inside the retained horizon still reconstructs.
	gMid := s.Generation() - 3
	if ds, ok := s.DirtySince(gMid); !ok || len(ds.Nodes) != 3 {
		t.Errorf("recent window: got %+v ok=%v, want 3 nodes ok=true", ds, ok)
	}

	if _, ok := s.DirtySince(s.Generation() + 1); ok {
		t.Error("future generation must report !ok")
	}
}

// TestObstructionCrossesClutter pins the pointing-independent staleness
// predicate: a blocker on the AP→back-wall ray crosses, one far off every
// ray does not.
func TestObstructionCrossesClutter(t *testing.T) {
	s := DefaultIndoorScene()
	s.AddObstruction(Obstruction{Name: "cabinet", A: Point{X: 6, Y: -0.3}, B: Point{X: 6, Y: 0.3}, LossDB: 40})
	s.AddObstruction(Obstruction{Name: "far", A: Point{X: -5, Y: -5}, B: Point{X: -5, Y: -6}, LossDB: 40})
	if !s.ObstructionCrossesClutter("cabinet") {
		t.Error("cabinet crosses the back-wall ray but reported no crossing")
	}
	if s.ObstructionCrossesClutter("far") {
		t.Error("far blocker crosses no ray but reported a crossing")
	}
	if s.ObstructionCrossesClutter("absent") {
		t.Error("unknown name must report false")
	}
}

// TestClutterPathsWithDeps checks the recorded obstruction footprint
// matches the paths' attenuation.
func TestClutterPathsWithDeps(t *testing.T) {
	s := DefaultIndoorScene()
	s.AddObstruction(Obstruction{Name: "cabinet", A: Point{X: 6, Y: -0.3}, B: Point{X: 6, Y: 0.3}, LossDB: 40})
	s.AddObstruction(Obstruction{Name: "far", A: Point{X: -5, Y: -5}, B: Point{X: -5, Y: -6}, LossDB: 40})
	tx := &Antenna{BoresightGainDBi: 20, BeamwidthDeg: 18, SidelobeFloorDB: -25}
	rx := &Antenna{BoresightGainDBi: 20, BeamwidthDeg: 18, SidelobeFloorDB: -25}
	_, deps := s.ClutterPathsWithDeps(tx, rx, 28e9)
	if len(deps) != 1 || deps[0] != "cabinet" {
		t.Fatalf("deps = %v, want [cabinet]", deps)
	}
}
