package ap

import (
	"testing"

	"repro/internal/rfsim"
)

// newClutterAP builds an AP over the default indoor scene for cache tests.
func newClutterAP(t *testing.T) *AP {
	t.Helper()
	a, err := New(DefaultConfig(), rfsim.DefaultIndoorScene())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fill derives and caches one entry per pointing.
func fill(a *AP, pointings []float64) {
	for _, p := range pointings {
		a.Steer(p)
		a.clutterPaths(28e9)
	}
}

// cached reports whether a (pointing, carrier) entry is resident.
func cached(a *AP, pointing float64) bool {
	a.clutterMu.Lock()
	defer a.clutterMu.Unlock()
	_, ok := a.clutterCache[clutterKey{pointing: pointing, carrier: 28e9}]
	return ok
}

// TestClutterEvictionDeterministicLRU is the regression test for the
// eviction-at-cap bug: filling past clutterCacheCap must evict exactly the
// least-recently-used entry, on every run, rather than resetting the cache
// or picking a victim in map-iteration order.
func TestClutterEvictionDeterministicLRU(t *testing.T) {
	for run := 0; run < 5; run++ {
		a := newClutterAP(t)
		pointings := make([]float64, clutterCacheCap)
		for i := range pointings {
			pointings[i] = float64(i) * 0.01
		}
		fill(a, pointings)
		// Touch entry 0 so entry 1 becomes the LRU victim.
		fill(a, pointings[:1])
		a.Steer(9.99)
		a.clutterPaths(28e9)
		if cached(a, pointings[1]) {
			t.Fatalf("run %d: LRU entry %g survived eviction", run, pointings[1])
		}
		if !cached(a, pointings[0]) || !cached(a, 9.99) {
			t.Fatalf("run %d: recently-used or new entry was evicted", run)
		}
		a.clutterMu.Lock()
		n := len(a.clutterCache)
		a.clutterMu.Unlock()
		if n != clutterCacheCap {
			t.Fatalf("run %d: cache size %d after eviction, want %d", run, n, clutterCacheCap)
		}
	}
}

// TestClutterIncrementalInvalidation pins the dirty-set eviction tiers:
// node motion keeps every entry, a blocker that never crosses a clutter
// ray keeps every entry, a blocker crossing a ray clears, and removing a
// blocker evicts exactly the entries that depended on it.
func TestClutterIncrementalInvalidation(t *testing.T) {
	a := newClutterAP(t)
	pointings := []float64{0, 0.3, 0.6}
	fill(a, pointings)

	a.scene.TouchNode("n1")
	a.Steer(0)
	a.clutterPaths(28e9)
	for _, p := range pointings {
		if !cached(a, p) {
			t.Fatalf("node motion evicted entry %g", p)
		}
	}

	// A blocker far from every AP→reflector ray: entries survive.
	a.scene.AddObstruction(rfsim.Obstruction{Name: "far", A: rfsim.Point{X: -5, Y: -5}, B: rfsim.Point{X: -5, Y: -6}, LossDB: 30})
	a.Steer(0)
	a.clutterPaths(28e9)
	for _, p := range pointings {
		if !cached(a, p) {
			t.Fatalf("off-path blocker evicted entry %g", p)
		}
	}

	// A blocker crossing the back-wall ray: everything clears.
	a.scene.AddObstruction(rfsim.Obstruction{Name: "cabinet", A: rfsim.Point{X: 6, Y: -0.3}, B: rfsim.Point{X: 6, Y: 0.3}, LossDB: 40})
	a.Steer(0)
	a.clutterPaths(28e9)
	for _, p := range pointings[1:] {
		if cached(a, p) {
			t.Fatalf("on-path blocker left stale entry %g resident", p)
		}
	}

	// Re-fill; every entry now depends on "cabinet". Removing it must
	// evict them (their amplitudes revert), and the rebuilt entries must
	// match a fresh derivation bit-for-bit.
	fill(a, pointings)
	a.scene.RemoveObstruction("cabinet")
	a.Steer(pointings[0])
	got := a.clutterPaths(28e9)
	want, _ := a.scene.ClutterPathsWithDeps(a.tx, a.rx[0], 28e9)
	if len(got) != len(want) {
		t.Fatalf("rebuilt path count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rebuilt path %d stale: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestClutterMoveObstruction checks a mover oscillating off every clutter
// ray leaves the cache resident, and one swinging onto a ray clears it.
func TestClutterMoveObstruction(t *testing.T) {
	a := newClutterAP(t)
	a.scene.AddObstruction(rfsim.Obstruction{Name: "person", A: rfsim.Point{X: -3, Y: 1}, B: rfsim.Point{X: -3, Y: 2}, LossDB: 25})
	fill(a, []float64{0, 0.3})

	// Walk the person around behind the AP: never crosses a ray.
	for i := 0; i < 4; i++ {
		y := 1 + 0.1*float64(i)
		a.scene.MoveObstruction("person", rfsim.Point{X: -3, Y: y}, rfsim.Point{X: -3, Y: y + 1})
		a.Steer(0)
		a.clutterPaths(28e9)
		if !cached(a, 0.3) {
			t.Fatalf("step %d: off-path mover evicted a resident entry", i)
		}
	}

	// Step onto the back-wall ray: stale entries must go.
	a.scene.MoveObstruction("person", rfsim.Point{X: 6, Y: -1}, rfsim.Point{X: 6, Y: 1})
	a.Steer(0)
	a.clutterPaths(28e9)
	if cached(a, 0.3) {
		t.Fatal("mover crossing a clutter ray left a stale entry resident")
	}
}
