package rfsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Reflector is a static clutter object in the environment — a wall, desk, or
// shelf. Its radar cross-section (RCS, m²) sets how strongly it reflects.
// Typical indoor values: a wall section ~10 m², a metal shelf ~1 m², a desk
// ~0.5 m². Clutter reflections are what MilBack's background subtraction
// (§5.1) must remove before the node's weak modulated reflection becomes
// visible.
type Reflector struct {
	Name     string
	Position Point
	RCS      float64
}

// Scene is the simulated indoor environment: a set of static reflectors
// plus any blocking obstructions (see Obstruction).
//
// Mutate a live scene only through the Add/Remove/Move mutators (or call
// Invalidate after touching the slices directly): each mutation bumps the
// scene generation and appends to a bounded dirty log, which is how
// downstream geometry caches (the AP's clutter-path cache) know which
// entries are stale — see DirtySince.
type Scene struct {
	Reflectors   []Reflector
	Obstructions []Obstruction

	// gen counts mutations. Loaded atomically so cache reads on capture
	// paths never need the mutator's lock; the airtime scheduler already
	// serializes mutation against captures.
	gen atomic.Uint64

	// The dirty log records which object each recent generation bump
	// touched, so caches can evict incrementally (DirtySince) instead of
	// resetting on every mutation. Guarded by dirtyMu; the log is bounded,
	// and logStart is the generation immediately before the oldest retained
	// record (every mutation in (logStart, gen] is retained).
	dirtyMu  sync.Mutex
	dirtyLog []dirtyRecord
	logStart uint64
}

// DirtyKind classifies which kind of scene object a mutation touched.
type DirtyKind uint8

// The dirty-record kinds: clutter reflectors, blocking obstructions, and
// node poses (nodes are not scene members, but their motion shares the
// generation counter so pose-dependent caches can observe it).
const (
	DirtyReflector DirtyKind = iota
	DirtyObstruction
	DirtyNode
	// dirtyAll marks a blanket Invalidate: the mutation's footprint is
	// unknown, so DirtySince windows containing one report !ok.
	dirtyAll
)

// dirtyLogCap bounds the retained mutation history. A window reaching past
// the horizon makes DirtySince report !ok and the caller falls back to a
// full invalidation, so the cap trades memory for incremental precision.
const dirtyLogCap = 256

// dirtyRecord is one logged mutation: the generation it produced and the
// object it touched.
type dirtyRecord struct {
	gen  uint64
	kind DirtyKind
	id   string
}

// DirtySet is the footprint of the mutations in a DirtySince window:
// the names of touched reflectors and obstructions and the IDs of moved
// nodes, each deduplicated but otherwise in mutation order.
type DirtySet struct {
	Reflectors   []string
	Obstructions []string
	Nodes        []string
}

// Empty reports whether the window contained no mutations.
func (d DirtySet) Empty() bool {
	return len(d.Reflectors) == 0 && len(d.Obstructions) == 0 && len(d.Nodes) == 0
}

// record logs a mutation under the next generation number and returns it.
func (s *Scene) record(kind DirtyKind, id string) uint64 {
	s.dirtyMu.Lock()
	gen := s.gen.Add(1)
	s.dirtyLog = append(s.dirtyLog, dirtyRecord{gen: gen, kind: kind, id: id})
	if len(s.dirtyLog) > dirtyLogCap {
		drop := len(s.dirtyLog) - dirtyLogCap
		s.logStart = s.dirtyLog[drop-1].gen
		s.dirtyLog = append(s.dirtyLog[:0], s.dirtyLog[drop:]...)
	}
	s.dirtyMu.Unlock()
	return gen
}

// Generation returns the scene's mutation counter. Two calls returning the
// same value bracket a window in which derived geometry (clutter paths) is
// still valid.
func (s *Scene) Generation() uint64 { return s.gen.Load() }

// DirtySince returns the set of object IDs mutated in the window
// (gen, Generation()]. The second result is false when the window cannot
// be reconstructed — it predates the bounded dirty log, spans a blanket
// Invalidate, or gen is from another scene — in which case the caller must
// treat everything as dirty.
func (s *Scene) DirtySince(gen uint64) (DirtySet, bool) {
	var ds DirtySet
	s.dirtyMu.Lock()
	defer s.dirtyMu.Unlock()
	cur := s.gen.Load()
	if gen == cur {
		return ds, true
	}
	if gen > cur || gen < s.logStart {
		return ds, false
	}
	seen := make(map[string]struct{})
	for _, r := range s.dirtyLog {
		if r.gen <= gen {
			continue
		}
		if r.kind == dirtyAll {
			return DirtySet{}, false
		}
		key := string(rune('0'+r.kind)) + r.id
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		switch r.kind {
		case DirtyReflector:
			ds.Reflectors = append(ds.Reflectors, r.id)
		case DirtyObstruction:
			ds.Obstructions = append(ds.Obstructions, r.id)
		case DirtyNode:
			ds.Nodes = append(ds.Nodes, r.id)
		}
	}
	return ds, true
}

// Invalidate bumps the scene generation without changing contents, forcing
// downstream caches to re-derive geometry. Call it after mutating the
// Reflectors or Obstructions slices directly. The mutation's footprint is
// unknown, so DirtySince windows spanning it report !ok and incremental
// caches fall back to a full reset.
func (s *Scene) Invalidate() { s.record(dirtyAll, "") }

// TouchNode records that the node with the given ID moved. Node poses are
// not scene state, but sharing the generation counter lets pose-dependent
// caches watch one clock; the AP's clutter cache ignores node entries
// (clutter geometry does not depend on node pose), which is exactly the
// incremental win — a moving node no longer resets derived clutter.
func (s *Scene) TouchNode(id string) { s.record(DirtyNode, id) }

// AddReflector appends a clutter reflector to the scene and invalidates
// cached geometry.
func (s *Scene) AddReflector(r Reflector) {
	s.Reflectors = append(s.Reflectors, r)
	s.record(DirtyReflector, r.Name)
}

// RemoveReflector deletes the first reflector with the given name,
// reporting whether one was found.
func (s *Scene) RemoveReflector(name string) bool {
	for i, r := range s.Reflectors {
		if r.Name == name {
			s.Reflectors = append(s.Reflectors[:i], s.Reflectors[i+1:]...)
			s.record(DirtyReflector, name)
			return true
		}
	}
	return false
}

// MoveReflector repositions the first reflector with the given name,
// reporting whether one was found. Reflector motion invalidates every
// cached clutter entry (each entry carries one path per reflector), but
// the dirty log still records the specific name for diagnostics.
func (s *Scene) MoveReflector(name string, to Point) bool {
	for i, r := range s.Reflectors {
		if r.Name == name {
			s.Reflectors[i].Position = to
			s.record(DirtyReflector, name)
			return true
		}
	}
	return false
}

// DefaultIndoorScene reproduces the evaluation environment of §9: "an indoor
// environment, with the presence of objects such as tables, chairs, and
// shelves".
func DefaultIndoorScene() *Scene {
	return &Scene{Reflectors: []Reflector{
		{Name: "back wall", Position: Point{X: 12, Y: 0}, RCS: 10},
		{Name: "side wall", Position: Point{X: 6, Y: 4}, RCS: 8},
		{Name: "desk", Position: Point{X: 3, Y: -1.5}, RCS: 0.5},
		{Name: "metal shelf", Position: Point{X: 7, Y: 2.5}, RCS: 1.5},
		{Name: "chair", Position: Point{X: 4.5, Y: 1}, RCS: 0.2},
	}}
}

// EmptyScene returns a scene with no clutter (anechoic conditions), useful
// for micro-benchmarks and ablations.
func EmptyScene() *Scene { return &Scene{} }

// Path is one propagation path from the AP transmitter, off an object, back
// to an AP receive antenna — the unit the dechirped-domain FMCW synthesizer
// consumes. Amplitude is a linear voltage gain relative to the transmitted
// waveform (it already includes antenna gains, path loss and RCS);
// Delay is the total round-trip delay in seconds.
type Path struct {
	Name      string
	Delay     float64
	Amplitude float64
	// AoARad is the arrival azimuth at the AP, used to compute the phase
	// offset between the two receive antennas.
	AoARad float64
}

// radarAmplitude evaluates the radar-equation voltage gain of a monostatic
// path: sqrt( Gt·Gr·λ²·σ / ((4π)³·d⁴) ).
func radarAmplitude(gtDBi, grDBi, d, f, rcs float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("rfsim: radar path distance must be positive, got %g", d))
	}
	lambda := Wavelength(f)
	gt := math.Pow(10, gtDBi/10)
	gr := math.Pow(10, grDBi/10)
	p := gt * gr * lambda * lambda * rcs / (math.Pow(4*math.Pi, 3) * math.Pow(d, 4))
	return math.Sqrt(p)
}

// ClutterPathsWithDeps returns the round-trip paths off every reflector in
// the scene for an AP with the given transmit and receive horn antennas,
// evaluated at carrier frequency f, plus the derivation's obstruction
// footprint: the deduplicated names of every obstruction crossing some
// AP→reflector ray. Incremental caches key eviction on this set — an
// obstruction outside it (and still outside it after moving) cannot change
// the derived paths.
func (s *Scene) ClutterPathsWithDeps(tx, rx *Antenna, f float64) ([]Path, []string) {
	origin := Point{}
	paths := make([]Path, 0, len(s.Reflectors))
	var deps []string
	for _, r := range s.Reflectors {
		d := r.Position.Distance(origin)
		az := r.Position.AngleFrom(origin)
		amp := radarAmplitude(tx.GainDBi(az), rx.GainDBi(az), d, f, r.RCS)
		// Obstructions attenuate the clutter path twice (out and back):
		// one-way loss L dB ⇒ round-trip amplitude factor 10^(−L/10).
		loss := 0.0
		for _, o := range s.Obstructions {
			if segmentsIntersect(origin, r.Position, o.A, o.B) {
				loss += o.LossDB
				deps = appendUnique(deps, o.Name)
			}
		}
		if loss > 0 {
			amp *= math.Pow(10, -loss/10)
		}
		paths = append(paths, Path{
			Name:      r.Name,
			Delay:     2 * PropagationDelay(d),
			Amplitude: amp,
			AoARad:    az,
		})
	}
	return paths, deps
}

// ObstructionCrossesClutter reports whether the named obstruction's current
// segment intersects any AP→reflector ray. The rays depend only on
// reflector positions — not antenna pointing — so one evaluation answers
// the staleness question for every cached pointing at once. A name not in
// the scene reports false.
func (s *Scene) ObstructionCrossesClutter(name string) bool {
	origin := Point{}
	for _, o := range s.Obstructions {
		if o.Name != name {
			continue
		}
		for _, r := range s.Reflectors {
			if segmentsIntersect(origin, r.Position, o.A, o.B) {
				return true
			}
		}
	}
	return false
}

// appendUnique appends s to list if not already present (lists here are a
// handful of names, so linear scan beats a map allocation).
func appendUnique(list []string, s string) []string {
	for _, v := range list {
		if v == s {
			return list
		}
	}
	return append(list, s)
}

// BackscatterAmplitude returns the linear voltage gain of the AP→node→AP
// path when the node presents an effective reflection gain of nodeGainDBi
// (the FSA's reflective-mode gain counts twice: once receiving, once
// re-radiating; callers pass the combined figure).
func BackscatterAmplitude(txDBi, rxDBi, nodeGainDBi, d, f float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("rfsim: backscatter distance must be positive, got %g", d))
	}
	lambda := Wavelength(f)
	// Two Friis legs with the node's aperture in the middle. Using the
	// bistatic radar form with effective RCS σ_eff = Gnode²λ²/(4π):
	gt := math.Pow(10, txDBi/10)
	gr := math.Pow(10, rxDBi/10)
	gn := math.Pow(10, nodeGainDBi/10)
	sigmaEff := gn * gn * lambda * lambda / (4 * math.Pi)
	p := gt * gr * lambda * lambda * sigmaEff / (math.Pow(4*math.Pi, 3) * math.Pow(d, 4))
	return math.Sqrt(p)
}

// OneWayAmplitude returns the linear voltage gain of a one-way AP→node link
// (downlink): sqrt(Gt·Gn·(λ/4πd)²).
func OneWayAmplitude(txDBi, nodeDBi, d, f float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("rfsim: one-way distance must be positive, got %g", d))
	}
	lambda := Wavelength(f)
	gt := math.Pow(10, txDBi/10)
	gn := math.Pow(10, nodeDBi/10)
	fr := lambda / (4 * math.Pi * d)
	return math.Sqrt(gt * gn * fr * fr)
}
