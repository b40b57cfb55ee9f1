package ap

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// BufferPool recycles complex-sample buffers for the capture hot path. The
// AP only depends on this seam; the concrete pool lives in internal/capture
// (which imports ap, hence the interface here). GetComplex must return a
// zeroed slice of exactly n samples; PutComplex takes ownership of the
// buffer. GetFloat64/PutFloat64 are the same contract for the real-valued
// scratch the synthesis kernels use (gain envelopes, frequency grids). A
// nil BufferPool means plain allocation.
type BufferPool interface {
	GetComplex(n int) []complex128
	PutComplex(buf []complex128)
	GetFloat64(n int) []float64
	PutFloat64(buf []float64)
}

// Config holds the AP's RF and processing parameters.
type Config struct {
	// TxPowerW is the transmit power (0.5 W = 27 dBm, §8).
	TxPowerW float64
	// TxGainDBi / RxGainDBi are the horn gains (20 dBi, §8).
	TxGainDBi, RxGainDBi float64
	// RxSpacingM is the receive-array element spacing; defaults to λ/2 at
	// the band centre.
	RxSpacingM float64
	// BeatSampleRateHz is the ADC rate for the dechirped signal.
	BeatSampleRateHz float64
	// NoiseFigureDB is the receiver noise figure.
	NoiseFigureDB float64
	// FFTSize is the zero-padded range-FFT length.
	FFTSize int
	// ChirpIntervalS is the chirp repetition interval within a burst; it
	// sets the Doppler sampling rate for radial-velocity estimation. The
	// prototype's 10 kHz node toggling implies 50 µs between chirps.
	ChirpIntervalS float64
	// LocalizationChirp is the Field-2 chirp.
	LocalizationChirp waveform.Chirp
	// OrientationChirp is the Field-1 chirp.
	OrientationChirp waveform.Chirp
	// ImplementationLossDB lumps cable/connector/polarization/processing
	// losses of the receive chain (calibration constant, DESIGN.md §4.6).
	ImplementationLossDB float64
	// SweepNonlinearityStd is the per-capture fractional error of the chirp
	// slope (VXG sweep nonlinearity + clock error). It scales range
	// estimates by (1+η) and skews the time→frequency map the orientation
	// estimator relies on — the dominant, distance-proportional term of the
	// paper's ranging error (Fig 12a).
	SweepNonlinearityStd float64
	// SyncJitterStd is the per-capture trigger-synchronization jitter (s)
	// between the waveform generator and the digitizer ("synchronized
	// externally", §8); it adds a distance-independent ranging error floor.
	SyncJitterStd float64
	// RxPhaseMismatchStd is the per-capture phase mismatch (radians)
	// between the two receive chains (cables, LNAs, mixers), the dominant
	// angle-estimation error (Fig 12b).
	RxPhaseMismatchStd float64
}

// DefaultConfig returns the §8 prototype parameters.
func DefaultConfig() Config {
	return Config{
		TxPowerW:             0.5,
		TxGainDBi:            20,
		RxGainDBi:            20,
		RxSpacingM:           rfsim.Wavelength(28e9) / 2,
		BeatSampleRateHz:     25e6,
		NoiseFigureDB:        6,
		FFTSize:              2048,
		ChirpIntervalS:       50e-6,
		LocalizationChirp:    waveform.MilBackLocalizationChirp(),
		OrientationChirp:     waveform.MilBackOrientationChirp(),
		ImplementationLossDB: 17,
		SweepNonlinearityStd: 0.012,
		SyncJitterStd:        0.15e-9,
		RxPhaseMismatchStd:   0.09,
	}
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.TxPowerW <= 0 {
		return fmt.Errorf("ap: tx power must be positive, got %g", c.TxPowerW)
	}
	if c.BeatSampleRateHz <= 0 {
		return fmt.Errorf("ap: beat sample rate must be positive, got %g", c.BeatSampleRateHz)
	}
	if c.FFTSize < 8 || c.FFTSize&(c.FFTSize-1) != 0 {
		return fmt.Errorf("ap: FFT size must be a power of two >= 8, got %d", c.FFTSize)
	}
	if c.RxSpacingM <= 0 {
		return fmt.Errorf("ap: rx spacing must be positive, got %g", c.RxSpacingM)
	}
	if c.ChirpIntervalS <= 0 {
		return fmt.Errorf("ap: chirp interval must be positive, got %g", c.ChirpIntervalS)
	}
	if c.NoiseFigureDB < 0 {
		return fmt.Errorf("ap: noise figure must be >= 0, got %g", c.NoiseFigureDB)
	}
	if c.ImplementationLossDB < 0 {
		return fmt.Errorf("ap: implementation loss must be >= 0, got %g", c.ImplementationLossDB)
	}
	if c.SweepNonlinearityStd < 0 || c.SyncJitterStd < 0 || c.RxPhaseMismatchStd < 0 {
		return fmt.Errorf("ap: imperfection stds must be >= 0 (got %g, %g, %g)",
			c.SweepNonlinearityStd, c.SyncJitterStd, c.RxPhaseMismatchStd)
	}
	if err := c.LocalizationChirp.Validate(); err != nil {
		return err
	}
	return c.OrientationChirp.Validate()
}

// AP is the MilBack access point.
type AP struct {
	cfg   Config
	tx    *rfsim.Antenna
	rx    [2]*rfsim.Antenna
	array *rfsim.RxArray
	scene *rfsim.Scene

	// pool recycles frame and spectrum buffers (nil = allocate).
	pool BufferPool

	// Clutter-path cache: ClutterPaths is pure in (scene contents, antenna
	// pointing, carrier), so identical captures — the steady state of a
	// node being polled — reuse the derived geometry instead of re-walking
	// the scene. Entries are keyed on (pointing, carrier) and synced to the
	// scene's dirty log (syncClutterLocked): a mutation evicts only entries
	// whose paths it can actually change, and eviction at capacity is
	// deterministic LRU by clutterTick, never map-iteration order.
	clutterMu    sync.Mutex
	clutterCache map[clutterKey]*clutterEntry
	clutterGen   uint64
	clutterTick  uint64

	// obs holds the AP's resolved stage instruments; nil (the default)
	// means unobserved and the pipelines skip even the clock reads.
	obs *apObs
}

// apObs is the AP's per-stage instrumentation, resolved once by
// SetObserver: wall-clock histograms for the three pipeline stages
// (synthesis, windowed range FFTs, post-FFT detection), clutter-cache
// effectiveness counters, and an optional tracer for per-stage spans.
type apObs struct {
	synthesize   *obs.Histogram
	fft          *obs.Histogram
	detect       *obs.Histogram
	clutterHits  *obs.Counter
	clutterMiss  *obs.Counter
	clutterInval *obs.Counter
	clutterEvict *obs.Counter
	tracer       *obs.Tracer

	// Sub-stage split of the synthesize stage (DESIGN.md §12):
	// clutter-template fill, target-tone generation (including gain-envelope
	// memoization), and the noise fold-in.
	synthClutter *obs.Histogram
	synthTargets *obs.Histogram
	synthNoise   *obs.Histogram

	// fftBatch times the batched subtract-transform pass (DESIGN.md §17);
	// its span nests inside the enclosing ap.fft span.
	fftBatch *obs.Histogram
	// captureWorkers distributes the participant counts of intra-capture
	// fan-outs, showing how much of the worker budget the stages actually
	// used.
	captureWorkers *obs.Histogram
}

// clutterKey identifies one clutter derivation. Pointing matters because
// horn gain toward each reflector depends on where the beam points; the
// carrier matters because path amplitude is frequency-dependent. Scene
// content changes are handled by the dirty-log sync, not the key.
type clutterKey struct {
	pointing float64
	carrier  float64
}

// clutterEntry is one cached derivation: the paths, the obstruction names
// whose segments crossed some AP→reflector ray at derive time (the entry's
// staleness footprint), and the last-use tick for LRU eviction.
type clutterEntry struct {
	paths []rfsim.Path
	deps  []string
	tick  uint64
}

// clutterCacheCap bounds retained entries. A cell only revisits a handful
// of pointings (one per node plus the discovery scan grid), so eviction is
// rare; on overflow the least-recently-used entry is dropped.
const clutterCacheCap = 64

// New builds an AP operating in the given scene (nil means an empty,
// clutter-free environment).
func New(cfg Config, scene *rfsim.Scene) (*AP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if scene == nil {
		scene = rfsim.EmptyScene()
	}
	a := &AP{
		cfg:        cfg,
		tx:         &rfsim.Antenna{BoresightGainDBi: cfg.TxGainDBi, BeamwidthDeg: 18, SidelobeFloorDB: -25},
		array:      &rfsim.RxArray{Spacing: cfg.RxSpacingM},
		scene:      scene,
		clutterGen: scene.Generation(),
	}
	for i := range a.rx {
		a.rx[i] = &rfsim.Antenna{BoresightGainDBi: cfg.RxGainDBi, BeamwidthDeg: 18, SidelobeFloorDB: -25}
	}
	return a, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, scene *rfsim.Scene) *AP {
	a, err := New(cfg, scene)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the AP's configuration.
func (a *AP) Config() Config { return a.cfg }

// Scene returns the environment the AP operates in.
func (a *AP) Scene() *rfsim.Scene { return a.scene }

// Steer points the transmit and receive horns toward azimuth (radians). The
// paper steers mechanically; the protocol layer calls this when it scans for
// or tracks a node.
func (a *AP) Steer(azimuthRad float64) {
	a.tx.Point(azimuthRad)
	for _, r := range a.rx {
		r.Point(azimuthRad)
	}
}

// Pointing returns the current boresight azimuth (radians).
func (a *AP) Pointing() float64 { return a.tx.PointingRad }

// SetBufferPool installs (or with nil removes) the buffer pool the capture
// pipelines draw frame and spectrum buffers from.
func (a *AP) SetBufferPool(p BufferPool) { a.pool = p }

// SetObserver wires the AP's per-stage timing histograms and clutter-cache
// counters into reg, and (if tr is non-nil) records one span per pipeline
// stage. A nil reg turns instrumentation off again. Recording is
// allocation-free and touches no simulation state, so results are
// bit-identical with or without an observer.
func (a *AP) SetObserver(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil {
		a.obs = nil
		return
	}
	a.obs = &apObs{
		synthesize:   reg.Histogram(obs.MetricSynthesizeSeconds, obs.DurationBuckets()),
		fft:          reg.Histogram(obs.MetricFFTSeconds, obs.DurationBuckets()),
		detect:       reg.Histogram(obs.MetricDetectSeconds, obs.DurationBuckets()),
		clutterHits:  reg.Counter(obs.MetricClutterHits),
		clutterMiss:  reg.Counter(obs.MetricClutterMisses),
		clutterInval: reg.Counter(obs.MetricClutterInvalidations),
		clutterEvict: reg.Counter(obs.MetricClutterEvictions),
		tracer:       tr,
		synthClutter: reg.Histogram(obs.MetricSynthClutterSeconds, obs.DurationBuckets()),
		synthTargets: reg.Histogram(obs.MetricSynthTargetsSeconds, obs.DurationBuckets()),
		synthNoise:   reg.Histogram(obs.MetricSynthNoiseSeconds, obs.DurationBuckets()),

		fftBatch:       reg.Histogram(obs.MetricFFTBatchSeconds, obs.DurationBuckets()),
		captureWorkers: reg.Histogram(obs.MetricCaptureWorkers, obs.WorkerCountBuckets()),
	}
}

// captureWorkers returns the worker budget for intra-capture fan-outs:
// GOMAXPROCS. Fan-outs are bit-identical at any worker count (DESIGN.md
// §17), so GOMAXPROCS=1 is the serial oracle the determinism tests use.
func (a *AP) captureWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// fanOut runs fn over [0, n) on up to `workers` pooled participants
// (parallel.ForEachScratch semantics: dense worker index, one item at a time
// per worker) and records the participant count when the AP is observed.
func (a *AP) fanOut(n, workers int, fn func(worker, i int)) int {
	got := parallel.ForEachScratch(n, workers, fn)
	if o := a.obs; o != nil && n > 0 {
		o.captureWorkers.Observe(float64(got))
	}
	return got
}

// busyClock sums per-item wall time across fan-out workers so a stage span
// can carry a ".busy" companion (summed worker time vs the stage's wall
// time — the parallel-efficiency signal milback-report surfaces). A nil
// clock is a no-op on every method, so untraced or serial captures pay
// neither the allocation nor the clock reads.
type busyClock struct {
	ns atomic.Int64
}

// newBusyClock returns a live clock only when the stage is both traced and
// genuinely parallel — a serial stage's busy time is its wall time.
func newBusyClock(o *apObs, workers int) *busyClock {
	if o == nil || o.tracer == nil || workers <= 1 {
		return nil
	}
	return &busyClock{}
}

func (b *busyClock) start() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

func (b *busyClock) stop(t time.Time) {
	if b == nil {
		return
	}
	b.ns.Add(int64(time.Since(t)))
}

// recordBusy emits the ".busy" companion span for a stage that fanned out
// across `workers` participants.
func (b *busyClock) recordBusy(tr *obs.Tracer, stage string, start time.Time, workers int) {
	if b == nil {
		return
	}
	tr.RecordSpan(obs.Span{
		Name:    stage + obs.SpanBusySuffix,
		StartNS: start.UnixNano(),
		DurNS:   b.ns.Load(),
		Arg:     int64(workers),
	})
}

// syncClutterLocked brings the cache up to the scene's current generation,
// evicting incrementally from the dirty log. Three tiers, cheapest first:
//
//   - node-pose dirt: clutter geometry does not depend on node pose, so
//     the entries survive untouched — a moving node costs nothing.
//   - obstruction dirt: an entry is stale only if a dirty blocker crossed
//     its rays at derive time (recorded in deps) or crosses them now. The
//     AP→reflector rays are pointing-independent, so the "crosses now"
//     test runs once per dirty name, not once per entry; a positive answer
//     means every remaining entry is stale and the cache clears.
//   - reflector dirt, an unreconstructible window (log overflow), or a
//     blanket Invalidate: every entry carries one path per reflector, so
//     the cache clears.
//
// Caller holds clutterMu.
func (a *AP) syncClutterLocked() {
	cur := a.scene.Generation()
	if cur == a.clutterGen {
		return
	}
	ds, ok := a.scene.DirtySince(a.clutterGen)
	a.clutterGen = cur
	if len(a.clutterCache) == 0 {
		return
	}
	if !ok || len(ds.Reflectors) > 0 {
		a.dropEntriesLocked(len(a.clutterCache))
		return
	}
	for _, name := range ds.Obstructions {
		if a.scene.ObstructionCrossesClutter(name) {
			a.dropEntriesLocked(len(a.clutterCache))
			return
		}
		for k, e := range a.clutterCache {
			for _, dep := range e.deps {
				if dep == name {
					delete(a.clutterCache, k)
					a.dropEntriesLocked(1)
					break
				}
			}
		}
	}
}

// dropEntriesLocked folds n evicted entries into the cache counters; n
// equal to the cache size means a full reset (the map is dropped). Caller
// holds clutterMu.
func (a *AP) dropEntriesLocked(n int) {
	if n == len(a.clutterCache) {
		a.clutterCache = nil
	}
	if o := a.obs; o != nil && n > 0 {
		o.clutterInval.Inc()
		o.clutterEvict.Add(uint64(n))
	}
}

// evictLRULocked removes the least-recently-used entry — deterministic:
// ticks are unique and monotonic, so the minimum is unambiguous regardless
// of map iteration order. Caller holds clutterMu.
func (a *AP) evictLRULocked() {
	var victim clutterKey
	best := uint64(math.MaxUint64)
	for k, e := range a.clutterCache {
		if e.tick < best {
			best, victim = e.tick, k
		}
	}
	delete(a.clutterCache, victim)
	if o := a.obs; o != nil {
		o.clutterEvict.Inc()
	}
}

// clutterPaths returns the scene's clutter paths for the current pointing
// at carrier fc, cached until a scene mutation touches them or LRU
// pressure evicts them. The cached slice is shared and read-only
// downstream (the synthesizer only reads Path fields).
func (a *AP) clutterPaths(fc float64) []rfsim.Path {
	key := clutterKey{pointing: a.tx.PointingRad, carrier: fc}
	a.clutterMu.Lock()
	a.syncClutterLocked()
	if e, ok := a.clutterCache[key]; ok {
		a.clutterTick++
		e.tick = a.clutterTick
		a.clutterMu.Unlock()
		if o := a.obs; o != nil {
			o.clutterHits.Inc()
		}
		return e.paths
	}
	a.clutterMu.Unlock()
	if o := a.obs; o != nil {
		o.clutterMiss.Inc()
	}
	paths, deps := a.scene.ClutterPathsWithDeps(a.tx, a.rx[0], fc)
	a.clutterMu.Lock()
	// The scheduler serializes mutation against captures, but re-sync anyway
	// so a derivation raced by a mutation is never installed against a stale
	// generation.
	a.syncClutterLocked()
	if len(a.clutterCache) >= clutterCacheCap {
		a.evictLRULocked()
	}
	if a.clutterCache == nil {
		a.clutterCache = make(map[clutterKey]*clutterEntry)
	}
	a.clutterTick++
	a.clutterCache[key] = &clutterEntry{paths: paths, deps: deps, tick: a.clutterTick}
	a.clutterMu.Unlock()
	return paths
}

// getComplex draws a zeroed buffer from the pool, or allocates one.
func (a *AP) getComplex(n int) []complex128 {
	if a.pool == nil {
		return make([]complex128, n)
	}
	return a.pool.GetComplex(n)
}

// putComplex returns a buffer to the pool; without a pool it is a no-op and
// the buffer is left to the GC, which is the historical behavior.
func (a *AP) putComplex(buf []complex128) {
	if a.pool != nil {
		a.pool.PutComplex(buf)
	}
}

// getFloat64 draws a zeroed real-valued scratch buffer from the pool, or
// allocates one.
func (a *AP) getFloat64(n int) []float64 {
	if a.pool == nil {
		return make([]float64, n)
	}
	return a.pool.GetFloat64(n)
}

// putFloat64 returns a real-valued scratch buffer to the pool (no-op
// without a pool).
func (a *AP) putFloat64(buf []float64) {
	if a.pool != nil {
		a.pool.PutFloat64(buf)
	}
}

// noisePowerW returns the receiver noise power (W) over bandwidth bw.
func (a *AP) noisePowerW(bw float64) float64 {
	return rfsim.DBmToWatts(rfsim.ThermalNoiseDBm(bw) + a.cfg.NoiseFigureDB)
}

// implementationLoss returns the linear amplitude factor of the lumped
// receive-chain losses.
func (a *AP) implementationLoss() float64 {
	return math.Pow(10, -a.cfg.ImplementationLossDB/20)
}
