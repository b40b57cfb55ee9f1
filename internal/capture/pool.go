package capture

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool recycles the complex-sample buffers that dominate a capture's
// allocations: chirp-frame baseband buffers (one per receive antenna per
// chirp) and zero-padded range-FFT spectra. Buffers are grouped into exact
// size classes — a capture pipeline only ever uses a handful of distinct
// lengths (the chirp sample count and the configured FFT size) — so a Get
// never returns an over-sized slice.
//
// GetComplex always returns a zeroed slice: every consumer (frame
// synthesis, windowed FFT input, masked IFFT scratch) accumulates with +=
// or relies on zero padding, so reuse must be invisible. The zeroing is a
// memclr, far cheaper than the allocation + GC traffic it replaces.
//
// The free lists are plain slices under per-shard mutexes rather than
// sync.Pool: Put-ing a slice into a sync.Pool boxes the slice header,
// costing one allocation per release — exactly the traffic the pool exists
// to remove. Each class is capped so a burst (a long Doppler capture)
// cannot pin memory forever.
//
// Sharding: the free lists are split across poolShards independent shards,
// each with its own lock, and Get/Put pick a starting shard from atomic
// round-robin cursors. A single capture pipeline only ever holds one shard
// lock at a time, and concurrent pipelines (parallel captures on separate
// APs sharing a pool, or the parallel FFT stage's worker goroutines) spread
// across shards instead of serializing on one global mutex. A Get that
// misses its first shard scans the rest before falling back to allocation,
// so a recycled buffer is found regardless of which shard its Put landed
// in — the single-threaded recycling behaviour is unchanged.
//
// A nil *Pool is valid and falls back to plain allocation.
type Pool struct {
	shards [poolShards]poolShard

	// Round-robin starting points for Get and Put shard scans. Separate
	// cursors keep a Put-heavy phase (capture release) from contending with
	// a Get-heavy phase (capture synthesis) on one cache line.
	getCur atomic.Uint32
	putCur atomic.Uint32

	// Recycling counters (nil when the plane is not observed; all obs
	// instruments are nil-safe). hits/misses split Gets by whether a
	// recycled buffer was available; puts/drops split releases by whether
	// the class had room.
	hits, misses, puts, drops *obs.Counter
}

// poolShard is one independently locked slice of the pool's free lists.
type poolShard struct {
	mu      sync.Mutex
	classes map[int][][]complex128
	// classesF are the real-valued size classes: the synthesis kernels'
	// gain envelopes and frequency grids (DESIGN.md §12). Same contract as
	// the complex classes — exact sizes, zeroed on Get, capped per class.
	classesF map[int][][]float64
}

// poolShards is the lock-striping factor. A power of two so the cursor wrap
// is a mask; 8 is comfortably above the worker-goroutine count of any one
// capture's parallel FFT stage.
const poolShards = 8

// classCap bounds retained buffers per size class across all shards. The
// steady-state localization pipeline keeps ~40 buffers in flight; 256
// leaves headroom for long Doppler bursts without letting one burst pin
// memory forever.
const classCap = 256

// shardClassCap is the per-shard slice of classCap. Put scans every shard
// before dropping, so the total retained per class is still classCap.
const shardClassCap = classCap / poolShards

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{}
	for i := range p.shards {
		p.shards[i].classes = make(map[int][][]complex128)
		p.shards[i].classesF = make(map[int][][]float64)
	}
	return p
}

// Observe wires the pool's recycling counters into a registry. Safe on a
// nil pool, which records nothing.
func (p *Pool) Observe(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.hits = reg.Counter(obs.MetricPoolHits)
	p.misses = reg.Counter(obs.MetricPoolMisses)
	p.puts = reg.Counter(obs.MetricPoolPuts)
	p.drops = reg.Counter(obs.MetricPoolDrops)
}

// GetComplex returns a zeroed []complex128 of length n, recycled when a
// buffer of that exact class is available in any shard.
func (p *Pool) GetComplex(n int) []complex128 { return get(p, n, complexClasses) }

// PutComplex returns a buffer to its size class. The caller must not touch
// the slice afterwards — it may be handed to the next capture at any time.
func (p *Pool) PutComplex(buf []complex128) { put(p, buf, complexClasses) }

// GetFloat64 returns a zeroed []float64 of length n, recycled when a buffer
// of that exact class is available in any shard.
func (p *Pool) GetFloat64(n int) []float64 { return get(p, n, realClasses) }

// PutFloat64 returns a real-valued buffer to its size class, under the same
// ownership contract as PutComplex.
func (p *Pool) PutFloat64(buf []float64) { put(p, buf, realClasses) }

func complexClasses(s *poolShard) map[int][][]complex128 { return s.classes }
func realClasses(s *poolShard) map[int][][]float64       { return s.classesF }

// get pops a buffer of class n from the first shard that has one, scanning
// from the Get cursor; classes picks the element type's free lists.
func get[T complex128 | float64](p *Pool, n int, classes func(*poolShard) map[int][][]T) []T {
	if p == nil || n == 0 {
		return make([]T, n)
	}
	start := p.getCur.Add(1)
	for i := uint32(0); i < poolShards; i++ {
		s := &p.shards[(start+i)%poolShards]
		s.mu.Lock()
		m := classes(s)
		if free := m[n]; len(free) > 0 {
			buf := free[len(free)-1]
			free[len(free)-1] = nil
			m[n] = free[:len(free)-1]
			s.mu.Unlock()
			p.hits.Inc()
			clear(buf)
			return buf
		}
		s.mu.Unlock()
	}
	p.misses.Inc()
	return make([]T, n)
}

// put files buf under its full-capacity class in the first shard with
// room, scanning from the Put cursor, and drops it when every shard's
// class is at its cap.
func put[T complex128 | float64](p *Pool, buf []T, classes func(*poolShard) map[int][][]T) {
	if p == nil || cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	start := p.putCur.Add(1)
	for i := uint32(0); i < poolShards; i++ {
		s := &p.shards[(start+i)%poolShards]
		s.mu.Lock()
		m := classes(s)
		if free := m[len(buf)]; len(free) < shardClassCap {
			m[len(buf)] = append(free, buf)
			s.mu.Unlock()
			p.puts.Inc()
			return
		}
		s.mu.Unlock()
	}
	p.drops.Inc()
}

// retainedComplex counts the buffers currently held in a complex size
// class, summed across shards (test hook for the retention cap).
func (p *Pool) retainedComplex(n int) int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total += len(s.classes[n])
		s.mu.Unlock()
	}
	return total
}
