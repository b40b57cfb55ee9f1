package capture

import (
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/obs"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// Option configures a Plane.
type Option func(*Plane)

// WithObserver wires the plane's lease-lifecycle and pool-recycling
// counters into reg and (if tr is non-nil) records one obs.SpanLease span
// per closed lease. Without this option the plane records nothing.
func WithObserver(reg *obs.Registry, tr *obs.Tracer) Option {
	return func(p *Plane) {
		p.reg = reg
		p.tracer = tr
	}
}

// Plane is the shared capture pipeline of one AP. It is safe for
// concurrent use in the sense the airtime scheduler guarantees — one
// operation on the air at a time; individual Leases are not goroutine-safe.
type Plane struct {
	ap   *ap.AP
	pool *Pool

	// Observability wiring (set by WithObserver, resolved once in
	// NewPlane). obs is nil when unobserved; every instrument call is
	// nil-safe, so the hot path needs no flag checks beyond that pointer.
	reg    *obs.Registry
	tracer *obs.Tracer
	obs    *planeObs

	mu  sync.Mutex
	job *JobLease
}

// planeObs holds the plane's resolved instruments: lease lifetimes (the
// span from Acquire to Close, i.e. how long an operation holds capture
// buffers), the open/close/reclaim lease counters, and a capture counter.
type planeObs struct {
	leaseSeconds    *obs.Histogram
	leasesOpened    *obs.Counter
	leasesClosed    *obs.Counter
	leasesReclaimed *obs.Counter
	captures        *obs.Counter
}

// NewPlane builds the capture plane for an AP, wiring the buffer pool into
// the AP's synthesis and processing paths.
func NewPlane(a *ap.AP, opts ...Option) *Plane {
	p := &Plane{ap: a, pool: NewPool()}
	for _, o := range opts {
		o(p)
	}
	if p.reg != nil {
		p.obs = &planeObs{
			leaseSeconds:    p.reg.Histogram(obs.MetricLeaseSeconds, obs.DurationBuckets()),
			leasesOpened:    p.reg.Counter(obs.MetricLeasesOpened),
			leasesClosed:    p.reg.Counter(obs.MetricLeasesClosed),
			leasesReclaimed: p.reg.Counter(obs.MetricLeasesReclaimed),
			captures:        p.reg.Counter(obs.MetricCapturesAcquired),
		}
		p.pool.Observe(p.reg)
	}
	a.SetBufferPool(p.pool)
	return p
}

// AP returns the access point the plane captures through.
func (p *Plane) AP() *ap.AP { return p.ap }

// Request describes one FMCW chirp-burst capture: which chirp to sweep,
// how many times, which modulated targets respond (each with its switch
// states and one gain-envelope fill; see ap.BackscatterTarget), the grid
// table the AP fills once and hands to every target's fill (the zero value
// for none, which hands each fill a nil table; see ap.GridTable), and any
// extra injected paths (the FSA ground-plane mirror image). Steering and noise
// come from the Lease, so a multi-phase operation (ranging then
// orientation) reuses both without re-deriving them.
type Request struct {
	Chirp   waveform.Chirp
	NChirps int
	Targets []*ap.BackscatterTarget
	Table   ap.GridTable
	Extra   []ap.ModulatedPath
}

// Capture is one chirp burst's dechirped frames, held in pooled buffers
// until released.
type Capture struct {
	Frames   []ap.ChirpFrame
	pool     *Pool
	released bool
}

// Release returns the capture's frame buffers to the pool. Idempotent. The
// frames must not be read afterwards; the Rx slices are nilled so a stale
// reader fails as an empty-frame error instead of seeing recycled samples.
func (c *Capture) Release() {
	if c == nil || c.released {
		return
	}
	c.released = true
	for i := range c.Frames {
		for m := range c.Frames[i].Rx {
			c.pool.PutComplex(c.Frames[i].Rx[m])
			c.Frames[i].Rx[m] = nil
		}
	}
}

// Lease is one operation's grant of the capture plane: the horns are
// steered, the per-operation noise stream is seeded, and every chirp
// capture drawn through it is tracked for release. Not goroutine-safe —
// a lease belongs to the one operation that acquired it.
type Lease struct {
	plane *Plane
	// Noise is the operation's deterministic noise source. Every random
	// draw of the operation comes from it or from a stream keyed off it:
	// each capture's imperfections and noise key, the uplink AWGN and the
	// node-side draws are taken from it in a fixed order, and each chirp's
	// AWGN comes from the keyed stream (noise key, chirp, antenna). That
	// makes results bit-identical for a fixed seed at any GOMAXPROCS.
	Noise *rfsim.NoiseSource

	job      *JobLease
	captures []*Capture
	closed   bool
	start    time.Time // lease-lifetime clock; zero when unobserved
}

// Acquire steers the AP at the given azimuth and opens a lease whose noise
// stream is seeded with seed. Every core pipeline begins here.
func (p *Plane) Acquire(steerRad float64, seed int64) *Lease {
	p.ap.Steer(steerRad)
	l := &Lease{plane: p, Noise: rfsim.NewNoiseSource(seed)}
	if o := p.obs; o != nil {
		o.leasesOpened.Inc()
		l.start = time.Now()
	}
	p.mu.Lock()
	if p.job != nil {
		l.job = p.job
		p.job.open = append(p.job.open, l)
	}
	p.mu.Unlock()
	return l
}

// Steer re-points the horns mid-operation (discovery sweeps step the beam
// across the scan range under a single lease and noise stream).
func (l *Lease) Steer(azimuthRad float64) { l.plane.ap.Steer(azimuthRad) }

// Chirps synthesizes one chirp-burst capture into pooled frame buffers.
// The capture draws this burst's hardware imperfections and one noise key
// from the lease's noise stream; each chirp and antenna then adds its AWGN
// in place from its own stream keyed by (noise key, chirp, antenna).
// Invalid requests return an error wrapping ap.ErrInvalidConfig.
func (l *Lease) Chirps(req Request) (*Capture, error) {
	frames, err := l.plane.ap.SynthesizeChirps(req.Chirp, req.NChirps, req.Targets, req.Table, req.Extra, l.Noise)
	if err != nil {
		return nil, err
	}
	if o := l.plane.obs; o != nil {
		o.captures.Inc()
	}
	c := &Capture{Frames: frames, pool: l.plane.pool}
	l.captures = append(l.captures, c)
	return c, nil
}

// Close releases every capture the lease still holds and detaches it from
// the enclosing job lease. Idempotent.
func (l *Lease) Close() {
	if l == nil || l.closed {
		return
	}
	l.closed = true
	if o := l.plane.obs; o != nil {
		o.leasesClosed.Inc()
		o.leaseSeconds.Observe(time.Since(l.start).Seconds())
		l.plane.tracer.Record(obs.SpanLease, l.start, int64(len(l.captures)))
	}
	for _, c := range l.captures {
		c.Release()
	}
	l.captures = nil
	if l.job != nil {
		l.plane.mu.Lock()
		for i, o := range l.job.open {
			if o == l {
				l.job.open = append(l.job.open[:i], l.job.open[i+1:]...)
				break
			}
		}
		l.plane.mu.Unlock()
	}
}

// JobLease ties capture-buffer lifetime to one airtime grant. The
// scheduler engine opens one immediately before executing a job and ends
// it right after: any Lease the job's pipelines opened and failed to close
// (a panic recovered upstream, an early return without defer) is reclaimed
// at the grant boundary, so leaked buffers cost at most one job, never the
// process lifetime.
type JobLease struct {
	plane *Plane
	prev  *JobLease
	open  []*Lease
	ended bool
}

// BeginJob opens a job lease and makes it the plane's active job. Nested
// calls stack (the engine never nests, but direct System use in tests may).
func (p *Plane) BeginJob() *JobLease {
	p.mu.Lock()
	defer p.mu.Unlock()
	j := &JobLease{plane: p, prev: p.job}
	p.job = j
	return j
}

// End closes any leases still open under the job and restores the previous
// active job. Idempotent.
func (j *JobLease) End() {
	if j == nil {
		return
	}
	j.plane.mu.Lock()
	if j.ended {
		j.plane.mu.Unlock()
		return
	}
	j.ended = true
	open := j.open
	j.open = nil
	if j.plane.job == j {
		j.plane.job = j.prev
	}
	j.plane.mu.Unlock()
	for _, l := range open {
		// Detach before Close so Close's unregister pass doesn't walk the
		// cleared list. A lease still open at the grant boundary is a leak
		// the job failed to clean up; count the reclaim (Close below also
		// counts it as closed — reclaimed is the "of which leaked" subset).
		if o := j.plane.obs; o != nil && !l.closed {
			o.leasesReclaimed.Inc()
		}
		l.job = nil
		l.Close()
	}
}
