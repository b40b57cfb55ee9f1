package proto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The AP airtime scheduler.
//
// A MilBack AP serves one beam at a time: spatial-division multiplexing
// means every packet, localization capture, or discovery sweep occupies the
// simulated channel exclusively (§7). The Engine models that constraint as
// a single scheduler goroutine that owns the channel. Callers from any
// goroutine submit jobs; the scheduler queues them per node, grants slots
// in per-node round-robin order (fair FIFO: a node draining a large backlog
// cannot starve its neighbours), and executes one job at a time. Callers
// block on their own job's completion, so any number of goroutines can run
// their exchanges concurrently while the channel itself stays serialized.

// Typed scheduler errors. The milback facade re-exports these so callers
// can errors.Is against the public API.
var (
	// ErrCancelled reports that a job's context was cancelled or timed out
	// before the scheduler granted it the channel. It always wraps the
	// underlying context error, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) also work.
	ErrCancelled = errors.New("job cancelled")
	// ErrClosed reports that the scheduler has been shut down.
	ErrClosed = errors.New("scheduler closed")
)

// queueDepth is the submission channel buffer: it lets a burst of callers
// hand their jobs over without waiting for the scheduler goroutine, which
// absorbs every waiting submission before each grant. Submissions beyond
// it block until the scheduler drains.
const queueDepth = 64

// EngineConfig parameterizes the scheduler.
type EngineConfig struct {
	// JobTimeout bounds each job's time in the scheduler: a job still queued
	// at the deadline fails with ErrCancelled, and a job already executing
	// sees the deadline on the context passed to it, so multi-phase jobs
	// (packets) abandon remaining phases between captures. A phase already
	// on the air is never preempted — the simulated channel cannot abort
	// mid-capture any more than a real radio can — so Run returns only when
	// the started job finishes. Zero disables the scheduler-level timeout;
	// callers can always impose their own via context deadlines.
	JobTimeout time.Duration
	// OnGrant, if set, is invoked on the scheduler goroutine immediately
	// before a job executes; the release func it returns runs right after.
	// The cluster wires it to the capture plane's job lease so capture
	// buffers a job leaks are reclaimed at the grant boundary.
	OnGrant func() (release func())
	// Admit, if set, is consulted on the scheduler goroutine before each
	// job executes and may block until the wider deployment allows this
	// scheduler onto the air; the release func it returns runs after the
	// job (and after OnGrant's release). A multi-AP cluster wires it to a
	// cluster-level admission check so co-channel APs within interference
	// range never grant spatially incompatible captures concurrently.
	// Blocking in Admit delays grants but never reorders a queue and never
	// touches a seed stream, so results stay deterministic. Nil admits
	// unconditionally (the single-AP configuration).
	Admit func() (release func())
	// OnAirtime, if set, receives each successful job's simulated AirtimeS
	// on the scheduler goroutine after the job completes. The cluster wires
	// it to the deployment's simulation clock, so spending channel time is
	// what moves simulated time forward.
	OnAirtime func(seconds float64)
	// Obs is the registry the scheduler's accounting lives in (queue-wait
	// and job-duration histograms, outcome counters, airtime totals). When
	// nil the engine creates a private registry so Stats always works; pass
	// the system registry to surface the scheduler alongside the capture
	// and pipeline metrics.
	Obs *obs.Registry
	// Tracer, if non-nil, receives one obs.SpanJob span per executed job
	// (Arg = the job's queue key).
	Tracer *obs.Tracer
}

// queueWaitBounds are the upper edges of the queue-wait histogram buckets;
// the last bucket is unbounded.
var queueWaitBounds = [...]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Stats is a snapshot of the scheduler's accounting.
type Stats struct {
	// Exchanges counts completed payload exchanges (packets, reliable
	// transfers); Localizations counts completed standalone localization or
	// orientation jobs.
	Exchanges     uint64
	Localizations uint64
	// BitErrors and BitsSent total over all completed exchanges.
	BitErrors uint64
	BitsSent  uint64
	// AirtimeS totals the simulated channel time of completed jobs.
	AirtimeS float64
	// Completed counts all jobs that ran to completion without error;
	// Failed counts jobs whose execution returned an error; Cancelled
	// counts jobs whose context expired before they reached the channel.
	Completed uint64
	Failed    uint64
	Cancelled uint64
}

// JobReport is what an executed job tells the scheduler's accounting.
type JobReport struct {
	// Exchange marks the job as a payload exchange; Localization marks it
	// as a standalone sensing job.
	Exchange     bool
	Localization bool
	// BitErrors/BitsSent/AirtimeS feed the corresponding Stats totals.
	BitErrors int
	BitsSent  int
	AirtimeS  float64
}

type job struct {
	key      int
	ctx      context.Context
	enqueued time.Time
	run      func(ctx context.Context) (JobReport, error)
	done     chan error
	// claimed arbitrates ownership between the scheduler (about to execute)
	// and the caller (abandoning on cancellation). Whoever wins the CAS
	// decides the job's fate: a scheduler win commits the job to execution
	// and the caller must wait on done; a caller win means the job never
	// runs and the scheduler drops it when dequeued.
	claimed atomic.Bool
}

// engineObs is the scheduler's accounting, resolved once from the obs
// registry at construction so the grant path works on plain instrument
// pointers (atomic, allocation-free).
type engineObs struct {
	queueWait   *obs.Histogram
	jobDuration *obs.Histogram
	completed   *obs.Counter
	failed      *obs.Counter
	cancelled   *obs.Counter
	exchanges   *obs.Counter
	locs        *obs.Counter
	bitErrors   *obs.Counter
	bitsSent    *obs.Counter
	airtime     *obs.FloatSum
}

func resolveEngineObs(reg *obs.Registry) engineObs {
	bounds := make([]float64, len(queueWaitBounds))
	for i, d := range queueWaitBounds {
		bounds[i] = d.Seconds()
	}
	return engineObs{
		queueWait:   reg.Histogram(obs.MetricQueueWaitSeconds, bounds),
		jobDuration: reg.Histogram(obs.MetricJobDurationSeconds, obs.DurationBuckets()),
		completed:   reg.Counter(obs.MetricJobsCompleted),
		failed:      reg.Counter(obs.MetricJobsFailed),
		cancelled:   reg.Counter(obs.MetricJobsCancelled),
		exchanges:   reg.Counter(obs.MetricExchanges),
		locs:        reg.Counter(obs.MetricLocalizations),
		bitErrors:   reg.Counter(obs.MetricBitErrors),
		bitsSent:    reg.Counter(obs.MetricBitsSent),
		airtime:     reg.FloatSum(obs.MetricAirtimeSeconds),
	}
}

// Engine is the AP airtime scheduler. Create it with NewEngine; all methods
// are safe for concurrent use.
type Engine struct {
	cfg     EngineConfig
	submit  chan *job
	quit    chan struct{}
	stopped chan struct{}
	closing sync.Once
	obs     engineObs
}

// NewEngine starts a scheduler goroutine and returns its handle. Close it
// when done to release the goroutine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	e := &Engine{
		cfg:     cfg,
		submit:  make(chan *job, queueDepth),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		obs:     resolveEngineObs(cfg.Obs),
	}
	go e.loop()
	return e
}

// Close shuts the scheduler down. Queued jobs fail with ErrClosed; the
// running job (if any) completes first. Close is idempotent.
func (e *Engine) Close() {
	e.closing.Do(func() { close(e.quit) })
	<-e.stopped
}

// Stats returns a snapshot of the scheduler's accounting, assembled from
// the obs registry instruments. Each value is read atomically; the cut
// across values is approximate under concurrent activity (quiesce the
// scheduler for exact totals, as the tests do).
func (e *Engine) Stats() Stats {
	return Stats{
		Exchanges:     e.obs.exchanges.Value(),
		Localizations: e.obs.locs.Value(),
		BitErrors:     e.obs.bitErrors.Value(),
		BitsSent:      e.obs.bitsSent.Value(),
		AirtimeS:      e.obs.airtime.Value(),
		Completed:     e.obs.completed.Value(),
		Failed:        e.obs.failed.Value(),
		Cancelled:     e.obs.cancelled.Value(),
	}
}

// Run submits fn as a job on the given queue key and blocks until the
// scheduler has executed it (returning fn's error), the context is
// cancelled while the job is still queued (ErrCancelled wrapping the
// context error), or the scheduler is closed before the job runs
// (ErrClosed). fn receives the job's effective context — the caller's ctx
// wrapped with JobTimeout if one is configured — so multi-phase jobs can
// observe the deadline between phases. Once the scheduler has started fn,
// Run always waits for it to finish and returns its result, even if ctx
// expires meanwhile: execution is never preempted and abandoning it would
// race fn's writes against the caller's reads. key groups jobs into
// per-node FIFO queues for the round-robin grant: one key per node, and a
// key of its own for work not tied to one node (discovery sweeps, scene
// edits).
func (e *Engine) Run(ctx context.Context, key int, fn func(ctx context.Context) (JobReport, error)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.JobTimeout)
		defer cancel()
	}
	j := &job{
		key:      key,
		ctx:      ctx,
		enqueued: time.Now(),
		run:      fn,
		done:     make(chan error, 1),
	}
	select {
	case e.submit <- j:
	case <-e.quit:
		return ErrClosed
	case <-ctx.Done():
		e.obs.cancelled.Inc()
		return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
	}
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		if j.claimed.CompareAndSwap(false, true) {
			// Claim won: the scheduler has not started the job and, seeing
			// the claim, never will. Safe to walk away.
			e.obs.cancelled.Inc()
			return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
		}
		// The scheduler claimed the job first, so fn is executing (or its
		// result is already in done). Wait for it: fn writes caller-captured
		// state, and execution is deliberately not preempted.
		return <-j.done
	case <-e.stopped:
		// done and stopped can both be ready; prefer the job's actual
		// result so an executed job is never misreported as ErrClosed.
		select {
		case err := <-j.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// loop is the scheduler goroutine: it owns the simulated channel and all
// queue state, so none of it needs locking.
func (e *Engine) loop() {
	defer close(e.stopped)
	queues := make(map[int][]*job)
	var ring []int // keys with pending jobs, in grant order
	pending := 0
	enqueue := func(j *job) {
		if len(queues[j.key]) == 0 {
			ring = append(ring, j.key)
		}
		queues[j.key] = append(queues[j.key], j)
		pending++
	}
	failAll := func(err error) {
		for _, q := range queues {
			for _, j := range q {
				j.done <- err
			}
		}
		for {
			select {
			case j := <-e.submit:
				j.done <- err
			default:
				return
			}
		}
	}
	for {
		if pending == 0 {
			select {
			case j := <-e.submit:
				enqueue(j)
			case <-e.quit:
				failAll(ErrClosed)
				return
			}
			continue
		}
		// Absorb every submission already waiting, so late arrivals enter
		// the round-robin before the next slot is granted.
		for absorbed := false; !absorbed; {
			select {
			case j := <-e.submit:
				enqueue(j)
			default:
				absorbed = true
			}
		}
		// Grant the channel to the head of the next queue in the ring.
		key := ring[0]
		ring = ring[1:]
		q := queues[key]
		j := q[0]
		if len(q) == 1 {
			delete(queues, key)
		} else {
			queues[key] = q[1:]
			ring = append(ring, key) // still pending: back of the ring
		}
		pending--
		e.execute(j)
		select {
		case <-e.quit:
			failAll(ErrClosed)
			return
		default:
		}
	}
}

// execute runs one granted job and folds its report into the registry
// instruments.
func (e *Engine) execute(j *job) {
	if !j.claimed.CompareAndSwap(false, true) {
		// The caller abandoned the job on cancellation (and counted it);
		// drop it without executing.
		return
	}
	if err := j.ctx.Err(); err != nil {
		e.obs.cancelled.Inc()
		j.done <- fmt.Errorf("%w: %w", ErrCancelled, err)
		return
	}
	var admitRelease func()
	if e.cfg.Admit != nil {
		admitRelease = e.cfg.Admit()
	}
	start := time.Now()
	e.obs.queueWait.Observe(start.Sub(j.enqueued).Seconds())
	var release func()
	if e.cfg.OnGrant != nil {
		release = e.cfg.OnGrant()
	}
	rep, err := j.run(j.ctx)
	if release != nil {
		release()
	}
	if admitRelease != nil {
		admitRelease()
	}
	e.obs.jobDuration.Observe(time.Since(start).Seconds())
	e.cfg.Tracer.Record(obs.SpanJob, start, int64(j.key))
	if err != nil {
		e.obs.failed.Inc()
	} else {
		e.obs.completed.Inc()
		if rep.Exchange {
			e.obs.exchanges.Inc()
		}
		if rep.Localization {
			e.obs.locs.Inc()
		}
		e.obs.bitErrors.Add(uint64(rep.BitErrors))
		e.obs.bitsSent.Add(uint64(rep.BitsSent))
		e.obs.airtime.Add(rep.AirtimeS)
		if e.cfg.OnAirtime != nil && rep.AirtimeS > 0 {
			e.cfg.OnAirtime(rep.AirtimeS)
		}
	}
	j.done <- err
}
