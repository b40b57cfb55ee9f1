package proto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// The AP airtime scheduler.
//
// A MilBack AP serves one beam at a time: spatial-division multiplexing
// means every packet, localization capture, or discovery sweep occupies the
// simulated channel exclusively (§7). The Engine models that constraint as
// a one-slot channel semaphore. A caller takes the slot, runs its job on
// its own goroutine, and gives the slot back, so any number of goroutines
// can run their exchanges concurrently while the channel itself stays
// serialized. Callers blocked on the slot are granted it in arrival order:
// the Go runtime hands a freed buffered-channel slot to the longest-blocked
// sender. Fairness between nodes follows from that FIFO grant, because the
// cluster holds a node's lock across its whole operation, so no node ever
// has more than one job waiting.

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

// EngineConfig parameterizes the scheduler.
type EngineConfig struct {
	// JobTimeout bounds each job's time in the scheduler: a job still
	// waiting for the slot at the deadline fails with ErrCancelled, and a job already executing
	// sees the deadline on the context passed to it, so multi-phase jobs
	// (packets) abandon remaining phases between captures. A phase already
	// on the air is never preempted — the simulated channel cannot abort
	// mid-capture any more than a real radio can — so Run returns only when
	// the started job finishes. Zero disables the scheduler-level timeout;
	// callers can always impose their own via context deadlines.
	JobTimeout time.Duration
	// OnGrant, if set, is invoked on the caller's goroutine, holding the
	// slot, immediately before a job executes; the release func it returns
	// runs right after, also when the job panics.
	// The cluster wires it to the capture plane's job lease so capture
	// buffers a job leaks are reclaimed at the grant boundary.
	OnGrant func() (release func())
	// Admit, if set, is consulted holding the slot before each job executes
	// and may block until the wider deployment allows this scheduler onto
	// the air; the release func it returns runs after the job (and after
	// OnGrant's release), also when the job panics. A multi-AP cluster wires it to a
	// cluster-level admission check so co-channel APs within interference
	// range never grant spatially incompatible captures concurrently.
	// Blocking in Admit delays grants but never reorders the waiting callers
	// and never touches a seed stream, so results stay deterministic. Nil admits
	// unconditionally (the single-AP configuration).
	Admit func() (release func())
	// OnAirtime, if set, receives each successful job's simulated AirtimeS
	// on the caller's goroutine after the job completes, still holding the
	// slot. The cluster wires
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
	// (Arg = the job's key).
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
	cfg EngineConfig
	// slot holds a token while a job is on the air; Close takes it for good.
	slot    chan struct{}
	quit    chan struct{}
	closing sync.Once
	obs     engineObs
}

// NewEngine returns a scheduler with its channel free. It starts no
// goroutine; Close it to fail later jobs with ErrClosed.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	return &Engine{
		cfg:  cfg,
		slot: make(chan struct{}, 1),
		quit: make(chan struct{}),
		obs:  resolveEngineObs(cfg.Obs),
	}
}

// Close shuts the scheduler down: the running job (if any) completes
// first, callers waiting for the slot and all later calls fail with
// ErrClosed. Close returns once the running job has finished, and is
// idempotent.
func (e *Engine) Close() {
	e.closing.Do(func() {
		close(e.quit)
		e.slot <- struct{}{} // never given back
	})
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

// Run waits for the channel, executes fn on the caller's goroutine and
// returns fn's error. It returns ErrCancelled wrapping the context error
// when ctx ends before the job is granted the channel, and ErrClosed when
// the scheduler is closed before the job runs. fn receives the job's
// effective context — the caller's ctx wrapped with JobTimeout if one is
// configured — so multi-phase jobs can observe the deadline between
// phases. Once fn has started, Run returns its result even if ctx expires
// meanwhile: execution is never preempted. If fn panics, the slot, the
// admission and the OnGrant release are all given back before the panic
// propagates. key names the job's node in the trace span: the NodeID, or
// 0 for work not tied to one node (discovery sweeps, scene edits).
func (e *Engine) Run(ctx context.Context, key int, fn func(ctx context.Context) (JobReport, error)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.JobTimeout)
		defer cancel()
	}
	enqueued := time.Now()
	select {
	case e.slot <- struct{}{}:
	case <-e.quit:
		return ErrClosed
	case <-ctx.Done():
		e.obs.cancelled.Inc()
		return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
	}
	defer func() { <-e.slot }()
	// The slot and quit (or ctx) can be ready together, and select picks
	// among ready cases at random: re-check both holding the slot.
	select {
	case <-e.quit:
		return ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		e.obs.cancelled.Inc()
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	start, rep, err := e.onAir(ctx, enqueued, fn)
	e.obs.jobDuration.Observe(time.Since(start).Seconds())
	e.cfg.Tracer.Record(obs.SpanJob, start, int64(key))
	if err != nil {
		e.obs.failed.Inc()
		return err
	}
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
	return nil
}

// onAir runs fn inside the admission and the OnGrant bracket and returns
// once both are released, with the time the job went on the air.
func (e *Engine) onAir(ctx context.Context, enqueued time.Time, fn func(ctx context.Context) (JobReport, error)) (start time.Time, rep JobReport, err error) {
	if e.cfg.Admit != nil {
		defer e.cfg.Admit()()
	}
	start = time.Now()
	e.obs.queueWait.Observe(start.Sub(enqueued).Seconds())
	if e.cfg.OnGrant != nil {
		defer e.cfg.OnGrant()()
	}
	rep, err = fn(ctx)
	return start, rep, err
}
