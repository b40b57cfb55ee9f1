package obs

// Canonical instrument names. Layers resolve these against the system
// Registry at wiring time; milback.Cluster.Metrics assembles its typed
// snapshot from the same names, so the two sides never drift.
const (
	// Scheduler (internal/proto.Engine).
	MetricQueueWaitSeconds   = "proto.queue_wait_seconds"
	MetricJobDurationSeconds = "proto.job_duration_seconds"
	MetricJobsCompleted      = "proto.jobs_completed"
	MetricJobsFailed         = "proto.jobs_failed"
	MetricJobsCancelled      = "proto.jobs_cancelled"
	MetricExchanges          = "proto.exchanges"
	MetricLocalizations      = "proto.localizations"
	MetricBitsSent           = "proto.bits_sent"
	MetricBitErrors          = "proto.bit_errors"
	MetricAirtimeSeconds     = "proto.airtime_seconds"

	// Capture plane (internal/capture).
	MetricPoolHits         = "capture.pool.hits"
	MetricPoolMisses       = "capture.pool.misses"
	MetricPoolPuts         = "capture.pool.puts"
	MetricPoolDrops        = "capture.pool.drops"
	MetricLeaseSeconds     = "capture.lease_seconds"
	MetricLeasesOpened     = "capture.leases_opened"
	MetricLeasesClosed     = "capture.leases_closed"
	MetricLeasesReclaimed  = "capture.leases_reclaimed"
	MetricCapturesAcquired = "capture.captures"

	// AP pipeline stages (internal/ap).
	MetricSynthesizeSeconds = "ap.synthesize_seconds"
	MetricFFTSeconds        = "ap.fft_seconds"
	MetricDetectSeconds     = "ap.detect_seconds"

	// Sub-stage of the fft stage, recorded by the batched transform layer:
	// the batched subtract-transform pass that runs the whole chirp
	// dimension through one dsp.BatchPlan call, excluding validation.
	MetricFFTBatchSeconds = "ap.fft.batch_seconds"

	// MetricCaptureWorkers distributes how many pooled workers actually
	// joined each intra-capture fan-out (synthesis, subtract-FFT,
	// power-profile); buckets come from WorkerCountBuckets. A distribution
	// pinned at 1 on a multicore machine means GOMAXPROCS is 1 or stages are
	// too narrow to fan out.
	MetricCaptureWorkers = "ap.capture.workers"

	// Cluster plane (milback.Cluster): per-AP roaming and sharding
	// accounting, registered in each AP's own registry. HandoffsIn counts
	// nodes this AP received from a neighbour, HandoffsOut nodes it drained
	// away, Rebalances the subset of inbound handoffs forced by an AP
	// leaving the cluster (RemoveAP) rather than by node movement, and
	// Nodes gauges how many nodes are currently homed at this AP.
	MetricHandoffsIn  = "cluster.handoffs_in"
	MetricHandoffsOut = "cluster.handoffs_out"
	MetricRebalances  = "cluster.rebalances"
	MetricNodes       = "cluster.nodes"

	// Serving layer (internal/serve): HTTP request accounting for
	// milback-serve. Requests counts every served API request, Errors the
	// subset answered with a 4xx/5xx status, LatencySeconds the wall time
	// from decode to response, and InFlight gauges currently-executing
	// handlers (the quantity SIGTERM drains to zero).
	MetricServeRequests       = "serve.requests"
	MetricServeErrors         = "serve.errors"
	MetricServeLatencySeconds = "serve.latency_seconds"
	MetricServeInFlight       = "serve.in_flight"

	// Sub-stage split of the synthesize stage. Draw times the serial state
	// build (newSynthState: the imperfection draws and the noise key) that
	// precedes the kernels. Clutter times the per-capture set-up: the
	// clutter template, the frequency grid and the FSA gain-envelope fill
	// (fanned out across targets). Targets times the per-chirp tone
	// generation, Noise the keyed AWGN draw (fanned out across chirps).
	// The four run back to back and cover MetricSynthesizeSeconds apart
	// from the clock reads between them.
	MetricSynthDrawSeconds    = "ap.synthesize.draw_seconds"
	MetricSynthClutterSeconds = "ap.synthesize.clutter_seconds"
	MetricSynthTargetsSeconds = "ap.synthesize.targets_seconds"
	MetricSynthNoiseSeconds   = "ap.synthesize.noise_seconds"
)

// Canonical trace span names. The four ap.synthesize.* sub-spans nest
// inside each ap.synthesize span, and ap.fft.batch nests inside each ap.fft
// span (same capture, narrower windows), so `milback-report -trace`
// attributes pipeline time to the stage that actually spent it.
const (
	SpanSynthesize   = "ap.synthesize"
	SpanSynthDraw    = "ap.synthesize.draw"
	SpanSynthClutter = "ap.synthesize.clutter"
	SpanSynthTargets = "ap.synthesize.targets"
	SpanSynthNoise   = "ap.synthesize.noise"
	SpanFFT          = "ap.fft"
	SpanFFTBatch     = "ap.fft.batch"
	SpanDetect       = "ap.detect"
	SpanJob          = "proto.job"
	SpanLease        = "capture.lease"
)

// SpanBusySuffix marks a companion span that carries a parallel stage's
// summed per-worker busy time instead of wall time: a stage that fans out
// emits its usual wall-clock span plus one "<stage>.busy" span whose DurNS
// is the total time workers spent inside items and whose Arg is the
// participant count. busy/wall is the stage's effective parallelism, which
// `milback-report -trace` folds into a per-stage efficiency column.
const SpanBusySuffix = ".busy"

// WorkerCountBuckets returns the bucket scheme for worker-count
// distributions (MetricCaptureWorkers): power-of-two upper bounds so the
// buckets read as "exactly 1", "exactly 2", "3–4", "5–8", … up to 64,
// matching how worker budgets scale with GOMAXPROCS.
func WorkerCountBuckets() []float64 {
	return []float64{2, 3, 5, 9, 17, 33, 65}
}

// DurationBuckets returns the shared bucket scheme for stage-timing
// histograms: decade-spaced upper bounds from 1 µs to 10 s (in seconds),
// plus the implicit overflow bucket. Wide enough that one scheme serves
// both microsecond FFTs and second-long discovery sweeps.
func DurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
}
